package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/exp"
	"repro/internal/genbench"
	"repro/internal/obs"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestCoveredMergesOverlappingChildren(t *testing.T) {
	parent := interval{0, 100}
	children := []interval{{30, 70}, {10, 50}, {90, 120}, {200, 300}}
	// [10,70) from the two overlapping children, [90,100) clipped to
	// the parent, nothing from the child outside it.
	if got := covered(parent, children); got != 70 {
		t.Fatalf("covered = %d, want 70", got)
	}
	if got := covered(parent, nil); got != 0 {
		t.Fatalf("covered with no children = %d, want 0", got)
	}
}

// A FALL cell whose two solver queries overlap in time: self time is
// the cell minus the union of the queries, not minus their sum.
func TestLayerMetricsSelfTimeWithParallelChildren(t *testing.T) {
	spans := []obs.SpanData{
		{ID: 1, Name: "unit", StartNS: 0, DurNS: 1000},
		{ID: 2, Parent: 1, Name: "fall.cell", StartNS: 100, DurNS: 800, Attrs: map[string]any{"outcome": "key"}},
		{ID: 3, Parent: 2, Name: "query", StartNS: 200, DurNS: 400, Attrs: map[string]any{"verdict": "UNSAT", "conflicts": int64(5)}},
		{ID: 4, Parent: 2, Name: "query", StartNS: 300, DurNS: 400, Attrs: map[string]any{"verdict": "SAT", "decisions": 7.0}},
		{ID: 5, Parent: 1, Name: "fall.cell", StartNS: 950, DurNS: 100, Attrs: map[string]any{"outcome": "rejected"}},
	}
	m := map[string]float64{}
	layerMetrics([][]obs.SpanData{spans}, m)
	// Cell 2: 800 ns minus the union [200,700) = 300 ns; cell 5 has no
	// children, so all of its 100 ns is self time.
	if want := 400e-9; !near(m["fall.cell_self_s"], want) {
		t.Errorf("fall.cell_self_s = %g, want %g", m["fall.cell_self_s"], want)
	}
	if want := 900e-9; !near(m["fall.cell_s"], want) {
		t.Errorf("fall.cell_s = %g, want %g", m["fall.cell_s"], want)
	}
	if m["fall.cells"] != 2 || m["fall.cell_yield"] != 0.5 {
		t.Errorf("cells = %g, yield = %g, want 2 and 0.5", m["fall.cells"], m["fall.cell_yield"])
	}
	if m["sat.queries"] != 2 || m["sat.conflicts"] != 5 || m["sat.decisions"] != 7 || m["sat.unsat_frac"] != 0.5 {
		t.Errorf("queries/conflicts/decisions/unsat = %g/%g/%g/%g, want 2/5/7/0.5",
			m["sat.queries"], m["sat.conflicts"], m["sat.decisions"], m["sat.unsat_frac"])
	}
	// The unit's children cover [100,900) and, clipped, [950,1000) of
	// its [0,1000): 85% of it is named.
	if !near(m["trace.named_frac"], 0.85) {
		t.Errorf("trace.named_frac = %g, want 0.85", m["trace.named_frac"])
	}
}

func TestPercentileReportsSampleCount(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, tc := range []struct {
		p    float64
		want float64
	}{{50, 5}, {90, 9}, {100, 10}, {1, 1}} {
		got, n := percentile(xs, tc.p)
		if got != tc.want || n != len(xs) {
			t.Errorf("percentile(p%g) = %g over %d samples, want %g over %d", tc.p, got, n, tc.want, len(xs))
		}
	}
	if got, n := percentile(nil, 50); got != 0 || n != 0 {
		t.Errorf("percentile of no samples = %g over %d, want 0 over 0", got, n)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even sample = %g, want 2.5", got)
	}
}

func TestUnitStatsIdleFraction(t *testing.T) {
	s := int64(time.Second)
	units := []interval{{0, 4 * s}, {0, 10 * s}, {5 * s, 9 * s}}
	n, p50, maxS, idle := unitStats(units, 2, 10*time.Second)
	// 18 busy seconds of 2 workers x 10 s.
	if n != 3 || p50 != 4 || maxS != 10 || !near(idle, 0.1) {
		t.Fatalf("unitStats = %d, %g, %g, %g; want 3, 4, 10, 0.1", n, p50, maxS, idle)
	}
}

func TestQueryFamiliesMapToSolveMetrics(t *testing.T) {
	parents := map[string]string{
		"fall.cell": "fall", "sat.miter": "satattack", "sat.extract": "satattack",
		"kc.P": "keyconfirm", "kc.Q": "keyconfirm", "kc.D": "keyconfirm", "unit": "score",
		"fall.analysis": "other",
	}
	var spans []obs.SpanData
	id := uint64(0)
	for parent := range parents {
		id++
		pid := id
		spans = append(spans, obs.SpanData{ID: pid, Name: parent, DurNS: 10_000})
		id++
		spans = append(spans, obs.SpanData{ID: id, Parent: pid, Name: "query", DurNS: 1000})
		if got := queryFamily(parent); got != parents[parent] {
			t.Errorf("queryFamily(%q) = %q, want %q", parent, got, parents[parent])
		}
	}
	m := map[string]float64{}
	layerMetrics([][]obs.SpanData{spans}, m)
	want := map[string]float64{
		"sat.solve_s.fall": 1e-6, "sat.solve_s.satattack": 2e-6,
		"sat.solve_s.keyconfirm": 3e-6, "sat.solve_s.score": 1e-6, "sat.solve_s": 8e-6,
	}
	for k, v := range want {
		if !near(m[k], v) {
			t.Errorf("%s = %g, want %g", k, m[k], v)
		}
	}
	if _, ok := m["sat.solve_s.other"]; ok {
		t.Errorf("queries of unknown parents are billed to a family: %v", m)
	}
}

// Span ids repeat across trace files, so each group resolves parents
// on its own.
func TestLayerMetricsResolvesParentsPerTrace(t *testing.T) {
	a := []obs.SpanData{{ID: 1, Name: "fall.cell"}, {ID: 2, Parent: 1, Name: "query", DurNS: 1000}}
	b := []obs.SpanData{{ID: 1, Name: "kc.P"}, {ID: 2, Parent: 1, Name: "query", DurNS: 2000, Attrs: map[string]any{"memo": "disk"}}}
	m := map[string]float64{}
	layerMetrics([][]obs.SpanData{a, b}, m)
	if !near(m["sat.solve_s.fall"], 1e-6) || !near(m["sat.solve_s.keyconfirm"], 2e-6) {
		t.Errorf("fall %g, keyconfirm %g; want 1e-6 and 2e-6", m["sat.solve_s.fall"], m["sat.solve_s.keyconfirm"])
	}
	if m["memo.disk_hit_us_p50"] != 2 {
		t.Errorf("memo.disk_hit_us_p50 = %g, want 2", m["memo.disk_hit_us_p50"])
	}
}

// An Equivalent claim without the planted key is re-proved by the
// benchmark's own miter; a wrong key is a mismatch, not a pass.
func TestCheckUnitsReprovesUnplantedClaims(t *testing.T) {
	specs, err := genbench.ParseScale("tiny")
	if err != nil {
		t.Fatal(err)
	}
	cs, err := exp.BuildCase(specs[3], exp.HM4, 7)
	if err != nil {
		t.Fatal(err)
	}
	wrong := attack.Key{}
	for k, v := range cs.Lock.Key {
		wrong[k] = !v
	}
	claim := func(key attack.Key, planted bool) unitOutcome {
		o := &exp.Outcome{Solved: true, Equivalent: true, PlantedKeyMatch: planted, NumKeys: 1, Keys: []attack.Key{key}}
		return unitOutcome{id: "u", cs: cs, res: exp.UnitResult{Outcome: o}}
	}
	ctx := context.Background()
	if tl := checkUnits(ctx, []unitOutcome{claim(cs.Lock.Key, true)}, time.Minute); tl.mismatch != 0 || tl.unplanted != 0 {
		t.Errorf("planted key: mismatch %d, unplanted %d; want 0, 0 (%v)", tl.mismatch, tl.unplanted, tl.notes)
	}
	if tl := checkUnits(ctx, []unitOutcome{claim(cs.Lock.Key, false)}, time.Minute); tl.mismatch != 1 {
		t.Errorf("planted key not flagged as planted: mismatch %d, want 1", tl.mismatch)
	}
	if tl := checkUnits(ctx, []unitOutcome{claim(wrong, false)}, time.Minute); tl.mismatch != 1 {
		t.Errorf("wrong key claimed equivalent: mismatch %d, want 1", tl.mismatch)
	}
	// A SAT attack stopped by its iteration cap is not scored, so the
	// planted key it happens to carry is not a missed claim.
	capped := claim(cs.Lock.Key, false)
	o := capped.res.Outcome
	o.Attack, o.TimedOut, o.Solved, o.Equivalent = exp.SATAttackName, true, false, false
	if tl := checkUnits(ctx, []unitOutcome{capped}, time.Minute); tl.mismatch != 0 || tl.failed != 0 {
		t.Errorf("capped SAT attack: mismatch %d, failed %d; want 0, 0 (%v)", tl.mismatch, tl.failed, tl.notes)
	}
	slow := claim(cs.Lock.Key, true)
	slow.wall = time.Minute
	if tl := checkUnits(ctx, []unitOutcome{slow}, time.Minute); tl.failed != 1 {
		t.Errorf("unit at its timeout: failed %d, want 1", tl.failed)
	}
}

func TestExpectedSummaryTable(t *testing.T) {
	table, err := expectedTable("summary-small")
	if err != nil {
		t.Fatal(err)
	}
	var solved, unique int
	for _, line := range table {
		if strings.Contains(line, "solved=true") {
			solved++
		}
		if strings.Contains(line, "unique=true") {
			unique++
		}
	}
	if len(table) != 80 || solved != 80 || unique != 79 {
		t.Errorf("expected table: %d units, %d solved, %d unique; want 80, 80, 79", len(table), solved, unique)
	}
	if got := table["summary/apex4/hd0"]; !strings.HasSuffix(got, "keys=3") {
		t.Errorf("summary/apex4/hd0 = %q, want 3 keys", got)
	}
	for _, w := range workloadNames {
		if tab, err := expectedTable(w); err != nil || len(tab) == 0 {
			t.Errorf("expected table for %s: %d units, %v", w, len(tab), err)
		}
	}
}

// BENCHMARK.json lists exactly the workloads and metrics this program
// reports.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("workloads %v, want %v", names, workloadNames)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, want %d", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit || got[i].Better != m.better {
				t.Errorf("%s[%d] = %+v, want %s %s %s", kind, i, got[i], m.name, m.unit, m.better)
			}
			if kind == "per_layer" && m.moves == "" {
				t.Errorf("%s does not say what it should move", m.name)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
