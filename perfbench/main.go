// Command perfbench is the repository benchmark. It drives the paper
// workload through its public entry points (exp.BuildCase,
// exp.SuiteUnits + exp.RunUnits, campaign.NewPlan / Run / Merge,
// genbench.Generate), checks every verdict, and prints each metric by
// name with its unit; the last line of standard output is one JSON
// object with the fields correct, attempted, failed and metrics.
//
//	bash perfbench/run.sh --workload summary-small --seed 2019 --seconds 10 --trace 0
//
// Workloads (BENCHMARK.json records why each was chosen):
//
//	summary-small  §VI-B: one Auto FALL unit on each of the 80 SFLL-HD
//	               instances of -scale small (oracle-less analysis)
//	fig6-tiny      Fig. 6 on all 20 circuits at -scale tiny scaling,
//	               levels h8 and h4: FALL shortlist, key confirmation
//	               and the SAT attack (30 iterations) per instance
//	campaign-warm  a tiny summary + fig5:hd0 campaign re-drained by two
//	               stealing workers from a warm on-disk verdict memo
//	all            the three in turn, each metric prefixed with its
//	               workload (peak_rss_mb is then the peak so far)
//
// With --trace 0 a run sets up several times (setup_s is the median),
// then repeats the timed pass until --seconds have elapsed (at least
// once) and reports end-to-end metrics as medians over the passes.
// With --trace 1 it sets up once, runs one untraced and one traced
// pass, and reports the per-layer metrics; the spans are written to
// the work directory.
//
// The exit code is 0 when every unit ran and every verdict checked,
// 1 when some unit failed or some verdict disagreed (the result line
// is still printed), and 2 on an error that stops the benchmark.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/campaign"
	"repro/internal/exp"
	"repro/internal/genbench"
	"repro/internal/obs"
)

// An untraced run sets up at least minSetups times and until
// setupBudget has been spent, and reports the median as setup_s: cheap
// set-ups repeat often enough to be steady, a cold campaign fill only
// twice.
const (
	minSetups   = 2
	setupBudget = time.Second
)

var workloadNames = []string{"summary-small", "fig6-tiny", "campaign-warm"}

type options struct {
	seed          int64
	seconds       time.Duration
	trace         bool
	work          string
	writeExpected bool
}

func newWorkload(name string, o options, runDir string) (workload, error) {
	switch name {
	case "summary-small":
		specs, err := genbench.ParseScale("small")
		if err != nil {
			return nil, err
		}
		return &harness{
			cfg:   exp.Config{Specs: specs, Seed: o.seed, Timeout: 60 * time.Second, Workers: loadWorkers},
			suite: "summary", levels: exp.Levels, split: o.trace,
		}, nil
	case "fig6-tiny":
		// All 20 circuits at tiny scaling, two of the four levels: one
		// Fig. 6 pairing costs more the more its solver queries happen
		// to be hard, which varies widely from seed to seed, so the pass
		// averages over many circuits rather than over all levels of
		// the six -scale tiny ones.
		return &harness{
			cfg: exp.Config{
				Specs: genbench.Scaled(genbench.TableI, 16, 12), Seed: o.seed,
				Timeout: 120 * time.Second, SATIterCap: 30, Workers: loadWorkers,
			},
			suite: "fig6", levels: []exp.HLevel{exp.HM8, exp.HM4}, split: o.trace,
		}, nil
	case "campaign-warm":
		specs, err := genbench.ParseScale("tiny")
		if err != nil {
			return nil, err
		}
		return &campaignWarm{
			cfg: campaign.Config{
				Specs: specs, Seed: o.seed, Timeout: 60 * time.Second, SATIterCap: 200,
				Suites: []string{"summary", "fig5:hd0"},
			},
			work: runDir, split: o.trace,
		}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want %v or all)", name, workloadNames)
}

// outcome is one workload run: its metrics and verdict check.
type outcome struct {
	metrics                      map[string]float64
	order                        []metric // the metrics reported, in print order
	attempted, failed, mismatch  int
	solved, unique, confirmed    int
	unplanted, passes, setupRuns int
	passWalls                    []float64
	peakRSS                      float64 // MiB, untraced runs only
	notes                        []string
}

func runWorkload(ctx context.Context, name string, o options) (*outcome, error) {
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return nil, err
	}
	runDir, err := os.MkdirTemp(o.work, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	w, err := newWorkload(name, o, runDir)
	if err != nil {
		return nil, err
	}
	out := &outcome{metrics: map[string]float64{}}

	var setups []float64
	var spent time.Duration
	for len(setups) == 0 || !o.trace && (len(setups) < minSetups || spent < setupBudget) {
		t0 := time.Now()
		if err := w.setup(ctx); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", name, err)
		}
		d := time.Since(t0)
		spent += d
		setups = append(setups, d.Seconds())
	}
	out.setupRuns = len(setups)

	var passes []*passResult
	if o.trace {
		for _, traced := range []bool{false, true} {
			p, err := w.pass(ctx, traced)
			if err != nil {
				return nil, fmt.Errorf("%s: pass: %w", name, err)
			}
			passes = append(passes, p)
		}
	} else {
		start := time.Now()
		for len(passes) == 0 || time.Since(start) < o.seconds {
			p, err := w.pass(ctx, false)
			if err != nil {
				return nil, fmt.Errorf("%s: pass: %w", name, err)
			}
			passes = append(passes, p)
		}
	}
	out.passes = len(passes)

	if err := out.checkVerdicts(ctx, name, o, passes, w.timeout()); err != nil {
		return nil, err
	}

	if !o.trace {
		var walls, cpus []float64
		for _, p := range passes {
			walls = append(walls, p.use.wall.Seconds())
			cpus = append(cpus, p.use.cpu.Seconds())
		}
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		out.passWalls = walls
		out.metrics["wall_s"] = median(walls)
		out.metrics["cpu_s"] = median(cpus)
		out.metrics["setup_s"] = median(setups)
		out.peakRSS = rss
		out.order = endToEnd
		return out, nil
	}

	base, traced := passes[0], passes[1]
	m := out.metrics
	for _, pm := range perLayer {
		m[pm.name] = 0
	}
	out.order = perLayer
	st := w.built()
	m["genbench.generate_s"] = st.generate.Seconds()
	m["lock.sfllhd_s"] = st.lock.Seconds()
	m["lock.locked_gates"] = float64(st.lockedGates)
	layerMetrics(traced.spans, m)
	for k, v := range traced.layer {
		m[k] = v
	}
	busy := traced.busy
	if busy == nil {
		busy = unitIntervals(traced.spans)
	}
	var units int
	units, m["exp.unit_p50_s"], m["exp.unit_max_s"], m["exp.idle_frac"] = unitStats(busy, loadWorkers, traced.use.wall)
	m["exp.units"] = float64(units)
	m["go.mallocs"] = float64(base.use.mallocs)
	m["go.alloc_mb"] = float64(base.use.allocB) / (1 << 20)
	m["go.gc_cycles"] = float64(base.use.gcCycles)
	m["go.gc_pause_ms"] = float64(base.use.gcPause) / 1e6
	m["trace.overhead_frac"] = traced.use.wall.Seconds()/base.use.wall.Seconds() - 1
	for i, spans := range traced.spans {
		path := filepath.Join(o.work, fmt.Sprintf("%s-seed%d-%d.trace.ndjson", name, o.seed, i))
		if err := writeSpans(path, spans); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// checkVerdicts checks every pass's verdicts, requires every pass to
// agree with the first, and at the default seed compares the first
// with the recorded table (or records it, with --write-expected).
func (out *outcome) checkVerdicts(ctx context.Context, name string, o options, passes []*passResult, timeout time.Duration) error {
	var first map[string]string
	for i, p := range passes {
		t := checkUnits(ctx, p.units, timeout)
		out.attempted += t.attempted
		out.failed += t.failed
		out.mismatch += t.mismatch
		out.unplanted += t.unplanted
		out.notes = append(out.notes, t.notes...)
		if i == 0 {
			first = t.table
			out.solved, out.unique, out.confirmed = t.solved, t.unique, t.confirmed
			continue
		}
		diffs := diffTables(t.table, first)
		out.mismatch += len(diffs)
		for _, d := range diffs {
			out.notes = append(out.notes, fmt.Sprintf("pass %d differs from pass 1: %s", i+1, d))
		}
	}
	if o.seed == defaultSeed {
		if o.writeExpected {
			if err := writeExpected("perfbench", name, first); err != nil {
				return err
			}
		} else {
			want, err := expectedTable(name)
			if err != nil {
				return err
			}
			diffs := diffTables(first, want)
			out.mismatch += len(diffs)
			for _, d := range diffs {
				out.notes = append(out.notes, "expected table: "+d)
			}
		}
	}
	return nil
}

// writeSpans writes spans as an NDJSON trace that cmd/tracestat reads.
func writeSpans(path string, spans []obs.SpanData) error {
	sink, err := obs.NewFileSink(path)
	if err != nil {
		return err
	}
	for _, sp := range spans {
		sink.Emit(sp)
	}
	return sink.Close()
}

func printOutcome(name string, o options, r *outcome) {
	fmt.Printf("perfbench %s seed=%d trace=%v set-ups=%d passes=%d\n", name, o.seed, o.trace, r.setupRuns, r.passes)
	for _, m := range r.order {
		fmt.Printf("  %-24s %14.6f %s\n", m.name, r.metrics[m.name], m.unit)
	}
	fmt.Printf("  %-24s %14.6f ratio (%d of %d units)\n", "fail_frac", float64(r.failed)/float64(r.attempted), r.failed, r.attempted)
	fmt.Printf("  %-24s %14d count\n", "verdict_mismatch", r.mismatch)
	if len(r.passWalls) > 0 {
		fmt.Printf("  %-24s %14.6f MiB (VmHWM)\n", "peak_rss_mb", r.peakRSS)
		fmt.Printf("  wall_s of each pass: %.4f\n", r.passWalls)
	}
	fmt.Printf("  verdicts (first pass): %d solved, %d unique, %d key-confirmed; %d equivalent claims on a non-planted key, re-proved\n",
		r.solved, r.unique, r.confirmed, r.unplanted)
	for _, n := range r.notes {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", name, n)
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "summary-small", "workload: summary-small | fig6-tiny | campaign-warm | all")
		seed    = flag.Int64("seed", defaultSeed, "workload seed: circuits, locks and attack randomness derive from it")
		seconds = flag.Int("seconds", 10, "measuring window: untraced passes repeat until it has elapsed")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics from untraced passes; 1: per-layer metrics from a traced pass")
		work    = flag.String("work", filepath.Join(".bench_build", "perfbench"), "scratch directory for campaigns and written traces")
		record  = flag.Bool("write-expected", false, "record this run's verdicts as perfbench/expected/WORKLOAD.json (default seed only)")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if *record && *seed != defaultSeed {
		fmt.Fprintf(os.Stderr, "perfbench: --write-expected records the tables of seed %d only\n", defaultSeed)
		os.Exit(2)
	}
	o := options{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, work: *work, writeExpected: *record}
	names := []string{*name}
	if *name == "all" {
		names = workloadNames
	}
	res := jsonResult{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, n := range names {
		r, err := runWorkload(context.Background(), n, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(2)
		}
		printOutcome(n, o, r)
		res.Correct = res.Correct && r.mismatch == 0
		res.Attempted += r.attempted
		res.Failed += r.failed
		for _, m := range r.order {
			key := m.name
			if len(names) > 1 {
				key = n + "." + key
			}
			res.Metrics[key] = jsonMetric{r.metrics[m.name], m.unit}
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct || res.Failed > 0 {
		os.Exit(1)
	}
}
