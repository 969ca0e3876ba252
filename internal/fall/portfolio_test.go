package fall

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/attack"
	"repro/internal/lock"
	"repro/internal/sat"
	"repro/internal/testcirc"
)

func shortlistSignatures(res *Result) []string {
	sigs := make([]string, len(res.Keys))
	for i := range res.Keys {
		sigs[i] = res.Keys[i].Signature()
	}
	return sigs
}

// TestAttackPortfolioGridMatchesDefault runs the full FALL pipeline
// with every candidate×polarity cell racing a per-query portfolio on a
// multi-worker grid, and requires the shortlist to be byte-identical to
// the default single-engine run — the grid-level form of the
// portfolio-verdict-equality acceptance criterion (and, under `go test
// -race`, the concurrency check for per-cell portfolios).
func TestAttackPortfolioGridMatchesDefault(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	orig := testcirc.Random(rng, 12, 120)
	lr, err := lock.SFLLHD(orig, lock.Options{KeySize: 12, H: 2, Seed: 102, Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	base, err := Attack(context.Background(), lr.Locked, Options{H: 2})
	if err != nil {
		t.Fatal(err)
	}
	setup := attack.NewSolverSetup(sat.Config{Seed: 9}, 3)
	port, err := Attack(context.Background(), lr.Locked, Options{
		H: 2, Workers: 4, Solver: setup.Factory(),
	})
	if err != nil {
		t.Fatal(err)
	}
	got, want := shortlistSignatures(port), shortlistSignatures(base)
	if len(got) != len(want) {
		t.Fatalf("portfolio run shortlisted %d keys, single engine %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("shortlist[%d] differs: %q vs %q", i, got[i], want[i])
		}
	}
	stats := setup.WinStats()
	if len(stats) != 3 {
		t.Fatalf("win stats for %d configs, want 3", len(stats))
	}
	var wins, races int64
	for _, cs := range stats {
		wins += cs.Wins
		races += cs.Races
	}
	if races == 0 || wins == 0 {
		t.Errorf("no races recorded (races %d, wins %d) — factory not used?", races, wins)
	}
}

// TestGridDispatchOrderDeterministic: the adaptive dispatch permutation
// is a pure function of the circuit and options.
func TestGridDispatchOrderDeterministic(t *testing.T) {
	_, lr := lockFig2a(t, 1, 11)
	cands := SupportMatch(lr.Locked, func() []int {
		comps := FindComparators(lr.Locked)
		seen := map[int]bool{}
		var xs []int
		for _, cp := range comps {
			if !seen[cp.Input] {
				seen[cp.Input] = true
				xs = append(xs, cp.Input)
			}
		}
		return xs
	}())
	var jobs []analysisJob
	for _, cand := range cands {
		jobs = append(jobs, analysisJob{cand, false}, analysisJob{cand, true})
	}
	opts := &Options{H: 1}
	a, _ := gridDispatchOrder(lr.Locked, jobs, opts)
	b, _ := gridDispatchOrder(lr.Locked, jobs, opts)
	if len(a) != len(jobs) {
		t.Fatalf("order has %d entries, want %d", len(a), len(jobs))
	}
	seen := make([]bool, len(jobs))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("dispatch order differs between computations at %d", i)
		}
		if seen[a[i]] {
			t.Fatalf("index %d dispatched twice", a[i])
		}
		seen[a[i]] = true
	}
}
