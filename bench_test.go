// Package repro's root benchmark harness: one testing.B benchmark per
// table/figure of the paper's evaluation (§VI), plus ablation benchmarks
// for the design choices called out in DESIGN.md. Each benchmark runs the
// same code path as cmd/fallbench at a reduced scale so `go test -bench=.`
// finishes in minutes; run cmd/fallbench -scale paper for full-dimension
// numbers.
package repro

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/campaign"
	"repro/internal/cnf"
	"repro/internal/exp"
	"repro/internal/fall"
	"repro/internal/genbench"
	"repro/internal/keyconfirm"
	"repro/internal/lock"
	"repro/internal/oracle"
	"repro/internal/sat"
	"repro/internal/sat/bddengine"
	"repro/internal/sat/testsolver"
	"repro/internal/satattack"
	"repro/internal/testcirc"
)

func benchConfig(nSpecs int) exp.Config {
	return exp.Config{
		Specs:      genbench.Scaled(genbench.TableI, 16, 12)[:nSpecs],
		Seed:       2019,
		Timeout:    2 * time.Second,
		SATIterCap: 30,
	}
}

// BenchmarkTable1 regenerates Table I (benchmark + locking statistics).
func BenchmarkTable1(b *testing.B) {
	cfg := benchConfig(4)
	for i := 0; i < b.N; i++ {
		if _, err := exp.Table1(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func benchFig5Panel(b *testing.B, level exp.HLevel) {
	cfg := benchConfig(3)
	cases, err := exp.BuildSuite(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		outs := exp.Fig5Panel(context.Background(), cases, level, cfg)
		solved := 0
		for _, o := range outs {
			if o.Solved && o.Attack != "SAT-Attack" {
				solved++
			}
		}
		if solved == 0 {
			b.Fatal("no FALL attack solved any instance")
		}
	}
}

// BenchmarkFig5HD0 regenerates Fig. 5 panel 1 (SFLL-HD0: SAT attack vs
// AnalyzeUnateness).
func BenchmarkFig5HD0(b *testing.B) { benchFig5Panel(b, exp.HD0) }

// BenchmarkFig5H8 regenerates Fig. 5 panel 2 (h=m/8: SAT attack vs
// SlidingWindow vs Distance2H).
func BenchmarkFig5H8(b *testing.B) { benchFig5Panel(b, exp.HM8) }

// BenchmarkFig5H4 regenerates Fig. 5 panel 3 (h=m/4).
func BenchmarkFig5H4(b *testing.B) { benchFig5Panel(b, exp.HM4) }

// BenchmarkFig5H3 regenerates Fig. 5 panel 4 (h=m/3, SlidingWindow only).
func BenchmarkFig5H3(b *testing.B) { benchFig5Panel(b, exp.HM3) }

// BenchmarkFig6 regenerates Fig. 6 (key confirmation vs SAT attack mean
// runtimes).
func BenchmarkFig6(b *testing.B) {
	cfg := benchConfig(2)
	var cases []*exp.Case
	for i, spec := range cfg.Specs {
		cs, err := exp.BuildCase(spec, exp.HD0, cfg.Seed+int64(i)*1009)
		if err != nil {
			b.Fatal(err)
		}
		cases = append(cases, cs)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := exp.Fig6(context.Background(), cases, cfg)
		for _, r := range rows {
			if r.KCConfirmed != r.KCRuns {
				b.Fatalf("%s: confirmation failed", r.Circuit)
			}
		}
	}
}

// BenchmarkSummary regenerates the §VI-B summary statistics (defeated /
// unique-key counts over the suite).
func BenchmarkSummary(b *testing.B) {
	cfg := benchConfig(3)
	cases, err := exp.BuildSuite(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := exp.Summarize(context.Background(), cases, cfg)
		if s.Defeated == 0 {
			b.Fatal("nothing defeated")
		}
	}
}

// --- Serial vs parallel (worker-pool engine) benchmarks ---

// benchSuiteWorkers measures the §VI-B summary suite (the heaviest
// harness loop: one Auto FALL attack per case) at a fixed harness worker
// count. On a multi-core runner the 4-worker variant should run at least
// 2x faster than the serial one; the Summary statistics are identical.
func benchSuiteWorkers(b *testing.B, workers int) {
	cfg := benchConfig(3)
	cfg.Workers = workers
	cases, err := exp.BuildSuite(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := exp.Summarize(context.Background(), cases, cfg)
		if s.Defeated == 0 {
			b.Fatal("nothing defeated")
		}
	}
}

// BenchmarkSuiteWorkers1 runs the summary suite serially.
func BenchmarkSuiteWorkers1(b *testing.B) { benchSuiteWorkers(b, 1) }

// BenchmarkSuiteWorkers4 runs the summary suite on a 4-worker pool.
func BenchmarkSuiteWorkers4(b *testing.B) { benchSuiteWorkers(b, 4) }

// benchFALLWorkers measures the FALL candidate×polarity grid at a fixed
// attack worker count on one mid-size SFLL-HD instance.
func benchFALLWorkers(b *testing.B, workers int) {
	lr := ablationCase(b, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := fall.Attack(context.Background(), lr.Locked, fall.Options{
			H: 4, Analysis: fall.SlidingWindow, Workers: workers,
		})
		if err != nil || len(res.Keys) == 0 {
			b.Fatalf("attack failed: %v (%d keys)", err, len(res.Keys))
		}
	}
}

// BenchmarkFALLGridWorkers1 runs the FALL analysis grid serially.
func BenchmarkFALLGridWorkers1(b *testing.B) { benchFALLWorkers(b, 1) }

// BenchmarkFALLGridWorkers4 runs the FALL analysis grid on 4 workers.
func BenchmarkFALLGridWorkers4(b *testing.B) { benchFALLWorkers(b, 4) }

// benchFig5Workers measures a Fig. 5 panel regeneration at a fixed
// harness worker count.
func benchFig5Workers(b *testing.B, workers int) {
	cfg := benchConfig(3)
	cfg.Workers = workers
	cases, err := exp.BuildSuite(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		outs := exp.Fig5Panel(context.Background(), cases, exp.HD0, cfg)
		if len(outs) == 0 {
			b.Fatal("no outcomes")
		}
	}
}

// BenchmarkFig5Workers1 regenerates the HD0 panel serially.
func BenchmarkFig5Workers1(b *testing.B) { benchFig5Workers(b, 1) }

// BenchmarkFig5Workers4 regenerates the HD0 panel on a 4-worker pool.
func BenchmarkFig5Workers4(b *testing.B) { benchFig5Workers(b, 4) }

// --- Ablation benchmarks (DESIGN.md experiment E9) ---

func ablationCase(b *testing.B, h int) *lock.Result {
	b.Helper()
	rng := rand.New(rand.NewSource(11))
	orig := testcirc.Random(rng, 16, 200)
	lr, err := lock.SFLLHD(orig, lock.Options{KeySize: 16, H: h, Seed: 5, Optimize: true})
	if err != nil {
		b.Fatal(err)
	}
	return lr
}

func benchEncoding(b *testing.B, enc cnf.CardEncoding) {
	lr := ablationCase(b, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := fall.Attack(context.Background(), lr.Locked, fall.Options{H: 4, Analysis: fall.SlidingWindow, Enc: enc})
		if err != nil || len(res.Keys) == 0 {
			b.Fatalf("attack failed: %v (%d keys)", err, len(res.Keys))
		}
	}
}

// BenchmarkAblationEncodingAdderTree measures the SlidingWindow attack
// with the adder-tree Hamming-distance encoding.
func BenchmarkAblationEncodingAdderTree(b *testing.B) { benchEncoding(b, cnf.AdderTree) }

// BenchmarkAblationEncodingSeqCounter measures the same attack with the
// Sinz sequential-counter encoding.
func BenchmarkAblationEncodingSeqCounter(b *testing.B) { benchEncoding(b, cnf.SeqCounter) }

func benchPrefilter(b *testing.B, disable bool) {
	lr := ablationCase(b, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := fall.Attack(context.Background(), lr.Locked, fall.Options{H: 0, DisableSimPrefilter: disable})
		if err != nil || len(res.Keys) == 0 {
			b.Fatalf("attack failed: %v", err)
		}
	}
}

// BenchmarkAblationUnatenessWithPrefilter measures AnalyzeUnateness with
// the random-simulation binate pre-filter enabled (default).
func BenchmarkAblationUnatenessWithPrefilter(b *testing.B) { benchPrefilter(b, false) }

// BenchmarkAblationUnatenessNoPrefilter measures pure-SAT unateness
// checking.
func BenchmarkAblationUnatenessNoPrefilter(b *testing.B) { benchPrefilter(b, true) }

func benchKeyConfirm(b *testing.B, disableDDIP bool, keyBits int) {
	rng := rand.New(rand.NewSource(23))
	orig := testcirc.Random(rng, keyBits+2, 150)
	lr, err := lock.TTLock(orig, lock.Options{KeySize: keyBits, Seed: 9, Optimize: true})
	if err != nil {
		b.Fatal(err)
	}
	comp := map[string]bool{}
	for k, v := range lr.Key {
		comp[k] = !v
	}
	cands := []map[string]bool{comp, lr.Key}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		res, err := keyconfirm.Confirm(ctx, lr.Locked, cands, oracle.NewSim(orig), keyconfirm.Options{
			DisableDoubleDIP: disableDDIP,
		})
		cancel()
		if err != nil || !res.Confirmed {
			b.Fatalf("confirmation failed: %v %+v", err, res)
		}
	}
}

// BenchmarkAblationKeyConfirmDoubleDIP measures key confirmation with the
// double-DIP acceleration (12-bit TTLock key).
func BenchmarkAblationKeyConfirmDoubleDIP(b *testing.B) { benchKeyConfirm(b, false, 12) }

// BenchmarkAblationKeyConfirmPureAlg4 measures the paper's Algorithm 4
// verbatim on a deliberately small key (8 bits) where single-DIP
// convergence is feasible.
func BenchmarkAblationKeyConfirmPureAlg4(b *testing.B) { benchKeyConfirm(b, true, 8) }

// --- Serial vs portfolio (solver-engine racing) benchmarks ---

// benchSolverEngine solves PHP(8,7) — a restart/heuristic-sensitive
// UNSAT proof, the query class portfolio racing targets — on a single
// engine or an n-way portfolio.
func benchSolverEngine(b *testing.B, n int) {
	for i := 0; i < b.N; i++ {
		var e sat.Engine
		if n <= 1 {
			e = sat.New()
		} else {
			e = sat.NewPortfolio(sat.PortfolioConfigs(sat.Config{}, n), nil)
		}
		const p, holes = 8, 7
		vars := make([][]int, p)
		for pi := range vars {
			vars[pi] = make([]int, holes)
			for hi := range vars[pi] {
				vars[pi][hi] = e.NewVar()
			}
		}
		for pi := 0; pi < p; pi++ {
			lits := make([]sat.Lit, holes)
			for hi := 0; hi < holes; hi++ {
				lits[hi] = sat.PosLit(vars[pi][hi])
			}
			e.AddClause(lits...)
		}
		for hi := 0; hi < holes; hi++ {
			for a := 0; a < p; a++ {
				for bb := a + 1; bb < p; bb++ {
					e.AddClause(sat.NegLit(vars[a][hi]), sat.NegLit(vars[bb][hi]))
				}
			}
		}
		if e.Solve() != sat.Unsat {
			b.Fatal("PHP(8,7) must be UNSAT")
		}
	}
}

// BenchmarkSolverEngineSingle is the single-engine baseline for the
// portfolio benchmarks.
func BenchmarkSolverEngineSingle(b *testing.B) { benchSolverEngine(b, 1) }

// BenchmarkSolverEnginePortfolio3 races three configured engines per
// query (first verdict wins, losers cancelled).
func BenchmarkSolverEnginePortfolio3(b *testing.B) { benchSolverEngine(b, 3) }

// benchFALLSolver measures the FALL SlidingWindow attack with every
// candidate×polarity cell solving through the given portfolio width.
func benchFALLSolver(b *testing.B, portfolio int) {
	lr := ablationCase(b, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		setup := attack.NewSolverSetup(sat.Config{}, portfolio)
		res, err := fall.Attack(context.Background(), lr.Locked, fall.Options{
			H: 4, Analysis: fall.SlidingWindow, Solver: setup.Factory(),
		})
		if err != nil || len(res.Keys) == 0 {
			b.Fatalf("attack failed: %v (%d keys)", err, len(res.Keys))
		}
	}
}

// BenchmarkFALLSolverSingle runs the grid on default single engines.
func BenchmarkFALLSolverSingle(b *testing.B) { benchFALLSolver(b, 1) }

// BenchmarkFALLSolverPortfolio3 races a 3-engine portfolio per query in
// every grid cell.
func BenchmarkFALLSolverPortfolio3(b *testing.B) { benchFALLSolver(b, 3) }

// --- Substrate micro-benchmarks ---

// BenchmarkSATSolverPigeonhole exercises the CDCL core on PHP(8,7), a
// classic resolution-hard instance.
func BenchmarkSATSolverPigeonhole(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := sat.New()
		const p, holes = 8, 7
		vars := make([][]int, p)
		for pi := range vars {
			vars[pi] = make([]int, holes)
			for hi := range vars[pi] {
				vars[pi][hi] = s.NewVar()
			}
		}
		for pi := 0; pi < p; pi++ {
			lits := make([]sat.Lit, holes)
			for hi := 0; hi < holes; hi++ {
				lits[hi] = sat.PosLit(vars[pi][hi])
			}
			s.AddClause(lits...)
		}
		for hi := 0; hi < holes; hi++ {
			for a := 0; a < p; a++ {
				for bb := a + 1; bb < p; bb++ {
					s.AddClause(sat.NegLit(vars[a][hi]), sat.NegLit(vars[bb][hi]))
				}
			}
		}
		if s.Solve() != sat.Unsat {
			b.Fatal("PHP(8,7) must be UNSAT")
		}
	}
}

// benchHDPrefix freezes a FALL-sized Hamming-distance prefix: two
// copies of a cube-stripper candidate's cone from the ablation
// instance, their pairwise difference literals and the HD = 2h
// cardinality constraint — the instance SlidingWindow and Distance2H
// fork per grid cell.
func benchHDPrefix(b *testing.B) *sat.Frozen {
	const h = 4
	lr := ablationCase(b, h)
	seen := map[int]bool{}
	var compX []int
	for _, cp := range fall.FindComparators(lr.Locked) {
		if !seen[cp.Input] {
			seen[cp.Input] = true
			compX = append(compX, cp.Input)
		}
	}
	sort.Ints(compX)
	cands := fall.SupportMatch(lr.Locked, compX)
	if len(cands) == 0 {
		b.Fatal("no stripper candidate")
	}
	cone, _ := lr.Locked.Cone(cands[len(cands)-1])
	ins := cone.Inputs()
	st := sat.NewStream()
	e := cnf.NewEncoder(st)
	lits1 := e.EncodeCircuitWith(cone, nil)
	lits2 := e.EncodeCircuitWith(cone, nil)
	ds := e.XorPairs(cnf.InputLits(ins, lits1), cnf.InputLits(ins, lits2))
	e.ExactlyK(ds, 2*h, cnf.AdderTree)
	return st.Freeze()
}

// BenchmarkSolverLoadFrozen compares the two ways a fresh internal
// solver takes a frozen prefix: replaying it clause by clause, and the
// native LoadFrozen copy of the prefix's cached image (built once,
// before the timer).
func BenchmarkSolverLoadFrozen(b *testing.B) {
	frozen := benchHDPrefix(b)
	b.Run("replay", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			frozen.Replay(sat.New())
		}
	})
	b.Run("load", func(b *testing.B) {
		sat.New().LoadFrozen(frozen) // build the image
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sat.New().LoadFrozen(frozen)
		}
	})
}

// BenchmarkStrash measures AIG structural hashing on a Table I-scale
// netlist (the paper's ABC optimization step).
func BenchmarkStrash(b *testing.B) {
	spec, _ := genbench.ByName("des")
	orig, err := genbench.Generate(spec, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lr, err := lock.SFLLHD(orig, lock.Options{KeySize: 64, H: 16, Seed: 2, Optimize: true})
		if err != nil {
			b.Fatal(err)
		}
		if lr.Locked.NumGates() == 0 {
			b.Fatal("empty locked circuit")
		}
	}
}

// benchConeEngine loads the SFLL-HD cube-stripper shell [HD(x,c) == h]
// over an n-input cone into a fresh engine and runs the two
// FALL-shaped query classes against it: a SAT on-set witness query and
// an UNSAT exclusion query (the protected cube itself cannot sit on the
// shell). This is the query mix on which the BDD engine competes with
// CDCL — exact reasoning on small structured cones — and the benchmark
// pair BenchmarkConeSAT/BenchmarkConeBDD locates the crossover cone
// size recorded in the README.
func benchConeEngine(b *testing.B, n int, mk func() sat.Engine) {
	rng := rand.New(rand.NewSource(int64(n)))
	cube := make([]bool, n)
	for i := range cube {
		cube[i] = rng.Intn(2) == 1
	}
	h := n / 4
	if h < 1 {
		h = 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := mk()
		enc := cnf.NewEncoder(e)
		xs := make([]sat.Lit, n)
		cs := make([]sat.Lit, n)
		onCube := make([]sat.Lit, n)
		for j := 0; j < n; j++ {
			xs[j] = enc.NewLit()
			cs[j] = enc.ConstLit(cube[j])
			onCube[j] = attack.LitWithValue(xs[j], cube[j])
		}
		enc.HammingEq(xs, cs, h, cnf.AdderTree)
		got := e.Solve()
		if be, ok := e.(*bddengine.Engine); ok && got == sat.Unknown && be.LimitReached() {
			// The engine's designed fallthrough: report where the node
			// budget gives out instead of failing the benchmark run.
			b.Skipf("n=%d: ROBDD node budget exceeded (portfolio falls through to SAT here)", n)
		}
		if got != sat.Sat {
			b.Fatalf("n=%d: shell on-set query: %v", n, got)
		}
		if got := e.SolveAssuming(onCube); got != sat.Unsat {
			b.Fatalf("n=%d: cube exclusion query: %v", n, got)
		}
	}
}

// BenchmarkConeSAT runs the cube-stripper cone queries on the internal
// CDCL engine across cone sizes.
func BenchmarkConeSAT(b *testing.B) {
	for _, n := range []int{8, 12, 16, 20, 24, 32} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			benchConeEngine(b, n, func() sat.Engine { return sat.New() })
		})
	}
}

// BenchmarkConeBDD runs the same queries on the BDD engine (default
// node budget; the shell's ROBDD is O(n·h) nodes, but it is built from
// the Tseitin clause stream, which is the honest comparison — both
// engines see the identical sat.Engine interface).
func BenchmarkConeBDD(b *testing.B) {
	for _, n := range []int{8, 12, 16, 20, 24, 32} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			benchConeEngine(b, n, func() sat.Engine { return bddengine.New(0) })
		})
	}
}

// BenchmarkSATAttackIterations measures per-iteration cost of the SAT
// attack loop (capped) on a mid-size TTLock instance.
func BenchmarkSATAttackIterations(b *testing.B) {
	rng := rand.New(rand.NewSource(31))
	orig := testcirc.Random(rng, 18, 200)
	lr, err := lock.TTLock(orig, lock.Options{KeySize: 16, Seed: 3, Optimize: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := satattack.Run(context.Background(), lr.Locked, oracle.NewSim(orig), satattack.Options{MaxIterations: 20})
		if err != nil {
			b.Fatal(err)
		}
		if res.Iterations == 0 {
			b.Fatal("no iterations performed")
		}
	}
}

// --- Fleet scheduling benchmarks (campaign work stealing) ---

// benchFleetPlan is the shared heterogeneous-fleet fixture: a small
// summary campaign whose every solver query runs through the process
// stub, so a wrapper script that sleeps before answering turns one
// worker into a slow machine without touching any verdict.
func benchFleetPlan(b *testing.B) (*campaign.Plan, string, string) {
	b.Helper()
	if runtime.GOOS == "windows" {
		b.Skip("slow-worker wrapper is a shell script")
	}
	stub := testsolver.Build(b)
	slow := filepath.Join(b.TempDir(), "slowstub")
	// 350ms per query makes the slow worker ~9x slower per case than
	// the plain stub — slow enough that the fast worker drains every
	// unclaimed case before the slow worker's first claim completes,
	// which is the steady state of a real heterogeneous fleet.
	body := "#!/bin/sh\nexec " + stub + " -sleep=350ms \"$@\"\n"
	if err := os.WriteFile(slow, []byte(body), 0o755); err != nil {
		b.Fatal(err)
	}
	cfg := campaign.Config{
		Specs:      genbench.Scaled(genbench.TableI, 64, 6)[:2],
		Seed:       2019,
		SATIterCap: 40,
		Solver:     "process:cmd=" + stub,
		Suites:     []string{"summary"},
	}
	plan, err := campaign.NewPlan(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return plan, stub, slow
}

// benchFleet runs a two-worker fleet (one ~8x slower via the sleeping
// stub) over the fixture plan and returns once both workers exit; the
// measured time is the fleet makespan. run is invoked once per worker
// with that worker's options.
func benchFleet(b *testing.B, plan *campaign.Plan, dir string, opts [2]campaign.RunOptions) {
	b.Helper()
	var wg sync.WaitGroup
	errs := make([]error, len(opts))
	for w := range opts {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			_, errs[w] = campaign.Run(context.Background(), plan, dir, opts[w])
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			b.Fatalf("worker %d: %v", w, err)
		}
	}
}

// BenchmarkFleetMakespan compares the two fleet schedulers on a
// heterogeneous two-worker fleet: static index-modulo sharding pins
// half the plan to the slow machine, so the fleet waits on it; claim-
// file work stealing lets the fast machine drain the shared directory
// while the slow one contributes what it can. The modulo/steal
// ns_per_op ratio is the scheduling win (BENCH_campaign.json).
func BenchmarkFleetMakespan(b *testing.B) {
	plan, stub, slow := benchFleetPlan(b)
	slowSpec := "process:cmd=" + slow
	fastSpec := "process:cmd=" + stub
	b.Run("modulo", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchFleet(b, plan, b.TempDir(), [2]campaign.RunOptions{
				{ShardIndex: 0, ShardCount: 2, Workers: 1, SolverOverride: slowSpec},
				{ShardIndex: 1, ShardCount: 2, Workers: 1, SolverOverride: fastSpec},
			})
		}
	})
	b.Run("steal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchFleet(b, plan, b.TempDir(), [2]campaign.RunOptions{
				{Steal: true, Workers: 1, Owner: "slow", Lease: time.Minute, SolverOverride: slowSpec},
				{Steal: true, Workers: 1, Owner: "fast", Lease: time.Minute, SolverOverride: fastSpec},
			})
		}
	})
}

// benchMemoFrozen builds the frozen prefix the memo benchmarks query:
// PHP(7,6), a non-trivial UNSAT instance, so a miss pays a real solve
// while a hit is a pure cache lookup.
func benchMemoFrozen() *sat.Frozen {
	s := sat.NewStream()
	const p, holes = 7, 6
	vars := make([][]int, p)
	for pi := range vars {
		vars[pi] = make([]int, holes)
		for hi := range vars[pi] {
			vars[pi][hi] = s.NewVar()
		}
	}
	for pi := 0; pi < p; pi++ {
		lits := make([]sat.Lit, holes)
		for hi := 0; hi < holes; hi++ {
			lits[hi] = sat.PosLit(vars[pi][hi])
		}
		s.AddClause(lits...)
	}
	for hi := 0; hi < holes; hi++ {
		for a := 0; a < p; a++ {
			for bb := a + 1; bb < p; bb++ {
				s.AddClause(sat.NegLit(vars[a][hi]), sat.NegLit(vars[bb][hi]))
			}
		}
	}
	return s.Freeze()
}

// memoBenchSolve runs the benchmark query through one fresh MemoEngine
// over m and returns which tier answered it.
func memoBenchSolve(b *testing.B, frozen *sat.Frozen, m *sat.Memo) sat.MemoTier {
	e := sat.NewMemoEngine(m, nil, sat.New())
	sat.Prime(e, frozen)
	if st := e.Solve(); st != sat.Unsat {
		b.Fatalf("PHP(7,6): %v, want Unsat", st)
	}
	return e.LastTier()
}

// BenchmarkMemoHit measures an in-memory (L1) verdict-cache hit: key
// hashing plus one map lookup, no solver.
func BenchmarkMemoHit(b *testing.B) {
	frozen := benchMemoFrozen()
	memo := sat.NewMemo(0)
	memoBenchSolve(b, frozen, memo)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tier := memoBenchSolve(b, frozen, memo); tier != sat.TierMemory {
			b.Fatalf("tier %v, want memory", tier)
		}
	}
}

// BenchmarkMemoMiss measures the same query uncached — the full solve
// the memo tiers amortize (plus store overhead).
func BenchmarkMemoMiss(b *testing.B) {
	frozen := benchMemoFrozen()
	for i := 0; i < b.N; i++ {
		if tier := memoBenchSolve(b, frozen, sat.NewMemo(0)); tier != sat.TierMiss {
			b.Fatalf("tier %v, want miss", tier)
		}
	}
}

// BenchmarkDiskMemoColdWarm measures the persistent tier's two ends:
// cold (miss + record write-through) vs warm (a fresh process — empty
// memory tier — answering from the on-disk store).
func BenchmarkDiskMemoColdWarm(b *testing.B) {
	frozen := benchMemoFrozen()
	b.Run("cold", func(b *testing.B) {
		dir := b.TempDir()
		for i := 0; i < b.N; i++ {
			d, err := sat.OpenDiskMemo(fmt.Sprintf("%s/%d", dir, i), 0)
			if err != nil {
				b.Fatal(err)
			}
			m := sat.NewMemo(0)
			m.AttachDisk(d)
			if tier := memoBenchSolve(b, frozen, m); tier != sat.TierMiss {
				b.Fatalf("tier %v, want miss", tier)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		dir := b.TempDir()
		d, err := sat.OpenDiskMemo(dir, 0)
		if err != nil {
			b.Fatal(err)
		}
		seed := sat.NewMemo(0)
		seed.AttachDisk(d)
		memoBenchSolve(b, frozen, seed)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// A fresh store handle per iteration models a fresh process:
			// the open-time walk plus one record read replace the solve.
			d2, err := sat.OpenDiskMemo(dir, 0)
			if err != nil {
				b.Fatal(err)
			}
			m := sat.NewMemo(0)
			m.AttachDisk(d2)
			if tier := memoBenchSolve(b, frozen, m); tier != sat.TierDisk {
				b.Fatalf("tier %v, want disk", tier)
			}
		}
	})
}
