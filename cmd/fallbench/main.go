// Command fallbench regenerates the paper's evaluation artifacts:
//
//	fallbench -table1                 # Table I: benchmark statistics
//	fallbench -fig5 hd0|h8|h4|h3      # Fig. 5 panels: cactus series
//	fallbench -fig6                   # Fig. 6: key confirmation vs SAT attack
//	fallbench -summary                # §VI-B: defeated / unique-key stats
//
// Scale control:
//
//	-scale paper   full Table I dimensions (keys up to 64)
//	-scale small   1/8 gate counts, keys capped at 16 (default)
//	-scale tiny    1/16 gate counts, keys capped at 12, 6 circuits
//	-timeout 5s    per-attack budget (paper: 1000 s)
//	-workers N     suite cases run concurrently (default: all cores;
//	               output is identical for every worker count)
//	-solver SPEC   solver engine spec: an internal config
//	               (seed=3,restart=geometric), an external DIMACS
//	               solver (kissat, process:cmd=/path), or the BDD
//	               engine (bdd:max-nodes=1<<20)
//	-portfolio P   race engines per solver query: an integer derives N
//	               internal variants, a list (internal,kissat,bdd)
//	               races heterogeneous backends; decided verdicts are
//	               identical for every mix
//	-memo          share a cross-query verdict cache across every attack
//	               and scoring miter (verdicts unchanged; hit statistics
//	               and per-case encode/solve splits land on stderr)
//	-memo-dir D    persist the verdict cache in D (implies -memo): reruns
//	               and concurrent shards pointed at the same directory
//	               answer repeated queries from disk; verdicts unchanged
//	-memo-max-bytes N  size cap for the on-disk cache before
//	               least-recently-used records are evicted (0 = 1 GiB)
//	-trace F       write an NDJSON span trace of the whole suite to F
//	               (stdout unchanged; analyze with cmd/tracestat)
//	-cpuprofile F  write a CPU profile of the whole run to F
//	-memprofile F  write a heap profile, taken at the end of the run, to F
//	               (both in runtime/pprof format for go tool pprof;
//	               stdout unchanged)
//
// Results go to stdout, diagnostics — including the aggregated
// per-engine portfolio win statistics — to stderr, so racing runs diff
// clean against single-engine runs. The exit code is 0 on success, 1 on
// a hard error, and 2 when some attack runs failed (their rows are
// still printed). To split a run across machines, use cmd/campaign with
// the same flags — a merged campaign renders byte-identical output to
// this command.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/attack"
	"repro/internal/cnf"
	"repro/internal/exp"
	"repro/internal/genbench"
	"repro/internal/obs"
)

func main() {
	var (
		table1    = flag.Bool("table1", false, "regenerate Table I")
		fig5      = flag.String("fig5", "", "regenerate a Fig. 5 panel: hd0 | h8 | h4 | h3")
		fig6      = flag.Bool("fig6", false, "regenerate Fig. 6")
		summary   = flag.Bool("summary", false, "regenerate the §VI-B summary statistics")
		scale     = flag.String("scale", "small", "experiment scale: paper | medium | small | tiny")
		timeout   = flag.Duration("timeout", 5*time.Second, "per-attack time budget")
		iterCap   = flag.Int("satcap", 500, "SAT attack iteration cap (0 = none)")
		seed      = flag.Int64("seed", 2019, "base seed")
		enc       = flag.String("enc", "adder", "cardinality encoding: adder | seq")
		workers   = flag.Int("workers", runtime.GOMAXPROCS(0), "suite cases run concurrently (1 = serial; output is identical either way)")
		solver    = flag.String("solver", "", "solver engine spec for every attack and scoring miter (empty = baseline CDCL)")
		portfolio = flag.String("portfolio", "", "race engines per solver query: integer width or engine list like internal,kissat,bdd")
		memo      = flag.Bool("memo", false, "share a cross-query verdict cache across every attack and scoring miter (verdicts unchanged; hit statistics on stderr)")
		memoDir   = flag.String("memo-dir", "", "persist the verdict cache in DIR, shared across runs (implies -memo; verdicts unchanged)")
		memoMax   = flag.Int64("memo-max-bytes", 0, "size cap for -memo-dir before LRU eviction (0 = 1 GiB)")
		tracePath = flag.String("trace", "", "write an NDJSON span trace of the whole suite to FILE (stdout unchanged; analyze with tracestat)")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the run to FILE (stdout unchanged; analyze with go tool pprof)")
		memProf   = flag.String("memprofile", "", "write a heap profile taken at the end of the run to FILE (stdout unchanged)")
	)
	flag.Parse()

	cfg := exp.Config{Seed: *seed, Timeout: *timeout, SATIterCap: *iterCap, Workers: *workers}
	var err error
	if cfg.Specs, err = genbench.ParseScale(*scale); err != nil {
		fatalf("%v", err)
	}
	if cfg.Enc, err = cnf.ParseCardEncoding(*enc); err != nil {
		fatalf("%v", err)
	}
	if err := cfg.ApplySolverFlags(*solver, *portfolio); err != nil {
		fatalf("%v", err)
	}
	if cfg.Memo, err = attack.NewMemoFromFlags(*memo, *memoDir, *memoMax); err != nil {
		fatalf("%v", err)
	}
	var tracer *obs.Tracer
	if *tracePath != "" {
		var err error
		if tracer, err = obs.NewFileTracer(*tracePath); err != nil {
			fatalf("trace: %v", err)
		}
		cfg.Trace = tracer.Start("fallbench", "scale", *scale, "seed", *seed)
	}

	var level exp.HLevel
	if *fig5 != "" {
		if level, err = exp.ParseHLevel(*fig5); err != nil {
			fatalf("unknown fig5 panel %q", *fig5)
		}
	}
	if !*table1 && *fig5 == "" && !*fig6 && !*summary {
		flag.Usage()
		os.Exit(1)
	}

	var cpuFile *os.File
	if *cpuProf != "" {
		if cpuFile, err = os.Create(*cpuProf); err != nil {
			fatalf("cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			fatalf("cpuprofile: %v", err)
		}
	}

	// Build the locked suite once; every requested report shares it.
	ctx := context.Background()
	cases, err := exp.BuildSuite(cfg)
	if err != nil {
		fatalf("suite: %v", err)
	}

	failed := 0
	var allOuts []exp.Outcome
	var allFigs []exp.Fig6CaseResult
	if *table1 {
		rows, err := exp.Table1FromCases(cases, cfg)
		if err != nil {
			fatalf("table1: %v", err)
		}
		fmt.Println("=== Table I (regenerated) ===")
		fmt.Print(exp.FormatTable1(rows))
	}
	if *fig5 != "" {
		fmt.Printf("=== Fig. 5 panel %s (%s) ===\n", *fig5, level.Label())
		outs := exp.Fig5Panel(ctx, cases, level, cfg)
		for _, o := range outs {
			if o.Failed {
				failed++
			}
		}
		allOuts = append(allOuts, outs...)
		fmt.Print(exp.FormatCactus(outs, exp.Fig5AttackNames(level)))
	}
	if *fig6 {
		fmt.Println("=== Fig. 6: key confirmation vs SAT attack ===")
		results := exp.Fig6Results(ctx, cases, cfg)
		for _, r := range results {
			if r.Failed() {
				failed++
			}
		}
		allFigs = append(allFigs, results...)
		fmt.Print(exp.FormatFig6(exp.AggregateFig6(results)))
	}
	if *summary {
		fmt.Println("=== §VI-B summary ===")
		outs := exp.SummaryOutcomes(ctx, cases, cfg)
		s := exp.AggregateSummary(outs)
		failed += s.Failed
		allOuts = append(allOuts, outs...)
		fmt.Print(exp.FormatSummary(s))
	}
	// Per-case encode/solve wall-time split (recorded whenever a solver
	// setup exists): solve is the time spent inside the SAT engines, the
	// remainder is encoding and attack bookkeeping. Stderr like every
	// diagnostic, so stdout diffs stay clean.
	printSplit := func(label string, total time.Duration, solveNS int64) {
		if solveNS <= 0 {
			return
		}
		encode := total - time.Duration(solveNS)
		if encode < 0 {
			encode = 0
		}
		fmt.Fprintf(os.Stderr, "case %-32s encode=%-12v solve=%v\n",
			label, encode.Round(time.Microsecond), time.Duration(solveNS).Round(time.Microsecond))
	}
	for _, o := range allOuts {
		printSplit(fmt.Sprintf("%s/%s/%s", o.Circuit, o.Level.Token(), o.Attack), o.Time, o.SolveNS)
	}
	for i := range allFigs {
		r := &allFigs[i]
		printSplit(fmt.Sprintf("%s/%s/keyconfirm", r.Circuit, r.Level.Token()), r.KCElapsed, r.KCSolveNS)
		printSplit(fmt.Sprintf("%s/%s/%s", r.SA.Circuit, r.SA.Level.Token(), r.SA.Attack), r.SA.Time, r.SA.SolveNS)
	}
	// Racing statistics go to stderr: stdout must stay verdict-only so
	// portfolio runs diff byte-identical against single-engine runs.
	attack.FprintStats(os.Stderr, exp.WinStats(allOuts, allFigs))
	if cfg.Memo != nil {
		attack.FprintMemoSummary(os.Stderr, cfg.Memo, cfg.Memo.Stats(), cfg.Memo.Len())
	}
	// Traces and profiles are closed before the failure exit path
	// (os.Exit skips defers).
	if tracer != nil {
		cfg.Trace.End()
		if err := tracer.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "fallbench: trace: %v\n", err)
		}
	}
	if cpuFile != nil {
		pprof.StopCPUProfile()
		if err := cpuFile.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "fallbench: cpuprofile: %v\n", err)
		}
	}
	if *memProf != "" {
		if err := writeHeapProfile(*memProf); err != nil {
			fmt.Fprintf(os.Stderr, "fallbench: memprofile: %v\n", err)
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "fallbench: %d attack run(s) failed\n", failed)
		os.Exit(2)
	}
}

// writeHeapProfile writes the heap profile after a GC, so it reflects
// the live heap at the end of the run.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "fallbench: "+format+"\n", args...)
	os.Exit(1)
}
