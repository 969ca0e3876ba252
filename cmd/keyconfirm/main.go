// Command keyconfirm runs the key confirmation algorithm (paper §V) on a
// locked BENCH netlist: given candidate key files (keyinputN=0/1 lines,
// as written by lockgen or fallattack output redirection), it confirms
// which candidate (if any) is consistent with the oracle.
//
// Usage:
//
//	keyconfirm -locked locked.bench -oracle original.bench key1.txt key2.txt
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/attack"
	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/keyconfirm"
	"repro/internal/obs"
	"repro/internal/oracle"
)

func main() {
	var (
		lockedPath = flag.String("locked", "", "locked circuit in BENCH format")
		oraclePath = flag.String("oracle", "", "original circuit in BENCH format (simulated activated IC)")
		timeout    = flag.Duration("timeout", 1000*time.Second, "time budget (0 = none)")
		pureAlg4   = flag.Bool("pure", false, "disable the double-DIP acceleration (paper Algorithm 4 verbatim)")
		workers    = flag.Int("workers", runtime.GOMAXPROCS(0), "key-space partitions searched concurrently in phi=true mode (1 = serial)")
		solver     = flag.String("solver", "", "solver engine spec, e.g. seed=3,restart=geometric | kissat | bdd:max-nodes=1<<20 (empty = baseline CDCL)")
		portfolio  = flag.String("portfolio", "", "race engines per query: an integer derives N internal variants, a list like internal,kissat,bdd races heterogeneous backends")
		memo       = flag.Bool("memo", false, "share a cross-query verdict cache across the P/Q/D solvers (verdicts unchanged; hit statistics on stderr)")
		memoDir    = flag.String("memo-dir", "", "persist the verdict cache in DIR, shared across runs (implies -memo; verdicts unchanged)")
		memoMax    = flag.Int64("memo-max-bytes", 0, "size cap for -memo-dir before LRU eviction (0 = 1 GiB)")
		tracePath  = flag.String("trace", "", "write an NDJSON span trace of the run to FILE (verdicts and stdout unchanged; analyze with tracestat)")
	)
	flag.Parse()
	if *lockedPath == "" || *oraclePath == "" {
		fatalf("need -locked FILE and -oracle FILE")
	}
	locked := parse(*lockedPath)
	orig := parse(*oraclePath)

	var cands []attack.Key
	for _, path := range flag.Args() {
		k, err := attack.ReadKeyFile(path)
		if err != nil {
			fatalf("%v", err)
		}
		cands = append(cands, k)
	}
	if len(cands) == 0 {
		fmt.Fprintln(os.Stderr, "keyconfirm: no candidate key files; running with phi=true (full SAT attack mode)")
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	setup, err := attack.SolverSetupFromFlags(*solver, *portfolio)
	if err != nil {
		fatalf("%v", err)
	}
	if m, err := attack.NewMemoFromFlags(*memo, *memoDir, *memoMax); err != nil {
		fatalf("%v", err)
	} else if m != nil {
		if setup == nil {
			setup = &attack.SolverSetup{}
		}
		setup.Memo = m
	}
	var tracer *obs.Tracer
	var root *obs.Span
	if *tracePath != "" {
		tracer, err = obs.NewFileTracer(*tracePath)
		if err != nil {
			fatalf("trace: %v", err)
		}
		root = tracer.Start("keyconfirm", "locked", *lockedPath, "candidates", len(cands))
		if setup == nil {
			setup = &attack.SolverSetup{}
		}
		setup.TraceTo(root)
	}
	ctx = obs.With(ctx, root)
	atk := keyconfirm.New(keyconfirm.Options{DisableDoubleDIP: *pureAlg4})
	res, err := atk.Run(ctx, attack.Target{
		Locked:     locked,
		Oracle:     oracle.NewSim(orig),
		Candidates: cands,
		Workers:    *workers,
		Solver:     setup.Factory(),
	})
	if err != nil {
		fatalf("%v", err)
	}
	setup.FprintWinStats(os.Stderr)
	if st := setup.MemoStats(); st != nil {
		attack.FprintMemoSummary(os.Stderr, setup.Memo, *st, -1)
	}
	setup.Close()
	if tracer != nil {
		// Closed after the session spans and before the os.Exit paths.
		root.Set("status", res.Status.String())
		root.End()
		if err := tracer.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "keyconfirm: trace: %v\n", err)
		}
	}
	fmt.Printf("status: %s, iterations: %d, oracle queries: %d, elapsed: %v\n",
		res.Status, res.Iterations, res.OracleQueries, res.Elapsed.Round(time.Millisecond))
	if res.Status == attack.StatusTimeout {
		fmt.Println("timed out before a verdict")
		os.Exit(2)
	}
	if !res.UniqueKey() {
		fmt.Println("⊥ — no candidate key is consistent with the oracle")
		os.Exit(3)
	}
	key := res.Keys[0]
	fmt.Println("confirmed key:")
	names := make([]string, 0, len(key))
	for n := range key {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := 0
		if key[n] {
			v = 1
		}
		fmt.Printf("  %s=%d\n", n, v)
	}
}

func parse(path string) *circuit.Circuit {
	f, err := os.Open(path)
	if err != nil {
		fatalf("%v", err)
	}
	defer f.Close()
	c, err := bench.Parse(f, path)
	if err != nil {
		fatalf("parse %s: %v", path, err)
	}
	return c
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "keyconfirm: "+format+"\n", args...)
	os.Exit(1)
}
