package attack

import (
	"context"
	"strings"
	"testing"

	"repro/internal/sat"
)

func TestSolverSetupFromFlags(t *testing.T) {
	// Both unset: nil setup (the default engine).
	s, err := SolverSetupFromFlags("", "")
	if err != nil || s != nil {
		t.Fatalf("unset flags: %+v, %v", s, err)
	}
	// Integer width over an internal base.
	s, err = SolverSetupFromFlags("seed=3,restart=geometric", "3")
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Specs) != 3 || s.Specs[0].Config.Seed != 3 || s.Specs[0].Config.Restart != sat.RestartGeometric {
		t.Errorf("width form: %+v", s.Specs)
	}
	if !strings.HasPrefix(s.Label(), "portfolio(seed=3,restart=geometric | ") {
		t.Errorf("width label: %q", s.Label())
	}
	// "0"/"1" widths with a default solver collapse to nil too.
	if s, err = SolverSetupFromFlags("", "1"); err != nil || s != nil {
		t.Errorf("width 1, default solver: %+v, %v", s, err)
	}
	// Single non-internal engine via -solver.
	s, err = SolverSetupFromFlags("bdd:max-nodes=4096", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Specs) != 1 || s.Specs[0].Kind != sat.EngineBDD || s.Label() != "bdd:max-nodes=4096" {
		t.Errorf("bdd solver: %+v label %q", s, s.Label())
	}
	if s.WinStats() != nil {
		t.Error("single engine must not account")
	}
	// Heterogeneous list; bare internal inherits the -solver base.
	s, err = SolverSetupFromFlags("seed=5", "internal,bdd")
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Specs) != 2 || s.Specs[0].Config.Seed != 5 || s.Specs[1].Kind != sat.EngineBDD {
		t.Errorf("list form: %+v", s.Specs)
	}
	if !strings.HasPrefix(s.Label(), "portfolio(") || !strings.Contains(s.Label(), "bdd") {
		t.Errorf("list label: %q", s.Label())
	}
	// Errors: deriving variants of an external engine, non-internal base
	// with a list, bad grammar.
	for _, bad := range [][2]string{
		{"kissat", "3"},
		{"kissat", "internal,bdd"},
		{"frobnicate=1", ""},
		{"", "internal,frobnicate=1"},
		{"", "internal,bdd:nodes=x"},
		{"", "internal,internal"},
	} {
		if s, err := SolverSetupFromFlags(bad[0], bad[1]); err == nil {
			t.Errorf("flags %q/%q accepted: %+v", bad[0], bad[1], s)
		}
	}
}

func TestSolverSetupCheck(t *testing.T) {
	var nilSetup *SolverSetup
	if err := nilSetup.Check(); err != nil {
		t.Errorf("nil setup: %v", err)
	}
	ok := NewSolverSetupEngines([]sat.EngineSpec{sat.InternalSpec(sat.Config{}), {Kind: sat.EngineBDD}})
	if err := ok.Check(); err != nil {
		t.Errorf("no process engines: %v", err)
	}
	missing := NewSolverSetupEngines([]sat.EngineSpec{{Kind: sat.EngineProcess, Cmd: "definitely-not-a-sat-solver-7f3a"}})
	if err := missing.Check(); err == nil {
		t.Error("missing binary not reported")
	}
	// Resolving flags checks too.
	if s, err := SolverSetupFromFlags("definitely-not-a-sat-solver-7f3a", ""); err == nil {
		t.Errorf("flag resolution accepted a missing binary: %+v", s)
	}
}

// loadPigeonhole fills an engine with an UNSAT pigeonhole instance.
func loadPigeonhole(e sat.Engine, p, h int) {
	v := make([][]int, p)
	for i := range v {
		v[i] = make([]int, h)
		for j := range v[i] {
			v[i][j] = e.NewVar()
		}
	}
	for i := 0; i < p; i++ {
		lits := make([]sat.Lit, h)
		for j := 0; j < h; j++ {
			lits[j] = sat.PosLit(v[i][j])
		}
		e.AddClause(lits...)
	}
	for j := 0; j < h; j++ {
		for i1 := 0; i1 < p; i1++ {
			for i2 := i1 + 1; i2 < p; i2++ {
				e.AddClause(sat.NegLit(v[i1][j]), sat.NegLit(v[i2][j]))
			}
		}
	}
}

// TestHeterogeneousFactoryVerdicts: a specs-path factory builds racing
// portfolios whose verdicts match the internal engine, and accounts
// races into the setup ledger under spec labels.
func TestHeterogeneousFactoryVerdicts(t *testing.T) {
	setup := NewSolverSetupEngines([]sat.EngineSpec{
		sat.InternalSpec(sat.Config{}),
		{Kind: sat.EngineBDD, MaxNodes: 1 << 18},
	})
	f := setup.Factory()
	e := f(context.Background())
	loadPigeonhole(e, 5, 4)
	if got := e.Solve(); got != sat.Unsat {
		t.Fatalf("verdict %v, want UNSAT", got)
	}
	stats := setup.WinStats()
	if len(stats) != 2 || stats[0].Config != "seed=0" || stats[1].Config != "bdd:max-nodes=262144" {
		t.Fatalf("stats labels: %+v", stats)
	}
	if stats[0].Races+stats[1].Races == 0 || stats[0].Wins+stats[1].Wins != 1 {
		t.Errorf("accounting: %+v", stats)
	}
}

// TestSolverSetupWidthResolution: an integer -portfolio resolves to one
// internal spec per sat.PortfolioConfigs variant — labeled exactly as
// the configs — and races them in one portfolio; every spelling of the
// default engine resolves to a nil setup.
func TestSolverSetupWidthResolution(t *testing.T) {
	s, err := SolverSetupFromFlags("seed=3", "3")
	if err != nil {
		t.Fatal(err)
	}
	configs := sat.PortfolioConfigs(sat.Config{Seed: 3}, 3)
	labels := s.EngineLabels()
	if len(s.Specs) != 3 || len(labels) != 3 {
		t.Fatalf("specs %+v, labels %v", s.Specs, labels)
	}
	for i, c := range configs {
		if s.Specs[i].Kind != sat.EngineInternal || labels[i] != c.String() {
			t.Errorf("engine %d: %+v labeled %q, want internal %q", i, s.Specs[i], labels[i], c.String())
		}
	}

	single := sat.New()
	loadPigeonhole(single, 5, 4)
	want := single.Solve()
	e := s.Factory()(context.Background())
	p, ok := unwrapEngine(e).(*sat.Portfolio)
	if !ok || p.Size() != 3 {
		t.Fatalf("factory built %T, want a 3-member *sat.Portfolio", unwrapEngine(e))
	}
	loadPigeonhole(e, 5, 4)
	if got := e.Solve(); got != want {
		t.Errorf("portfolio verdict %v, single engine %v", got, want)
	}
	stats := s.WinStats()
	if len(stats) != 3 || stats[0].Races != 1 || stats[0].Wins+stats[1].Wins+stats[2].Wins != 1 {
		t.Errorf("win stats: %+v", stats)
	}

	for _, flags := range [][2]string{
		{"", ""}, {"seed=0", ""}, {"internal", ""}, {"internal:seed=0", "1"}, {"", "0"}, {" ", " 1 "},
	} {
		if s, err := SolverSetupFromFlags(flags[0], flags[1]); err != nil || s != nil {
			t.Errorf("default engine %q/%q: %+v, %v", flags[0], flags[1], s, err)
		}
	}
}
