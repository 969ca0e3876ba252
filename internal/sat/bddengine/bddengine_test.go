package bddengine

import (
	"context"
	"testing"

	"repro/internal/sat"
)

func pigeonhole(e sat.Engine, p, h int) {
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

func xorChain(e sat.Engine, n int) []int {
	vars := make([]int, n)
	for i := range vars {
		vars[i] = e.NewVar()
	}
	for i := 0; i+1 < n; i++ {
		e.AddClause(sat.PosLit(vars[i]), sat.PosLit(vars[i+1]))
		e.AddClause(sat.NegLit(vars[i]), sat.NegLit(vars[i+1]))
	}
	e.AddClause(sat.PosLit(vars[0]))
	return vars
}

// TestVerdictsMatchInternal: the BDD engine agrees with the internal
// CDCL engine on the instance table, and its SAT models satisfy the
// formula (models may legitimately differ between backends).
func TestVerdictsMatchInternal(t *testing.T) {
	type inst struct {
		name string
		load func(e sat.Engine) [][]sat.Lit
	}
	collect := func(load func(e sat.Engine)) func(e sat.Engine) [][]sat.Lit {
		return func(e sat.Engine) [][]sat.Lit {
			rec := &recorder{Engine: e}
			load(rec)
			return rec.clauses
		}
	}
	insts := []inst{
		{"php54-unsat", collect(func(e sat.Engine) { pigeonhole(e, 5, 4) })},
		{"php44-sat", collect(func(e sat.Engine) { pigeonhole(e, 4, 4) })},
		{"xor-chain-sat", collect(func(e sat.Engine) { xorChain(e, 10) })},
	}
	for _, in := range insts {
		ref := sat.New()
		in.load(ref)
		want := ref.Solve()

		e := New(0)
		clauses := in.load(e)
		got := e.Solve()
		if got != want {
			t.Fatalf("%s: bdd %v, internal %v", in.name, got, want)
		}
		if got == sat.Sat {
			for ci, cl := range clauses {
				satisfied := false
				for _, l := range cl {
					if e.LitTrue(l) {
						satisfied = true
						break
					}
				}
				if !satisfied {
					t.Errorf("%s: model violates clause %d", in.name, ci)
				}
			}
		}
	}
}

// recorder wraps an engine and remembers the clause stream.
type recorder struct {
	sat.Engine
	clauses [][]sat.Lit
}

func (r *recorder) AddClause(lits ...sat.Lit) bool {
	r.clauses = append(r.clauses, append([]sat.Lit(nil), lits...))
	return r.Engine.AddClause(lits...)
}

// TestSolveAssuming: assumptions flip verdicts per call, leave the
// cached conjunction intact, and appear in the model.
func TestSolveAssuming(t *testing.T) {
	e := New(0)
	x, y := e.NewVar(), e.NewVar()
	e.AddClause(sat.PosLit(x), sat.PosLit(y))
	e.AddClause(sat.NegLit(x), sat.NegLit(y))

	if got := e.Solve(); got != sat.Sat {
		t.Fatalf("base: %v", got)
	}
	if got := e.SolveAssuming([]sat.Lit{sat.PosLit(x), sat.PosLit(y)}); got != sat.Unsat {
		t.Fatalf("assuming x∧y: %v", got)
	}
	if got := e.SolveAssuming([]sat.Lit{sat.PosLit(x)}); got != sat.Sat {
		t.Fatalf("assuming x: %v", got)
	}
	if !e.Value(x) || e.Value(y) {
		t.Errorf("assuming x: model x=%v y=%v, want true/false", e.Value(x), e.Value(y))
	}
	if got := e.SolveAssuming([]sat.Lit{sat.NegLit(x)}); got != sat.Sat {
		t.Fatalf("assuming ¬x: %v", got)
	}
	if e.Value(x) || !e.Value(y) {
		t.Errorf("assuming ¬x: model x=%v y=%v, want false/true", e.Value(x), e.Value(y))
	}
}

// TestIncrementalClauses: clauses added between calls join the cached
// conjunction.
func TestIncrementalClauses(t *testing.T) {
	e := New(0)
	x := e.NewVar()
	e.AddClause(sat.PosLit(x))
	if got := e.Solve(); got != sat.Sat {
		t.Fatalf("first: %v", got)
	}
	e.AddClause(sat.NegLit(x))
	if got := e.Solve(); got != sat.Unsat {
		t.Fatalf("after contradiction: %v", got)
	}
	// Adding a variable after solving forces a clean rebuild.
	y := e.NewVar()
	_ = y
	if got := e.Solve(); got != sat.Unsat {
		t.Fatalf("after new var: %v", got)
	}
}

// TestNodeLimitFallsThrough: a tiny node budget makes the engine return
// Unknown — the portfolio-fallthrough contract — and stays Unknown.
func TestNodeLimitFallsThrough(t *testing.T) {
	e := New(8) // terminals plus almost nothing
	pigeonhole(e, 5, 4)
	if got := e.Solve(); got != sat.Unknown {
		t.Fatalf("blown BDD: %v, want UNKNOWN", got)
	}
	if !e.LimitReached() {
		t.Error("LimitReached not reported")
	}
	if got := e.Solve(); got != sat.Unknown {
		t.Errorf("blown BDD second call: %v, want UNKNOWN", got)
	}
}

// TestEmptyClauseIsUnsat: the empty clause short-circuits to Unsat.
func TestEmptyClauseIsUnsat(t *testing.T) {
	e := New(0)
	e.NewVar()
	if e.AddClause() {
		t.Error("empty clause accepted")
	}
	if got := e.Solve(); got != sat.Unsat {
		t.Errorf("after empty clause: %v", got)
	}
}

// TestCancellation: a dead context yields Unknown without touching the
// cached state.
func TestCancellation(t *testing.T) {
	e := New(0)
	x := e.NewVar()
	e.AddClause(sat.PosLit(x))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e.SetContext(ctx)
	if got := e.Solve(); got != sat.Unknown {
		t.Errorf("dead context: %v, want UNKNOWN", got)
	}
	e.SetContext(context.Background())
	if got := e.Solve(); got != sat.Sat {
		t.Errorf("revived context: %v, want SAT", got)
	}
}

// countdownCtx reports no error for the first n Err() polls, then is
// permanently cancelled — a deterministic mid-build cancellation.
type countdownCtx struct {
	context.Context
	n int
}

func (c *countdownCtx) Err() error {
	if c.n > 0 {
		c.n--
		return nil
	}
	return context.Canceled
}

// TestCancelledBuildDoesNotDropClauses: a cancellation that lands in
// the middle of the clause-conjoin loop must not leave those clauses
// counted as built — a later call would otherwise decide a weaker
// formula and could report SAT on an unsatisfiable query (the exact
// soundness violation a portfolio race's loser cancellation could
// trigger).
func TestCancelledBuildDoesNotDropClauses(t *testing.T) {
	e := New(0)
	x := e.NewVar()
	// Enough clauses that the %64 cancellation poll fires mid-loop,
	// with the contradiction at the very end.
	for i := 0; i < 130; i++ {
		y := e.NewVar()
		e.AddClause(sat.PosLit(x), sat.PosLit(y))
	}
	e.AddClause(sat.PosLit(x))
	e.AddClause(sat.NegLit(x))

	e.SetContext(&countdownCtx{Context: context.Background(), n: 2})
	if got := e.Solve(); got != sat.Unknown {
		t.Fatalf("cancelled build: %v, want UNKNOWN", got)
	}
	e.SetContext(context.Background())
	if got := e.Solve(); got != sat.Unsat {
		t.Fatalf("after cancelled build the full formula must be decided: %v, want UNSAT", got)
	}
}

// TestPortfolioFallthrough: in an internal+bdd portfolio where the BDD
// member blows its budget, the race still decides via the internal
// engine.
func TestPortfolioFallthrough(t *testing.T) {
	ledger := sat.NewLedger([]string{"seed=0", "bdd"})
	p := sat.NewEnginePortfolio([]sat.Engine{sat.New(), New(8)}, ledger)
	pigeonhole(p, 5, 4)
	if got := p.Solve(); got != sat.Unsat {
		t.Fatalf("portfolio with blown BDD member: %v, want UNSAT", got)
	}
	snap := ledger.Snapshot()
	if snap[0].Wins != 1 || snap[1].Wins != 0 {
		t.Errorf("ledger: %+v", snap)
	}
}
