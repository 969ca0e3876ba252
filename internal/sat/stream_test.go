package sat_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/sat"
	"repro/internal/sat/bddengine"
)

// randOps generates a random interleaved variable/clause stream over
// at most maxVars variables. Ops with a nil clause only allocate vars.
type testOp struct {
	vars   int
	clause []sat.Lit
	has    bool
}

func randOps(rng *rand.Rand, maxVars int) []testOp {
	var ops []testOp
	nVars := 0
	// Seed a few variables so the first clauses have something to bite.
	first := 2 + rng.Intn(4)
	ops = append(ops, testOp{vars: first})
	nVars += first
	nClauses := 1 + rng.Intn(3*maxVars)
	for c := 0; c < nClauses; c++ {
		if nVars < maxVars && rng.Intn(3) == 0 {
			k := 1 + rng.Intn(3)
			ops = append(ops, testOp{vars: k})
			nVars += k
			continue
		}
		width := 1 + rng.Intn(3)
		cl := make([]sat.Lit, 0, width)
		for i := 0; i < width; i++ {
			l := sat.PosLit(rng.Intn(nVars))
			if rng.Intn(2) == 0 {
				l = l.Neg()
			}
			cl = append(cl, l)
		}
		ops = append(ops, testOp{clause: cl, has: true})
	}
	return ops
}

func applyOps(e interface {
	NewVar() int
	AddClause(...sat.Lit) bool
}, ops []testOp) {
	for _, op := range ops {
		for i := 0; i < op.vars; i++ {
			e.NewVar()
		}
		if op.has {
			e.AddClause(op.clause...)
		}
	}
}

func randAssumptions(rng *rand.Rand, nVars int) []sat.Lit {
	n := rng.Intn(4)
	as := make([]sat.Lit, 0, n)
	for i := 0; i < n; i++ {
		l := sat.PosLit(rng.Intn(nVars))
		if rng.Intn(2) == 0 {
			l = l.Neg()
		}
		as = append(as, l)
	}
	return as
}

func countVars(ops []testOp) int {
	n := 0
	for _, op := range ops {
		n += op.vars
	}
	return n
}

// TestFrozenReplayIdentity is the core property: solving a frozen
// prefix plus delta — built through Stream/Freeze — is state-identical
// to building the identical stream directly into a solver, across
// randomized streams, freeze points and incremental queries. Three
// solvers take the same stream: direct construction, a Replay of the
// prefix into a fresh solver, and the native LoadFrozen image copy.
// After every query their verdicts, models and Stats must agree.
func TestFrozenReplayIdentity(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := randOps(rng, 24)
		nVars := countVars(ops)

		// Reference: direct construction, same interleaving.
		ref := sat.New()
		applyOps(ref, ops)

		// Frozen path: freeze at up to two random cuts, then add the
		// delta directly to each engine.
		cut1 := rng.Intn(len(ops) + 1)
		cut2 := cut1 + rng.Intn(len(ops)-cut1+1)
		stream := sat.NewStream()
		applyOps(stream, ops[:cut1])
		stream.Freeze()
		applyOps(stream, ops[cut1:cut2])
		frozen := stream.Freeze()
		if frozen.NumVars() != countVars(ops[:cut2]) {
			t.Fatalf("seed %d: frozen has %d vars, want %d", seed, frozen.NumVars(), countVars(ops[:cut2]))
		}

		replayed := sat.New()
		frozen.Replay(replayed)
		loaded := sat.New()
		loaded.LoadFrozen(frozen)
		engines := []*sat.Solver{ref, replayed, loaded}
		for _, e := range engines[1:] {
			applyOps(e, ops[cut2:])
			if e.NumVars() != nVars {
				t.Fatalf("seed %d: primed engine has %d vars, want %d", seed, e.NumVars(), nVars)
			}
		}

		for q := 0; q < 4; q++ {
			as := randAssumptions(rng, nVars)
			want := ref.SolveAssuming(as)
			for i, e := range engines[1:] {
				if got := e.SolveAssuming(as); got != want {
					t.Fatalf("seed %d query %d engine %d: verdict %v, direct %v", seed, q, i+1, got, want)
				}
				if e.Stats() != ref.Stats() {
					t.Fatalf("seed %d query %d engine %d: stats %+v, direct %+v", seed, q, i+1, e.Stats(), ref.Stats())
				}
				if want == sat.Sat {
					for v := 0; v < nVars; v++ {
						if ref.Value(v) != e.Value(v) {
							t.Fatalf("seed %d query %d engine %d: model differs at var %d", seed, q, i+1, v)
						}
					}
				}
			}
			// Grow all three between queries.
			extra := []sat.Lit{sat.MkLit(rng.Intn(nVars), rng.Intn(2) == 0), sat.MkLit(rng.Intn(nVars), rng.Intn(2) == 0)}
			for _, e := range engines {
				e.AddClause(extra...)
			}
		}

		// A second fork of the same prefix must be independent: pinning a
		// variable false in one fork must not leak into the other.
		forkA := frozen.Fork()
		forkB := frozen.Fork()
		if nVars := forkA.NumVars(); nVars > 0 {
			forkA.AddClause(sat.PosLit(0).Neg())
			forkB.AddClause(sat.PosLit(0))
			ea, eb := sat.New(), sat.New()
			forkA.Replay(ea)
			forkB.Replay(eb)
			if ea.Solve() == sat.Sat && ea.Value(0) {
				t.Fatalf("seed %d: fork A sees fork B's clause", seed)
			}
			if eb.Solve() == sat.Sat && !eb.Value(0) {
				t.Fatalf("seed %d: fork B sees fork A's clause", seed)
			}
		}
	}
}

// loadFrozenPrefix freezes a seeded satisfiable random 3-SAT prefix
// large enough that searching it learns clauses and grows watch lists.
func loadFrozenPrefix(seed int64, nVars, nClauses int) *sat.Frozen {
	rng := rand.New(rand.NewSource(seed))
	st := sat.NewStream()
	for i := 0; i < nVars; i++ {
		st.NewVar()
	}
	for i := 0; i < nClauses; i++ {
		st.AddClause(sat.MkLit(rng.Intn(nVars), rng.Intn(2) == 0),
			sat.MkLit(rng.Intn(nVars), rng.Intn(2) == 0),
			sat.MkLit(rng.Intn(nVars), rng.Intn(2) == 0))
	}
	return st.Freeze()
}

// forkWork runs a fork's own incremental workload: each query adds a
// few clauses over the prefix variables and solves under assumptions,
// so the fork learns clauses and appends to its watch lists. It
// returns the per-query verdicts, models and stats.
func forkWork(e *sat.Solver, seed int64, nVars int) []string {
	rng := rand.New(rand.NewSource(seed))
	var out []string
	for q := 0; q < 6; q++ {
		for i := 0; i < 5; i++ {
			e.AddClause(sat.MkLit(rng.Intn(nVars), rng.Intn(2) == 0), sat.MkLit(rng.Intn(nVars), rng.Intn(2) == 0),
				sat.MkLit(rng.Intn(nVars), rng.Intn(2) == 0))
		}
		as := randAssumptions(rng, nVars)
		st := e.SolveAssuming(as)
		model := make([]byte, nVars)
		for v := range model {
			model[v] = '0'
			if st == sat.Sat && e.Value(v) {
				model[v] = '1'
			}
		}
		out = append(out, fmt.Sprintf("%v %+v %s", st, e.Stats(), model))
	}
	return out
}

// TestLoadFrozenForkIsolation: two solvers loaded from one image that
// each learn and add clauses must not see each other's watchers (the
// watch lists share one flat array per solver, never across solvers or
// with the image). Each fork must behave exactly like a solver that
// replayed the prefix itself, and a load after both forks worked must
// still match a fresh replay.
func TestLoadFrozenForkIsolation(t *testing.T) {
	const nVars = 90
	frozen := loadFrozenPrefix(5, nVars, 360)
	run := func(load bool, seed int64) []string {
		e := sat.New()
		if load {
			e.LoadFrozen(frozen)
		} else {
			frozen.Replay(e)
		}
		return forkWork(e, seed, nVars)
	}
	// Both forks are loaded before either works, so a backing array
	// shared between them would let one fork's work corrupt the other.
	a, b := sat.New(), sat.New()
	a.LoadFrozen(frozen)
	b.LoadFrozen(frozen)
	ra, rb := forkWork(a, 1, nVars), forkWork(b, 2, nVars)
	for _, tc := range []struct {
		name string
		got  []string
		seed int64
	}{{"fork A", ra, 1}, {"fork B", rb, 2}} {
		want := run(false, tc.seed)
		for q := range want {
			if tc.got[q] != want[q] {
				t.Fatalf("%s query %d: got %s, replay %s", tc.name, q, tc.got[q], want[q])
			}
		}
	}
	// The image is untouched by the forks' work.
	late, want := run(true, 3), run(false, 3)
	for q := range want {
		if late[q] != want[q] {
			t.Fatalf("load after forks, query %d: got %s, replay %s", q, late[q], want[q])
		}
	}
}

// TestLoadFrozenConcurrent: many goroutines loading one shared Frozen
// — the first loads race to build the image — must each get a solver
// identical to a replay. Run under -race this also checks the image
// is built once and only read afterwards.
func TestLoadFrozenConcurrent(t *testing.T) {
	const nVars = 60
	frozen := loadFrozenPrefix(9, nVars, 240)
	ref := sat.New()
	frozen.Replay(ref)
	want := forkWork(ref, 4, nVars)

	const workers = 8
	got := make([][]string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			e := sat.New()
			e.LoadFrozen(frozen)
			got[w] = forkWork(e, 4, nVars)
		}(w)
	}
	wg.Wait()
	for w := range got {
		for q := range want {
			if got[w][q] != want[q] {
				t.Fatalf("worker %d query %d: got %s, replay %s", w, q, got[w][q], want[q])
			}
		}
	}
}

// TestFrozenReplayHeterogeneousPortfolio checks the verdict property
// through a heterogeneous racing portfolio (internal CDCL + BDD)
// primed with a frozen prefix: every backend decides the same
// replayed formula, so verdicts match the direct run. Models are not
// compared (the winning backend varies); this runs under -race to
// exercise the priming + racing paths together.
func TestFrozenReplayHeterogeneousPortfolio(t *testing.T) {
	for seed := int64(100); seed < 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := randOps(rng, 16)
		nVars := countVars(ops)
		as := randAssumptions(rng, nVars)

		ref := sat.New()
		applyOps(ref, ops)
		want := ref.SolveAssuming(as)

		cut := rng.Intn(len(ops) + 1)
		stream := sat.NewStream()
		applyOps(stream, ops[:cut])
		frozen := stream.Freeze()

		p := sat.NewEnginePortfolio([]sat.Engine{sat.New(), bddengine.New(0)}, nil)
		sat.Prime(p, frozen)
		applyOps(p, ops[cut:])
		if got := p.SolveAssuming(as); got != want {
			t.Fatalf("seed %d: portfolio verdict %v, direct %v", seed, got, want)
		}
	}
}

func TestFrozenHashes(t *testing.T) {
	build := func(extra bool) *sat.Frozen {
		s := sat.NewStream()
		a, b := sat.PosLit(s.NewVar()), sat.PosLit(s.NewVar())
		s.AddClause(a, b)
		if extra {
			s.AddClause(a.Neg(), b)
		}
		return s.Freeze()
	}
	f1, f2, f3 := build(false), build(false), build(true)
	if f1.Hash() != f2.Hash() {
		t.Fatalf("identical streams hash differently: %v vs %v", f1.Hash(), f2.Hash())
	}
	if f1.Hash() == f3.Hash() {
		t.Fatalf("different streams share a hash")
	}
	if f1.Hash() == sat.EmptyHash {
		t.Fatalf("non-empty stream has the empty hash")
	}
	if (*sat.Frozen)(nil).Hash() != sat.EmptyHash {
		t.Fatalf("nil frozen should hash as empty")
	}

	// Chained freezes: the child hash covers the parent.
	s := f1.Fork()
	s.AddClause(sat.PosLit(0))
	child := s.Freeze()
	if child.Hash() == f1.Hash() {
		t.Fatalf("chained freeze did not change the hash")
	}
	// Freezing with an empty delta returns the same prefix.
	again := s.Freeze()
	if again != child {
		t.Fatalf("empty-delta freeze created a new link")
	}

	// Delta hashes: equal deltas agree, and trailing var allocations are
	// part of the content.
	d1, d2 := child.Fork(), child.Fork()
	d1.AddClause(sat.PosLit(1))
	d2.AddClause(sat.PosLit(1))
	if d1.DeltaHash() != d2.DeltaHash() {
		t.Fatalf("identical deltas hash differently")
	}
	d2.NewVar()
	if d1.DeltaHash() == d2.DeltaHash() {
		t.Fatalf("trailing variable allocation not reflected in delta hash")
	}
}
