package sat

import (
	"flag"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// This file pins the solver's search path: on a few deterministic
// instances, the full Stats() (and the verdict sequence) must equal
// recorded constants exactly. Any change to propagation order, watch
// list order, conflict analysis, clause-database reduction or restart
// scheduling moves at least one counter, so data-layout work on the
// solver (the clause arena, its compaction, frozen-prefix loading) is
// held to "same search, not different search". Run with -pin.print to
// print the current values in the table's literal syntax.

var pinPrint = flag.Bool("pin.print", false, "print the search-path pin constants instead of checking them")

// pinStep is one query of a pinned instance: the verdict and the
// cumulative Stats after it.
type pinStep struct {
	status Status
	stats  Stats
}

// pinRandom3SAT returns a seeded uniform random 3-SAT instance with
// nVars variables and nClauses clauses (distinct variables per clause).
func pinRandom3SAT(seed int64, nVars, nClauses int) [][]Lit {
	rng := rand.New(rand.NewSource(seed))
	cnf := make([][]Lit, nClauses)
	for i := range cnf {
		var vs [3]int
		for j := 0; j < 3; j++ {
			v := rng.Intn(nVars)
			for slices.Contains(vs[:j], v) {
				v = rng.Intn(nVars)
			}
			vs[j] = v
			cnf[i] = append(cnf[i], MkLit(v, rng.Intn(2) == 1))
		}
	}
	return cnf
}

func pinLoad(s *Solver, nVars int, cnf [][]Lit) {
	for i := 0; i < nVars; i++ {
		s.NewVar()
	}
	for _, cl := range cnf {
		s.AddClause(cl...)
	}
}

// pinInstances runs every pinned instance and returns its query
// steps, keyed by instance name, plus the number of clause-arena
// compactions for the instances that reduce the learnt database.
func pinInstances() (map[string][]pinStep, map[string]int) {
	out := map[string][]pinStep{}
	compacted := map[string]int{}
	step := func(name string, s *Solver, st Status) {
		out[name] = append(out[name], pinStep{st, s.Stats()})
	}

	// Pigeonhole: UNSAT, structured, a few thousand conflicts.
	{
		s := New()
		pigeonhole(s, 8, 7)
		step("php87", s, s.Solve())
	}

	// Random 3-SAT at the threshold (ratio 4.26): tens of thousands of
	// conflicts on the default (Luby) path.
	{
		const n = 200
		s := New()
		pinLoad(s, n, pinRandom3SAT(11, n, 852))
		step("rand3sat-200", s, s.Solve())
	}

	// The same formula under geometric restarts. The learnt-clause
	// limit grows 1.1x per restart, so Luby's frequent restarts outrun
	// the 2000-learnt floor, while geometric restarts keep reduceDB
	// (and the clause-arena compaction) busy.
	{
		const n = 200
		s := NewWith(Config{Restart: RestartGeometric})
		pinLoad(s, n, pinRandom3SAT(11, n, 852))
		step("rand3sat-200-geo", s, s.Solve())
		compacted["rand3sat-200-geo"] = s.compactions
	}

	// A smaller instance under the seeded RNG heuristics (random
	// decisions and random phase), with geometric restarts.
	{
		const n = 180
		s := NewWith(Config{Seed: 5, RandomFreq: 0.02, Phase: PhaseRandom, Restart: RestartGeometric})
		pinLoad(s, n, pinRandom3SAT(23, n, 767))
		step("rand3sat-180-rng", s, s.Solve())
	}

	// Incremental: a satisfiable instance below the threshold, queried
	// under random assumptions, with model-blocking clauses added
	// between queries so original clauses interleave with learnts in
	// the database.
	for _, inc := range []struct {
		name string
		cfg  Config
	}{{"incremental-220", Config{}}, {"incremental-220-geo", Config{Restart: RestartGeometric, RestartBase: 400, RestartGrowth: 2}}} {
		const n = 220
		s := NewWith(inc.cfg)
		pinLoad(s, n, pinRandom3SAT(31, n, 880))
		rng := rand.New(rand.NewSource(32))
		for q := 0; q < 12; q++ {
			as := make([]Lit, 0, 6)
			for i := 0; i < 6; i++ {
				as = append(as, MkLit(rng.Intn(n), rng.Intn(2) == 1))
			}
			st := s.SolveAssuming(as)
			step(inc.name, s, st)
			compacted[inc.name] = s.compactions
			if st == Sat {
				block := make([]Lit, 0, 8)
				for i := 0; i < 8; i++ {
					v := rng.Intn(n)
					block = append(block, MkLit(v, s.Value(v)))
				}
				s.AddClause(block...)
			}
		}
	}
	return out, compacted
}

// pinWant is the recorded search path of the reference solver.
var pinWant = map[string][]pinStep{
	"php87": {
		{Unsat, Stats{Decisions: 4343, Propagations: 43782, Conflicts: 3617, Restarts: 19, Learnt: 3615, Removed: 0, SolveCalls: 1}},
	},
	"rand3sat-200": {
		{Unsat, Stats{Decisions: 24200, Propagations: 739878, Conflicts: 20281, Restarts: 69, Learnt: 20268, Removed: 0, SolveCalls: 1}},
	},
	"rand3sat-200-geo": {
		{Unsat, Stats{Decisions: 26366, Propagations: 845675, Conflicts: 22612, Restarts: 12, Learnt: 22603, Removed: 19483, SolveCalls: 1}},
	},
	"rand3sat-180-rng": {
		{Unsat, Stats{Decisions: 7318, Propagations: 211726, Conflicts: 6254, Restarts: 9, Learnt: 6242, Removed: 4025, SolveCalls: 1}},
	},
	"incremental-220": {
		{Sat, Stats{Decisions: 10018, Propagations: 352165, Conflicts: 8176, Restarts: 33, Learnt: 8176, Removed: 0, SolveCalls: 1}},
		{Unsat, Stats{Decisions: 10018, Propagations: 352169, Conflicts: 8176, Restarts: 34, Learnt: 8176, Removed: 0, SolveCalls: 2}},
		{Unsat, Stats{Decisions: 12176, Propagations: 424701, Conflicts: 9920, Restarts: 46, Learnt: 9920, Removed: 0, SolveCalls: 3}},
		{Unsat, Stats{Decisions: 14623, Propagations: 512224, Conflicts: 11937, Restarts: 59, Learnt: 11937, Removed: 0, SolveCalls: 4}},
		{Unsat, Stats{Decisions: 14623, Propagations: 512229, Conflicts: 11937, Restarts: 60, Learnt: 11937, Removed: 0, SolveCalls: 5}},
		{Sat, Stats{Decisions: 18326, Propagations: 637643, Conflicts: 14974, Restarts: 74, Learnt: 14974, Removed: 0, SolveCalls: 6}},
		{Sat, Stats{Decisions: 18536, Propagations: 644629, Conflicts: 15121, Restarts: 76, Learnt: 15121, Removed: 0, SolveCalls: 7}},
		{Sat, Stats{Decisions: 20979, Propagations: 728544, Conflicts: 17074, Restarts: 89, Learnt: 17074, Removed: 0, SolveCalls: 8}},
		{Sat, Stats{Decisions: 24880, Propagations: 861852, Conflicts: 20283, Restarts: 104, Learnt: 20283, Removed: 0, SolveCalls: 9}},
		{Sat, Stats{Decisions: 25466, Propagations: 880999, Conflicts: 20717, Restarts: 108, Learnt: 20717, Removed: 0, SolveCalls: 10}},
		{Unsat, Stats{Decisions: 25466, Propagations: 881003, Conflicts: 20717, Restarts: 109, Learnt: 20717, Removed: 0, SolveCalls: 11}},
		{Unsat, Stats{Decisions: 29390, Propagations: 1021968, Conflicts: 23984, Restarts: 125, Learnt: 23984, Removed: 0, SolveCalls: 12}},
	},
	"incremental-220-geo": {
		{Sat, Stats{Decisions: 1727, Propagations: 60098, Conflicts: 1410, Restarts: 3, Learnt: 1410, Removed: 0, SolveCalls: 1}},
		{Unsat, Stats{Decisions: 1727, Propagations: 60102, Conflicts: 1410, Restarts: 4, Learnt: 1410, Removed: 0, SolveCalls: 2}},
		{Unsat, Stats{Decisions: 3898, Propagations: 136257, Conflicts: 3237, Restarts: 7, Learnt: 3237, Removed: 1456, SolveCalls: 3}},
		{Unsat, Stats{Decisions: 6502, Propagations: 230500, Conflicts: 5429, Restarts: 10, Learnt: 5429, Removed: 3218, SolveCalls: 4}},
		{Unsat, Stats{Decisions: 6502, Propagations: 230505, Conflicts: 5429, Restarts: 11, Learnt: 5429, Removed: 3218, SolveCalls: 5}},
		{Sat, Stats{Decisions: 6761, Propagations: 238654, Conflicts: 5617, Restarts: 12, Learnt: 5617, Removed: 3218, SolveCalls: 6}},
		{Sat, Stats{Decisions: 6845, Propagations: 240012, Conflicts: 5641, Restarts: 13, Learnt: 5641, Removed: 3218, SolveCalls: 7}},
		{Sat, Stats{Decisions: 9965, Propagations: 354047, Conflicts: 8303, Restarts: 16, Learnt: 8303, Removed: 5347, SolveCalls: 8}},
		{Sat, Stats{Decisions: 10474, Propagations: 372886, Conflicts: 8714, Restarts: 18, Learnt: 8714, Removed: 5347, SolveCalls: 9}},
		{Sat, Stats{Decisions: 10628, Propagations: 377735, Conflicts: 8818, Restarts: 19, Learnt: 8818, Removed: 5347, SolveCalls: 10}},
		{Unsat, Stats{Decisions: 10628, Propagations: 377739, Conflicts: 8818, Restarts: 20, Learnt: 8818, Removed: 5347, SolveCalls: 11}},
		{Unsat, Stats{Decisions: 13580, Propagations: 486768, Conflicts: 11299, Restarts: 23, Learnt: 11299, Removed: 8175, SolveCalls: 12}},
	},
}

func TestSearchPathPinned(t *testing.T) {
	got, compacted := pinInstances()
	if *pinPrint {
		var sb strings.Builder
		for _, name := range []string{"php87", "rand3sat-200", "rand3sat-200-geo", "rand3sat-180-rng", "incremental-220", "incremental-220-geo"} {
			fmt.Fprintf(&sb, "\t%q: {\n", name)
			for _, st := range got[name] {
				s := st.stats
				fmt.Fprintf(&sb, "\t\t{%s, Stats{Decisions: %d, Propagations: %d, Conflicts: %d, Restarts: %d, Learnt: %d, Removed: %d, SolveCalls: %d}},\n",
					map[Status]string{Sat: "Sat", Unsat: "Unsat", Unknown: "Unknown"}[st.status],
					s.Decisions, s.Propagations, s.Conflicts, s.Restarts, s.Learnt, s.Removed, s.SolveCalls)
			}
			sb.WriteString("\t},\n")
		}
		t.Logf("\n%s", sb.String())
		return
	}
	for name, want := range pinWant {
		steps := got[name]
		if len(steps) != len(want) {
			t.Errorf("%s: %d steps, want %d", name, len(steps), len(want))
			continue
		}
		for i := range want {
			if steps[i] != want[i] {
				t.Errorf("%s step %d: got %v %+v, want %v %+v", name, i, steps[i].status, steps[i].stats, want[i].status, want[i].stats)
			}
		}
	}
	if len(pinWant) != len(got) {
		t.Errorf("pinned %d instances, ran %d", len(pinWant), len(got))
	}
	// The geometric-restart instances must exercise the arena rebuild,
	// or the pin would not cover its remapping.
	for _, name := range []string{"rand3sat-200-geo", "incremental-220-geo"} {
		if compacted[name] == 0 {
			t.Errorf("%s: the clause arena was never compacted", name)
		}
	}
}
