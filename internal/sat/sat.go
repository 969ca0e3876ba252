// Package sat implements a CDCL (conflict-driven clause learning) Boolean
// satisfiability solver in the MiniSat lineage: two-literal watching, VSIDS
// variable activity with an indexed heap, phase saving, first-UIP conflict
// analysis with clause minimization, Luby restarts, LBD-aware learnt-clause
// database reduction, and incremental solving under assumptions.
//
// It replaces the Lingeling solver used by the paper's prototype. All
// attack queries in this repository (comparator identification, unateness,
// sliding window, equivalence miters, SAT attack, key confirmation) run
// through this solver.
package sat

import (
	"context"
	"fmt"
	"math"
	"math/rand"
)

// Lit is a literal: variable index shifted left once, low bit set for
// negation. Variables are numbered from 0.
type Lit int32

// LitUndef is the sentinel "no literal" value.
const LitUndef Lit = -1

// MkLit constructs a literal for variable v, negated if neg is true.
func MkLit(v int, neg bool) Lit {
	l := Lit(v << 1)
	if neg {
		l |= 1
	}
	return l
}

// PosLit returns the positive literal of variable v.
func PosLit(v int) Lit { return MkLit(v, false) }

// NegLit returns the negative literal of variable v.
func NegLit(v int) Lit { return MkLit(v, true) }

// Var returns the literal's variable.
func (l Lit) Var() int { return int(l >> 1) }

// Neg returns the complement literal.
func (l Lit) Neg() Lit { return l ^ 1 }

// Sign reports whether the literal is negated.
func (l Lit) Sign() bool { return l&1 == 1 }

// String formats the literal as e.g. "x3" or "~x3".
func (l Lit) String() string {
	if l == LitUndef {
		return "undef"
	}
	if l.Sign() {
		return fmt.Sprintf("~x%d", l.Var())
	}
	return fmt.Sprintf("x%d", l.Var())
}

// Status is a solver verdict.
type Status int

// Solver verdicts. Unknown is returned when a conflict or time budget is
// exhausted before a verdict is reached.
const (
	Unknown Status = iota
	Sat
	Unsat
)

func (st Status) String() string {
	switch st {
	case Sat:
		return "SAT"
	case Unsat:
		return "UNSAT"
	default:
		return "UNKNOWN"
	}
}

// lbool is a lifted Boolean: +1 true, -1 false, 0 undefined.
type lbool int8

const (
	lUndef lbool = 0
	lTrue  lbool = 1
	lFalse lbool = -1
)

// cref references a clause by the offset of its header word in the
// solver's clause arena.
type cref uint32

// crefUndef is the "no clause" reference: the reason of a decision,
// an assumption or a top-level unit, and propagate's "no conflict".
const crefUndef cref = ^cref(0)

// Clause arena layout. Every clause is a run of words in one flat []Lit:
//
//	arena[c]                  header: size<<2 | deleted<<1 | learnt
//	arena[c+1 : c+1+size]     the literals
//	arena[c+1+size]           learnt only: LBD
//	arena[c+2+size : c+4+size] learnt only: activity, float64 bits (low, high)
//
// Keeping the literals right after the header lets propagate reach them
// from a watcher without a pointer hop, and the arena holds no pointers
// for the GC to scan. Deleted clauses stay in place, counted in wasted,
// until compact rebuilds the arena.
const (
	hdrLearnt  = 1
	hdrDeleted = 2
	hdrShift   = 2
	learntTail = 3 // LBD + two activity words
)

// clauseWords returns the arena footprint of the clause with header h.
func clauseWords(h Lit) int {
	n := 1 + int(h>>hdrShift)
	if h&hdrLearnt != 0 {
		n += learntTail
	}
	return n
}

// watcher registers clause cref under the negation of one of its two
// watched literals; blocker is a literal of the clause whose truth
// makes visiting the clause unnecessary.
type watcher struct {
	cref    cref
	blocker Lit
}

// Stats collects solver counters for benchmarking and diagnostics.
//
// Counters accumulate monotonically across Solve/SolveAssuming calls on
// one solver — they are never reset. Callers that need per-call figures
// (the portfolio win accounting does) snapshot Stats before the call and
// subtract afterwards; TestStatsAccumulate pins this semantics down.
type Stats struct {
	Decisions    int64
	Propagations int64
	Conflicts    int64
	Restarts     int64
	Learnt       int64
	Removed      int64
	SolveCalls   int64
}

// Sub returns the per-call delta between a later snapshot s and an
// earlier snapshot prev.
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		Decisions:    s.Decisions - prev.Decisions,
		Propagations: s.Propagations - prev.Propagations,
		Conflicts:    s.Conflicts - prev.Conflicts,
		Restarts:     s.Restarts - prev.Restarts,
		Learnt:       s.Learnt - prev.Learnt,
		Removed:      s.Removed - prev.Removed,
		SolveCalls:   s.SolveCalls - prev.SolveCalls,
	}
}

// Add returns the componentwise sum of two snapshots.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Decisions:    s.Decisions + o.Decisions,
		Propagations: s.Propagations + o.Propagations,
		Conflicts:    s.Conflicts + o.Conflicts,
		Restarts:     s.Restarts + o.Restarts,
		Learnt:       s.Learnt + o.Learnt,
		Removed:      s.Removed + o.Removed,
		SolveCalls:   s.SolveCalls + o.SolveCalls,
	}
}

// Solver is an incremental CDCL SAT solver. Create with New, add variables
// with NewVar and clauses with AddClause, then call Solve or SolveAssuming
// any number of times, adding more variables/clauses between calls.
type Solver struct {
	// Problem.
	arena       []Lit  // clause arena (see clauseWords for the layout)
	wasted      int    // arena words held by deleted clauses
	compactions int    // arena rebuilds so far
	clauses     []cref // original clauses
	learnts     []cref // learnt clauses
	ok          bool   // false once a top-level conflict is found

	// Assignment state.
	assigns  []lbool // per literal: assigns[l] is the value of l
	level    []int32 // per variable, decision level of assignment
	reason   []cref  // per variable, crefUndef for decisions and units
	trail    []Lit
	trailLim []int // trail length at each decision level
	qhead    int

	// Watches, indexed by literal.
	watches [][]watcher

	// VSIDS.
	activity []float64
	varInc   float64
	heap     varHeap
	polarity []bool // saved phases; true = last assigned false

	// Conflict analysis scratch, reused across conflicts and clauses.
	seen       []bool
	toClear    []int
	learntLits []Lit    // analyze's learnt clause
	addLits    []Lit    // AddClause's normalized clause
	lbdStamp   []uint32 // per decision level, computeLBD's visited mark
	lbdEpoch   uint32

	// Clause activity.
	claInc       float64
	maxLearnts   float64
	learntGrowth float64

	// Heuristic configuration (normalized) and its seeded tie-breaking
	// source (nil when no heuristic consumes randomness).
	cfg Config
	rng *rand.Rand

	// Budgets: a conflict limit and the SetContext context, both read
	// by the single budget check (budgetExceeded).
	conflictLimit int64           // 0 = unlimited
	ctx           context.Context // as passed to SetContext
	budgetPolls   uint32          // throttles the in-search budget checks

	model []lbool // last satisfying assignment

	// stats holds cumulative counters across Solve calls; see Stats.
	stats Stats
}

// New returns an empty solver with the baseline configuration.
func New() *Solver { return NewWith(Config{}) }

// NewWith returns an empty solver driven by cfg. Invalid configurations
// panic: configs reach solvers through ParseConfig (which validates) or
// as literals, where a bad value is a programming error.
func NewWith(cfg Config) *Solver {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	s := &Solver{
		ok:            true,
		varInc:        1.0,
		claInc:        1.0,
		learntGrowth:  1.1,
		cfg:           cfg,
		rng:           cfg.rng(),
		conflictLimit: cfg.ConflictBudget,
	}
	s.heap.activity = &s.activity
	return s
}

// Config returns the solver's normalized configuration.
func (s *Solver) Config() Config { return s.cfg }

// Stats returns the cumulative counters accumulated across all Solve
// and SolveAssuming calls so far (see the Stats type for the exact
// semantics).
func (s *Solver) Stats() Stats { return s.stats }

// NewVar introduces a fresh variable and returns its index.
func (s *Solver) NewVar() int {
	v := s.NumVars()
	s.assigns = append(s.assigns, lUndef, lUndef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, crefUndef)
	s.activity = append(s.activity, 0)
	s.polarity = append(s.polarity, true)
	s.seen = append(s.seen, false)
	s.watches = append(s.watches, nil, nil)
	s.heap.insert(v)
	return v
}

// NumVars returns the number of variables created so far.
func (s *Solver) NumVars() int { return len(s.assigns) >> 1 }

// NumClauses returns the number of original (non-learnt) clauses.
func (s *Solver) NumClauses() int { return len(s.clauses) }

// SetConflictLimit bounds the number of conflicts per Solve call;
// 0 removes the bound. When exceeded, Solve returns Unknown.
func (s *Solver) SetConflictLimit(n int64) { s.conflictLimit = n }

// SetContext attaches a context to the solver: once ctx is cancelled or
// its deadline passes (ctx.Err() reports both), the current and any
// subsequent Solve calls return Unknown. Passing nil detaches the
// context. It is the solver's only wall-clock budget: wrap the run
// context with context.WithDeadline for a time limit.
func (s *Solver) SetContext(ctx context.Context) { s.ctx = ctx }

func (s *Solver) litValue(l Lit) lbool { return s.assigns[l] }

// varValue returns the value of variable v.
func (s *Solver) varValue(v int) lbool { return s.assigns[v<<1] }

// AddClause adds a clause over the given literals. It returns false if the
// solver is already in an unsatisfiable state (now or as a result of this
// clause). Duplicate literals are removed; tautologies are ignored.
func (s *Solver) AddClause(lits ...Lit) bool {
	if !s.ok {
		return false
	}
	if s.decisionLevel() != 0 {
		panic("sat: AddClause called during search")
	}
	// Sort/uniq and check for tautology or satisfied/falsified literals.
	out := s.addLits[:0]
	defer func() { s.addLits = out[:0] }()
	for _, l := range lits {
		if l < 0 || int(l) >= len(s.assigns) {
			panic(fmt.Sprintf("sat: literal %v references unknown variable", l))
		}
		switch s.litValue(l) {
		case lTrue:
			return true // clause already satisfied at top level
		case lFalse:
			continue // drop falsified literal
		}
		dup := false
		for _, o := range out {
			if o == l {
				dup = true
				break
			}
			if o == l.Neg() {
				return true // tautology
			}
		}
		if !dup {
			out = append(out, l)
		}
	}
	switch len(out) {
	case 0:
		s.ok = false
		return false
	case 1:
		s.uncheckedEnqueue(out[0], crefUndef)
		s.ok = s.propagate() == crefUndef
		return s.ok
	}
	c := s.allocClause(out, false)
	s.clauses = append(s.clauses, c)
	s.attach(c)
	return true
}

// allocClause appends a clause over lits to the arena and returns its
// reference. A learnt clause gets a zeroed LBD/activity tail.
func (s *Solver) allocClause(lits []Lit, learnt bool) cref {
	c := cref(len(s.arena))
	h := Lit(len(lits)) << hdrShift
	if learnt {
		h |= hdrLearnt
	}
	s.arena = append(s.arena, h)
	s.arena = append(s.arena, lits...)
	if learnt {
		s.arena = append(s.arena, 0, 0, 0)
	}
	return c
}

// lits returns the literals of clause c, aliasing the arena: valid
// until the next allocation or compaction.
func (s *Solver) lits(c cref) []Lit {
	n := cref(s.arena[c] >> hdrShift)
	return s.arena[c+1 : c+1+n : c+1+n]
}

func (s *Solver) isLearnt(c cref) bool { return s.arena[c]&hdrLearnt != 0 }

// tail returns the index of learnt clause c's LBD word; the activity
// words follow it.
func (s *Solver) tail(c cref) cref { return c + 1 + cref(s.arena[c]>>hdrShift) }

func (s *Solver) lbd(c cref) int32 { return int32(s.arena[s.tail(c)]) }

func (s *Solver) activityOf(c cref) float64 {
	t := s.tail(c)
	return math.Float64frombits(uint64(uint32(s.arena[t+1])) | uint64(uint32(s.arena[t+2]))<<32)
}

func (s *Solver) setActivity(c cref, a float64) {
	t := s.tail(c)
	b := math.Float64bits(a)
	s.arena[t+1] = Lit(uint32(b))
	s.arena[t+2] = Lit(uint32(b >> 32))
}

func (s *Solver) attach(c cref) {
	lits := s.lits(c)
	s.watches[lits[0].Neg()] = append(s.watches[lits[0].Neg()], watcher{c, lits[1]})
	s.watches[lits[1].Neg()] = append(s.watches[lits[1].Neg()], watcher{c, lits[0]})
}

// detach removes clause c's two watchers and marks it deleted; its
// words count as wasted until the next compaction.
func (s *Solver) detach(c cref) {
	lits := s.lits(c)
	s.removeWatch(lits[0].Neg(), c)
	s.removeWatch(lits[1].Neg(), c)
	s.arena[c] |= hdrDeleted
	s.wasted += clauseWords(s.arena[c])
}

func (s *Solver) removeWatch(l Lit, c cref) {
	ws := s.watches[l]
	for i := range ws {
		if ws[i].cref == c {
			ws[i] = ws[len(ws)-1]
			s.watches[l] = ws[:len(ws)-1]
			return
		}
	}
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

func (s *Solver) newDecisionLevel() { s.trailLim = append(s.trailLim, len(s.trail)) }

func (s *Solver) uncheckedEnqueue(l Lit, from cref) {
	v := l.Var()
	s.assigns[l] = lTrue
	s.assigns[l^1] = lFalse
	s.level[v] = int32(s.decisionLevel())
	s.reason[v] = from
	s.trail = append(s.trail, l)
}

// propagate performs unit propagation; it returns the conflicting clause
// or crefUndef.
func (s *Solver) propagate() cref {
	confl := crefUndef
	arena := s.arena // propagation never allocates clauses
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.stats.Propagations++
		// Clauses watching ~p (now false) are registered under watches[p]
		// per the attach convention watches[lit.Neg()].
		falseLit := p.Neg()
		ws := s.watches[p]
		j := 0
	nextWatcher:
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			// Blocker check avoids touching the clause.
			if s.litValue(w.blocker) == lTrue {
				ws[j] = w
				j++
				continue
			}
			c := w.cref
			n := cref(arena[c] >> hdrShift)
			lits := arena[c+1 : c+1+n : c+1+n]
			// Ensure the false literal is lits[1].
			if lits[0] == falseLit {
				lits[0], lits[1] = lits[1], lits[0]
			}
			first := lits[0]
			if first != w.blocker && s.litValue(first) == lTrue {
				ws[j] = watcher{c, first}
				j++
				continue
			}
			// Look for a new literal to watch.
			for k := 2; k < len(lits); k++ {
				if s.litValue(lits[k]) != lFalse {
					lits[1], lits[k] = lits[k], lits[1]
					s.watches[lits[1].Neg()] = append(s.watches[lits[1].Neg()], watcher{c, first})
					continue nextWatcher
				}
			}
			// Clause is unit or conflicting.
			ws[j] = watcher{c, first}
			j++
			if s.litValue(first) == lFalse {
				confl = c
				s.qhead = len(s.trail)
				// Copy remaining watchers back.
				for i++; i < len(ws); i++ {
					ws[j] = ws[i]
					j++
				}
				break
			}
			s.uncheckedEnqueue(first, c)
		}
		s.watches[p] = ws[:j]
		if confl != crefUndef {
			return confl
		}
	}
	return crefUndef
}

func (s *Solver) cancelUntil(lvl int) {
	if s.decisionLevel() <= lvl {
		return
	}
	bound := s.trailLim[lvl]
	for i := len(s.trail) - 1; i >= bound; i-- {
		l := s.trail[i]
		v := l.Var()
		s.polarity[v] = l.Sign()
		s.assigns[l] = lUndef
		s.assigns[l^1] = lUndef
		s.reason[v] = crefUndef
		s.heap.insertIfAbsent(v)
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:lvl]
	s.qhead = len(s.trail)
}

func (s *Solver) varBump(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.heap.update(v)
}

func (s *Solver) varDecay() { s.varInc /= s.cfg.VarDecay }

func (s *Solver) claBump(c cref) {
	a := s.activityOf(c) + s.claInc
	s.setActivity(c, a)
	if a > 1e20 {
		for _, lc := range s.learnts {
			s.setActivity(lc, s.activityOf(lc)*1e-20)
		}
		s.claInc *= 1e-20
	}
}

func (s *Solver) claDecay() { s.claInc /= s.cfg.ClauseDecay }

// analyze performs first-UIP conflict analysis and returns the learnt
// clause (asserting literal first) and the backtrack level. The clause
// lives in a scratch buffer that the next analyze call overwrites.
func (s *Solver) analyze(confl cref) ([]Lit, int) {
	learnt := append(s.learntLits[:0], LitUndef) // slot 0: the asserting literal
	defer func() { s.learntLits = learnt[:0] }()
	pathC := 0
	p := LitUndef
	idx := len(s.trail) - 1
	for {
		lits := s.lits(confl)
		start := 0
		if p != LitUndef {
			start = 1
		}
		if s.isLearnt(confl) {
			s.claBump(confl)
		}
		for _, q := range lits[start:] {
			v := q.Var()
			if !s.seen[v] && s.level[v] > 0 {
				s.seen[v] = true
				s.toClear = append(s.toClear, v)
				s.varBump(v)
				if int(s.level[v]) >= s.decisionLevel() {
					pathC++
				} else {
					learnt = append(learnt, q)
				}
			}
		}
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		confl = s.reason[p.Var()]
		s.seen[p.Var()] = false
		pathC--
		if pathC == 0 {
			break
		}
	}
	learnt[0] = p.Neg()

	// Basic clause minimization: drop literals whose reason clause is
	// entirely covered by the remaining literals.
	j := 1
	for i := 1; i < len(learnt); i++ {
		v := learnt[i].Var()
		r := s.reason[v]
		if r == crefUndef {
			learnt[j] = learnt[i]
			j++
			continue
		}
		redundant := true
		for _, q := range s.lits(r)[1:] {
			if !s.seen[q.Var()] && s.level[q.Var()] > 0 {
				redundant = false
				break
			}
		}
		if !redundant {
			learnt[j] = learnt[i]
			j++
		}
	}
	learnt = learnt[:j]

	// Clear seen flags.
	for _, v := range s.toClear {
		s.seen[v] = false
	}
	s.toClear = s.toClear[:0]

	// Backtrack level: highest level among learnt[1:].
	btLevel := 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()] > s.level[learnt[maxI].Var()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		btLevel = int(s.level[learnt[1].Var()])
	}
	return learnt, btLevel
}

// computeLBD returns the number of distinct decision levels in the clause,
// the "literal block distance" quality measure. Levels are marked in a
// per-level stamp array under a fresh epoch, so no per-call set is
// allocated.
func (s *Solver) computeLBD(lits []Lit) int32 {
	s.lbdEpoch++
	if s.lbdEpoch == 0 { // wrapped: clear stale marks
		clear(s.lbdStamp)
		s.lbdEpoch = 1
	}
	n := int32(0)
	for _, l := range lits {
		lvl := int(s.level[l.Var()])
		if lvl >= len(s.lbdStamp) {
			s.lbdStamp = append(s.lbdStamp, make([]uint32, lvl+1-len(s.lbdStamp))...)
		}
		if s.lbdStamp[lvl] != s.lbdEpoch {
			s.lbdStamp[lvl] = s.lbdEpoch
			n++
		}
	}
	return n
}

func (s *Solver) reduceDB() {
	// Sort learnts: keep low LBD and high activity. Simple selection:
	// partition by median activity among clauses with lbd > 2.
	if len(s.learnts) == 0 {
		return
	}
	cand := make([]cref, 0, len(s.learnts))
	kept := make([]cref, 0, len(s.learnts))
	for _, c := range s.learnts {
		if s.lbd(c) <= 2 || len(s.lits(c)) == 2 || s.locked(c) {
			kept = append(kept, c)
		} else {
			cand = append(cand, c)
		}
	}
	// Remove the lower-activity half of the candidates.
	s.sortByActivity(cand)
	cut := len(cand) / 2
	for i, c := range cand {
		if i < cut {
			s.detach(c)
			s.stats.Removed++
		} else {
			kept = append(kept, c)
		}
	}
	s.learnts = kept
	if s.wasted > len(s.arena)/2 {
		s.compact()
	}
}

func (s *Solver) locked(c cref) bool {
	v := s.lits(c)[0].Var()
	return s.reason[v] == c && s.varValue(v) != lUndef
}

func (s *Solver) sortByActivity(cs []cref) {
	// Insertion-friendly shellsort to avoid pulling in sort.Slice closures
	// on a hot path; sizes here are modest.
	for gap := len(cs) / 2; gap > 0; gap /= 2 {
		for i := gap; i < len(cs); i++ {
			c := cs[i]
			a := s.activityOf(c)
			j := i
			for ; j >= gap && s.activityOf(cs[j-gap]) > a; j -= gap {
				cs[j] = cs[j-gap]
			}
			cs[j] = c
		}
	}
}

// compact rebuilds the arena without deleted clauses and remaps every
// reference — clause lists, reasons and watchers — in place, so the
// order of every list, and hence the search, is unchanged. Each live
// clause's new offset is left in its old first-literal word, which the
// remapping reads.
func (s *Solver) compact() {
	old := s.arena
	next := make([]Lit, 0, len(old)-s.wasted)
	for c := 0; c < len(old); {
		h := old[c]
		n := clauseWords(h)
		if h&hdrDeleted == 0 {
			nc := Lit(len(next))
			next = append(next, old[c:c+n]...)
			old[c+1] = nc
		}
		c += n
	}
	remap := func(cs []cref) {
		for i, c := range cs {
			cs[i] = cref(old[c+1])
		}
	}
	remap(s.clauses)
	remap(s.learnts)
	for v, r := range s.reason {
		if r != crefUndef {
			s.reason[v] = cref(old[r+1])
		}
	}
	for _, ws := range s.watches {
		for i := range ws {
			ws[i].cref = cref(old[ws[i].cref+1])
		}
	}
	s.arena = next
	s.wasted = 0
	s.compactions++
}

// luby returns the Luby sequence value for index i (1-based), used to
// schedule restarts.
func luby(i int64) int64 {
	// Find the finite subsequence that contains index i, and the size of
	// that subsequence.
	var size, seq int64 = 1, 0
	for size < i+1 {
		seq++
		size = 2*size + 1
	}
	for size-1 != i {
		size = (size - 1) / 2
		seq--
		i = i % size
	}
	return int64(1) << uint(seq)
}

// search runs CDCL until a verdict or until nofConflicts conflicts occur
// (negative = unlimited). assumptions are enqueued as pseudo-decisions.
func (s *Solver) search(nofConflicts int64, assumptions []Lit) Status {
	conflicts := int64(0)
	for {
		confl := s.propagate()
		if confl != crefUndef {
			s.stats.Conflicts++
			conflicts++
			if s.decisionLevel() == 0 {
				s.ok = false
				return Unsat
			}
			learnt, btLevel := s.analyze(confl)
			s.cancelUntil(btLevel)
			if len(learnt) == 1 {
				s.uncheckedEnqueue(learnt[0], crefUndef)
			} else {
				c := s.allocClause(learnt, true)
				s.arena[s.tail(c)] = Lit(s.computeLBD(learnt))
				s.learnts = append(s.learnts, c)
				s.attach(c)
				s.claBump(c)
				s.uncheckedEnqueue(learnt[0], c)
				s.stats.Learnt++
			}
			s.varDecay()
			s.claDecay()
			continue
		}
		// No conflict.
		if nofConflicts >= 0 && conflicts >= nofConflicts {
			s.cancelUntil(0)
			return Unknown
		}
		if s.budgetExceeded() {
			s.cancelUntil(0)
			return Unknown
		}
		if float64(len(s.learnts)) > s.maxLearnts {
			s.reduceDB()
		}
		// Enqueue assumptions as pseudo-decisions.
		next := LitUndef
		for s.decisionLevel() < len(assumptions) {
			p := assumptions[s.decisionLevel()]
			switch s.litValue(p) {
			case lTrue:
				s.newDecisionLevel() // dummy level, already satisfied
			case lFalse:
				return Unsat // conflicts with assumptions
			default:
				next = p
			}
			if next != LitUndef {
				break
			}
		}
		if next == LitUndef {
			// Regular decision.
			v := s.pickBranchVar()
			if v < 0 {
				// All variables assigned: model found.
				s.model = s.model[:0]
				for l := 0; l < len(s.assigns); l += 2 {
					s.model = append(s.model, s.assigns[l])
				}
				return Sat
			}
			s.stats.Decisions++
			next = MkLit(v, s.decidePolarity(v))
		}
		s.newDecisionLevel()
		s.uncheckedEnqueue(next, crefUndef)
	}
}

func (s *Solver) pickBranchVar() int {
	// Seeded tie-breaking: with probability RandomFreq pick a uniformly
	// random unassigned variable instead of the VSIDS top. The variable
	// stays in the heap; pops skip assigned variables anyway.
	if s.rng != nil && s.cfg.RandomFreq > 0 && len(s.assigns) > 0 &&
		s.rng.Float64() < s.cfg.RandomFreq {
		if v := s.rng.Intn(s.NumVars()); s.varValue(v) == lUndef {
			return v
		}
	}
	for !s.heap.empty() {
		v := s.heap.pop()
		if s.varValue(v) == lUndef {
			return v
		}
	}
	return -1
}

// decidePolarity resolves the decision polarity of variable v per the
// configured Phase heuristic. The returned value is the literal
// negation flag: true assigns v false.
func (s *Solver) decidePolarity(v int) bool {
	switch s.cfg.Phase {
	case PhaseFalse:
		return true
	case PhaseTrue:
		return false
	case PhaseRandom:
		return s.rng.Intn(2) == 1
	default:
		return s.polarity[v]
	}
}

// budgetExceeded is the per-decision check inside search. ctx.Err()
// takes a mutex and may read the clock, so the check is rationed to
// every 256 calls — but by a dedicated poll counter, not the conflict
// count, so cancellation is still noticed promptly on conflict-free
// instances. SolveAssuming performs one unthrottled check on entry.
func (s *Solver) budgetExceeded() bool {
	if s.conflictLimit > 0 && s.stats.Conflicts >= s.conflictLimit {
		return true
	}
	s.budgetPolls++
	if s.budgetPolls&255 == 0 {
		return s.budgetExceededNow()
	}
	return false
}

// budgetExceededNow checks the context budget without throttling.
func (s *Solver) budgetExceededNow() bool {
	return s.ctx != nil && s.ctx.Err() != nil
}

// Solve determines satisfiability of the current clause set.
func (s *Solver) Solve() Status { return s.SolveAssuming(nil) }

// SolveAssuming determines satisfiability under the given assumption
// literals. The assumptions hold only for this call. Clauses learned
// during the call persist, making repeated calls incremental.
func (s *Solver) SolveAssuming(assumptions []Lit) Status {
	s.stats.SolveCalls++
	if !s.ok {
		return Unsat
	}
	if s.budgetExceededNow() {
		return Unknown
	}
	if s.maxLearnts == 0 {
		s.maxLearnts = float64(len(s.clauses)) / 3
		if s.maxLearnts < 2000 {
			s.maxLearnts = 2000
		}
	}
	baseConflicts := s.conflictLimit
	if baseConflicts > 0 {
		baseConflicts += s.stats.Conflicts // limit is per call
		defer func(prev int64) { s.conflictLimit = prev }(s.conflictLimit)
		s.conflictLimit = baseConflicts
	}
	status := Unknown
	geo := float64(s.cfg.RestartBase)
	for restart := int64(1); status == Unknown; restart++ {
		var budget int64
		if s.cfg.Restart == RestartGeometric {
			budget = int64(geo)
			geo *= s.cfg.RestartGrowth
		} else {
			budget = luby(restart) * int64(s.cfg.RestartBase)
		}
		status = s.search(budget, assumptions)
		s.stats.Restarts++
		// Restart boundaries are rare relative to in-search polls, so
		// check the wall-clock budgets unthrottled here: the throttled
		// budgetExceeded() would miss a cancellation 255/256 times and
		// let the solver run a whole extra restart, making pool workers
		// drain nondeterministically late.
		if status == Unknown {
			if (s.conflictLimit > 0 && s.stats.Conflicts >= s.conflictLimit) || s.budgetExceededNow() {
				break
			}
			s.maxLearnts *= s.learntGrowth
		}
	}
	s.cancelUntil(0)
	return status
}

// Value returns the value of variable v in the last satisfying assignment.
// Unassigned variables (possible for variables created after the last
// Solve) report false.
func (s *Solver) Value(v int) bool {
	if v >= len(s.model) {
		return false
	}
	return s.model[v] == lTrue
}

// LitTrue reports whether literal l is true in the last model.
func (s *Solver) LitTrue(l Lit) bool {
	val := s.Value(l.Var())
	if l.Sign() {
		return !val
	}
	return val
}

// varHeap is a max-heap of variables ordered by activity, with an index
// map for decrease/increase-key.
type varHeap struct {
	data     []int
	indices  []int // var -> position in data, -1 if absent
	activity *[]float64
}

func (h *varHeap) less(a, b int) bool {
	return (*h.activity)[h.data[a]] > (*h.activity)[h.data[b]]
}

func (h *varHeap) swap(a, b int) {
	h.data[a], h.data[b] = h.data[b], h.data[a]
	h.indices[h.data[a]] = a
	h.indices[h.data[b]] = b
}

func (h *varHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *varHeap) down(i int) {
	n := len(h.data)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.less(l, smallest) {
			smallest = l
		}
		if r < n && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.swap(i, smallest)
		i = smallest
	}
}

func (h *varHeap) insert(v int) {
	for len(h.indices) <= v {
		h.indices = append(h.indices, -1)
	}
	if h.indices[v] >= 0 {
		return
	}
	h.data = append(h.data, v)
	h.indices[v] = len(h.data) - 1
	h.up(len(h.data) - 1)
}

func (h *varHeap) insertIfAbsent(v int) { h.insert(v) }

func (h *varHeap) update(v int) {
	if v < len(h.indices) && h.indices[v] >= 0 {
		h.up(h.indices[v])
		h.down(h.indices[v])
	}
}

func (h *varHeap) empty() bool { return len(h.data) == 0 }

func (h *varHeap) pop() int {
	v := h.data[0]
	last := len(h.data) - 1
	h.swap(0, last)
	h.data = h.data[:last]
	h.indices[v] = -1
	if last > 0 {
		h.down(0)
	}
	return v
}
