package fall

import (
	"context"
	"math/bits"
	"sync"

	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/sat"
)

// This file holds the per-candidate state both polarity cells of the
// grid share: the candidate's cone, extracted once, its density
// verdicts, and the frozen clause-stream prefixes the functional
// analyses fork instead of re-encoding. Each cone is encoded at most
// once per shape — the two-copy Hamming-distance instance, the
// two-copy unateness instance, and the single-copy equivalence-check
// instance — into a sat.Stream, frozen, and shared by both polarity
// cells: polarity only affects the small per-cell delta (output units
// or assumptions), never the prefix. Priming a cell's engine with a
// prefix goes through sat.FrozenLoader: the internal solver copies the
// prefix's replayed image instead of re-adding its clauses, persistent
// process engines upload each prefix once per hash, and the memo
// engine and portfolios record or forward the reference. Only engines
// that are not loaders (the BDD engine) replay the prefix.

// candPrefixes is one candidate's shared state. The dispatch probe
// fills the cone fields and density verdicts before any cell runs;
// the two polarity cells may then race on different workers for the
// prefixes, which are encoded under sync.Once, so the first cell to
// need a prefix encodes it and the other blocks and shares.
// Everything stored is immutable once set.
type candPrefixes struct {
	cone     *circuit.Circuit
	inputMap map[int]int // cone input id -> locked-circuit node id
	inputs   []int       // cone input ids, sorted
	keyDep   bool        // the cone reads a key input: not a stripper

	// dense[pol] is the 256-pattern probe's verdict (dispatch cost);
	// pass[pol] the density filter's (see sampleDensity). Index 0 is
	// the positive polarity, 1 the negated one.
	dense [2]bool
	pass  [2]bool

	hdOnce sync.Once
	hd     *hdPrefix

	unateOnce sync.Once
	unate     *unatePrefix

	eqOnce sync.Once
	eq     *conePrefix
}

// newCandPrefixes extracts candidate node's cone from c.
func newCandPrefixes(c *circuit.Circuit, node int) *candPrefixes {
	cone, im := c.Cone(node)
	p := &candPrefixes{cone: cone, inputMap: im, inputs: cone.Inputs()}
	for _, id := range p.inputs {
		if cone.Nodes[id].IsKey {
			p.keyDep = true
			break
		}
	}
	return p
}

// sampleDensity runs the dispatch probe and the density pre-filter
// (see densityThreshold) for both polarities over one simulation of
// the cone. The probe reads the first 4 words of the
// densityRNG stream and the filter all 256, so both see exactly the
// patterns they would sample alone. On-counts only grow, so a polarity
// passes the filter iff its final count is within the threshold — the
// verdict of a per-polarity early exit — and sampling stops once both
// polarities are over it. Without the filter (disabled, or a
// key-dependent cone the cells reject anyway) only the probe runs.
func (p *candPrefixes) sampleDensity(h int, filter bool) {
	const probeWords, filterWords = 4, 256
	m := len(p.inputs)
	words := probeWords
	if filter && !p.keyDep {
		words = filterWords
	}
	probeThreshold := densityThreshold(probeWords*64, m, h)
	threshold := densityThreshold(filterWords*64, m, h)
	rng := densityRNG(p.cone.Len(), m)
	vals := make([]uint64, p.cone.Len())
	var on, n float64 // positive-polarity on-count, patterns so far
	for w := 0; w < words; w++ {
		for _, in := range p.inputs {
			vals[in] = rng.Uint64()
		}
		p.cone.Simulate(vals)
		on += float64(bits.OnesCount64(vals[p.cone.Outputs[0]]))
		n += 64
		if w+1 == probeWords && m > 0 {
			p.dense = [2]bool{on > probeThreshold, n-on > probeThreshold}
		}
		if w+1 >= probeWords && on > threshold && n-on > threshold {
			break
		}
	}
	p.pass = [2]bool{true, true}
	if words == filterWords {
		p.pass = [2]bool{on <= threshold, n-on <= threshold}
	}
}

// analysis returns a fresh analysis context for one polarity cell of
// the candidate.
func (p *candPrefixes) analysis(ctx context.Context, neg bool, opts *Options) *analysisContext {
	return &analysisContext{ctx: ctx, cone: p.cone, inputMap: p.inputMap, inputs: p.inputs, neg: neg, opts: opts, pre: p}
}

// hdPrefix is the frozen encoding of cone(X) ∧ cone(X') ∧ HD(X, X') =
// 2h shared by SlidingWindow and Distance2H: two circuit copies, the
// pairwise difference literals and the cardinality constraint. The
// per-polarity output units are left to the cell's delta, so one
// prefix serves both polarities.
type hdPrefix struct {
	h      int
	frozen *sat.Frozen
	xs, ys []sat.Lit // copy-1/copy-2 input literals, indexed like a.inputs
	ds     []sat.Lit // ds[i] = xs[i] XOR ys[i]
	f1, f2 sat.Lit   // positive-polarity outputs of the two copies
}

func buildHDPrefix(a *analysisContext, h int) *hdPrefix {
	st := sat.NewStream()
	e := cnf.NewEncoder(st)
	lits1 := e.EncodeCircuitWith(a.cone, nil)
	lits2 := e.EncodeCircuitWith(a.cone, nil)
	p := &hdPrefix{
		h:  h,
		xs: cnf.InputLits(a.inputs, lits1),
		ys: cnf.InputLits(a.inputs, lits2),
		f1: lits1[a.cone.Outputs[0]],
		f2: lits2[a.cone.Outputs[0]],
	}
	p.ds = e.XorPairs(p.xs, p.ys)
	e.ExactlyK(p.ds, 2*h, a.opts.Enc)
	p.frozen = st.Freeze()
	return p
}

func (c *candPrefixes) hdFor(a *analysisContext, h int) *hdPrefix {
	c.hdOnce.Do(func() { c.hd = buildHDPrefix(a, h) })
	if c.hd.h != h {
		// A different distance than the cached one: only possible when the
		// analyses are driven directly with varying h; build unshared.
		return buildHDPrefix(a, h)
	}
	return c.hd
}

// unatePrefix is the frozen two-copy encoding behind checkUnate: the
// copies share nothing, and eq[i] is the literal asserting the copies
// agree on input i. A cell's unateness queries select the flipped
// input and the violating output pattern purely through assumptions,
// so a single engine (and, behind a process engine, a single solver
// session) serves all 2m queries of a cell.
type unatePrefix struct {
	frozen *sat.Frozen
	x0, x1 []sat.Lit // the two copies' input literals, indexed like a.inputs
	eq     []sat.Lit // eq[i] true iff x0[i] == x1[i]
	f0, f1 sat.Lit   // positive-polarity outputs of the two copies
}

func (c *candPrefixes) unateFor(a *analysisContext) *unatePrefix {
	c.unateOnce.Do(func() {
		st := sat.NewStream()
		e := cnf.NewEncoder(st)
		lits0 := e.EncodeCircuitWith(a.cone, nil)
		lits1 := e.EncodeCircuitWith(a.cone, nil)
		u := &unatePrefix{
			x0: cnf.InputLits(a.inputs, lits0),
			x1: cnf.InputLits(a.inputs, lits1),
			f0: lits0[a.cone.Outputs[0]],
			f1: lits1[a.cone.Outputs[0]],
		}
		u.eq = make([]sat.Lit, len(a.inputs))
		for i := range a.inputs {
			u.eq[i] = e.Xor(u.x0[i], u.x1[i]).Neg()
		}
		u.frozen = st.Freeze()
		c.unate = u
	})
	return c.unate
}

// conePrefix is the frozen single-copy cone encoding the equivalence
// check extends with its cube-specific reference comparator and miter.
// The encoder is kept so delta encoders fork its constant-literal
// state (ForkOnto) and stay variable-for-variable identical to a
// direct, unforked construction.
type conePrefix struct {
	frozen *sat.Frozen
	ins    []sat.Lit // cone input literals, indexed like a.inputs
	f      sat.Lit   // positive-polarity output
	enc    *cnf.Encoder
}

func (c *candPrefixes) coneFor(a *analysisContext) *conePrefix {
	c.eqOnce.Do(func() {
		st := sat.NewStream()
		e := cnf.NewEncoder(st)
		lits := e.EncodeCircuitWith(a.cone, nil)
		c.eq = &conePrefix{
			frozen: st.Freeze(),
			ins:    cnf.InputLits(a.inputs, lits),
			f:      lits[a.cone.Outputs[0]],
			enc:    e,
		}
	})
	return c.eq
}
