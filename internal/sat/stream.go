package sat

import (
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"fmt"
	"hash"
	"sync"
)

// This file implements the frozen clause stream at the heart of the
// incremental-solving core: a Stream buffers the variable/clause stream
// an encoder produces instead of feeding an engine directly, Freeze()
// snapshots it into an immutable content-hashed prefix, and Fork()
// hands each consumer a copy-on-write continuation. Replaying a stream
// into any Engine reproduces exactly the calls direct construction
// would have made — same variable numbering, same clause order, same
// interleaving — so a replayed engine is state-identical to one built
// from scratch. The content hashes are what the higher tiers key on:
// persistent solver sessions load a frozen prefix once per hash, and
// the verdict memo cache keys queries by (prefix hash, delta hash,
// assumptions).

// streamOp is one step of the recorded stream: allocate newVars fresh
// variables, then (when hasClause) add clause. Recording the
// interleaving — rather than "all vars, then all clauses" — keeps
// replay byte-faithful to direct construction, which matters because
// unit propagation fires during AddClause on the internal engine.
type streamOp struct {
	newVars   int
	clause    []Lit
	hasClause bool
}

// writeOp appends the op's canonical byte encoding to the digest.
func (op streamOp) writeOp(d hash.Hash) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], uint64(op.newVars))
	d.Write(buf[:n])
	if !op.hasClause {
		n = binary.PutUvarint(buf[:], 0)
		d.Write(buf[:n])
		return
	}
	n = binary.PutUvarint(buf[:], uint64(len(op.clause))+1)
	d.Write(buf[:n])
	for _, l := range op.clause {
		n = binary.PutUvarint(buf[:], uint64(l))
		d.Write(buf[:n])
	}
}

// replayOp applies the op to an engine.
func (op streamOp) replayOp(e Engine) bool {
	for i := 0; i < op.newVars; i++ {
		e.NewVar()
	}
	if op.hasClause {
		return e.AddClause(op.clause...)
	}
	return true
}

// Hash is the content hash of a frozen prefix (or of a delta).
type Hash [sha256.Size]byte

// String renders the hash in hex.
func (h Hash) String() string { return fmt.Sprintf("%x", h[:]) }

// EmptyHash is the hash of the empty stream — the prefix hash of an
// engine that was never primed with a frozen prefix.
var EmptyHash = Hash(sha256.Sum256(nil))

// Frozen is an immutable, content-hashed snapshot of a clause stream:
// a chain of op segments ending at this one (parent side built first).
// Freezing never copies clause data, and Fork is O(1) — forks share
// the chain and append only their own deltas, so a grid of cells over
// one encoded circuit holds one copy of its CNF.
type Frozen struct {
	parent *Frozen
	ops    []streamOp
	nVars  int // total variables through this segment
	ok     bool
	hash   Hash

	// The internal solver's replayed image, built on first LoadFrozen
	// (see image.go).
	imgOnce sync.Once
	img     *solverImage
}

// NumVars returns the number of variables the frozen stream allocates.
func (f *Frozen) NumVars() int {
	if f == nil {
		return 0
	}
	return f.nVars
}

// Ok reports whether the stream is still possibly satisfiable (false
// once an empty clause was recorded).
func (f *Frozen) Ok() bool {
	if f == nil {
		return true
	}
	return f.ok
}

// Hash returns the chain content hash: equal hashes mean equal
// variable/clause streams (up to SHA-256 collisions).
func (f *Frozen) Hash() Hash {
	if f == nil {
		return EmptyHash
	}
	return f.hash
}

// Fork returns a fresh copy-on-write Stream extending the frozen
// prefix: O(1), sharing the prefix chain, with an empty delta.
func (f *Frozen) Fork() *Stream {
	s := NewStream()
	s.base = f
	if f != nil {
		s.nVars = f.nVars
		s.ok = f.ok
	}
	return s
}

// Ops walks the whole chain oldest-first, calling fn for every op:
// allocate newVars variables, then — when addClause — add clause. The
// clause slice is shared; callers must not retain or mutate it.
func (f *Frozen) Ops(fn func(newVars int, clause []Lit, addClause bool)) {
	if f == nil {
		return
	}
	f.parent.Ops(fn)
	for _, op := range f.ops {
		fn(op.newVars, op.clause, op.hasClause)
	}
}

// Replay reproduces the frozen stream into an engine, which must be
// fresh (no variables). It returns the conjunction of AddClause
// verdicts, like direct construction would have.
func (f *Frozen) Replay(e Engine) bool {
	ok := true
	f.Ops(func(newVars int, clause []Lit, addClause bool) {
		for i := 0; i < newVars; i++ {
			e.NewVar()
		}
		if addClause {
			ok = e.AddClause(clause...) && ok
		}
	})
	return ok
}

// FrozenLoader is implemented by engines that can adopt a frozen
// prefix without per-clause replay: the internal *Solver (which copies
// the prefix's cached replay image, see image.go), the DIMACS-pipe
// engine (which defers the dump, and in persistent mode loads the
// prefix into its long-lived solver process once per hash), the memo
// engine (which records the reference) and Portfolio (which forwards
// to every member). Prime is the one entry point; LoadFrozen requires
// a fresh engine.
type FrozenLoader interface {
	LoadFrozen(f *Frozen)
}

// Prime loads a frozen prefix into a fresh engine through its
// FrozenLoader, or by an exact replay for engines that are not one
// (e.g. the BDD engine). A nil frozen
// is a no-op, so Prime(e, nil) is always safe.
func Prime(e Engine, f *Frozen) {
	if f == nil {
		return
	}
	if fl, ok := e.(FrozenLoader); ok {
		fl.LoadFrozen(f)
		return
	}
	f.Replay(e)
}

// LoadFrozen adopts a frozen prefix in every member engine (O(1) for
// members that are themselves FrozenLoaders). The portfolio must be
// fresh.
func (p *Portfolio) LoadFrozen(f *Frozen) {
	for _, e := range p.engines {
		Prime(e, f)
	}
}

var _ FrozenLoader = (*Portfolio)(nil)

// ClauseSink is the encoder-facing subset of Engine — variable
// allocation and clause addition. Every solving Engine and a buffering
// Stream both satisfy it, so formula builders (cnf.Encoder) can target
// either without caring whether clauses go to a solver or a stream.
type ClauseSink interface {
	NewVar() int
	NumVars() int
	AddClause(lits ...Lit) bool
}

var (
	_ ClauseSink = (*Stream)(nil)
	_ ClauseSink = Engine(nil)
)

// Stream buffers an incremental variable/clause stream. It exposes the
// encoder-facing subset of Engine (ClauseSink), so a cnf.Encoder can
// build a formula into a Stream exactly as it would into a solver;
// Freeze() then snapshots the stream for sharing and the encoder (or a
// fork's consumer) keeps appending deltas. A Stream is not safe for
// concurrent use; freeze it and hand each consumer its own Fork.
type Stream struct {
	base        *Frozen
	ops         []streamOp
	pendingVars int // NewVar calls since the last recorded op
	nVars       int
	ok          bool
	digest      hash.Hash // running digest over the delta ops
}

// NewStream returns an empty stream.
func NewStream() *Stream {
	return &Stream{ok: true, digest: sha256.New()}
}

// Base returns the frozen prefix this stream extends (nil for a root
// stream).
func (s *Stream) Base() *Frozen { return s.base }

// NewVar introduces a fresh variable and returns its index.
func (s *Stream) NewVar() int {
	v := s.nVars
	s.nVars++
	s.pendingVars++
	return v
}

// NumVars returns the number of variables created so far (prefix
// included).
func (s *Stream) NumVars() int { return s.nVars }

// AddClause records a clause. Like the DIMACS-pipe engine, a buffering
// stream detects only the trivial top-level conflict (the empty
// clause); deeper conflicts surface when the stream replays into a
// propagating engine.
func (s *Stream) AddClause(lits ...Lit) bool {
	cl := make([]Lit, len(lits))
	copy(cl, lits)
	op := streamOp{newVars: s.pendingVars, clause: cl, hasClause: true}
	s.pendingVars = 0
	s.ops = append(s.ops, op)
	op.writeOp(s.digest)
	if len(lits) == 0 {
		s.ok = false
	}
	return s.ok
}

// flushVars records any trailing NewVar calls as a clause-less op so
// hashing and replay account for them.
func (s *Stream) flushVars() {
	if s.pendingVars == 0 {
		return
	}
	op := streamOp{newVars: s.pendingVars}
	s.pendingVars = 0
	s.ops = append(s.ops, op)
	op.writeOp(s.digest)
}

// deltaSum finalizes a copy of the running delta digest, folding in the
// variable count, without disturbing the stream.
func (s *Stream) deltaSum() Hash {
	d := sha256.New()
	state, err := s.digest.(encoding.BinaryMarshaler).MarshalBinary()
	if err != nil {
		panic("sat: stream digest does not marshal: " + err.Error())
	}
	if err := d.(encoding.BinaryUnmarshaler).UnmarshalBinary(state); err != nil {
		panic("sat: stream digest does not unmarshal: " + err.Error())
	}
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], uint64(s.nVars))
	d.Write(buf[:n])
	var h Hash
	d.Sum(h[:0])
	return h
}

// DeltaHash returns the content hash of the ops added since the last
// Freeze (or since creation), including trailing variable allocations
// and the total variable count.
func (s *Stream) DeltaHash() Hash {
	s.flushVars()
	return s.deltaSum()
}

// Freeze snapshots the stream into an immutable Frozen and resets the
// delta: subsequent ops extend the new frozen prefix. When nothing was
// added since the previous Freeze, the existing prefix is returned
// unchanged (no empty chain links).
func (s *Stream) Freeze() *Frozen {
	s.flushVars()
	if len(s.ops) == 0 && s.base != nil {
		return s.base
	}
	d := sha256.New()
	if s.base != nil {
		d.Write(s.base.hash[:])
	}
	state, err := s.digest.(encoding.BinaryMarshaler).MarshalBinary()
	if err != nil {
		panic("sat: stream digest does not marshal: " + err.Error())
	}
	var buf [binary.MaxVarintLen64]byte
	d.Write(state)
	n := binary.PutUvarint(buf[:], uint64(s.nVars))
	d.Write(buf[:n])
	var h Hash
	d.Sum(h[:0])
	f := &Frozen{parent: s.base, ops: s.ops, nVars: s.nVars, ok: s.ok, hash: h}
	s.base = f
	s.ops = nil
	s.digest = sha256.New()
	return f
}

// Ops walks the prefix chain and the unfrozen delta oldest-first (see
// Frozen.Ops), trailing variable allocations included.
func (s *Stream) Ops(fn func(newVars int, clause []Lit, addClause bool)) {
	s.flushVars()
	s.base.Ops(fn)
	for _, op := range s.ops {
		fn(op.newVars, op.clause, op.hasClause)
	}
}

// Replay reproduces the whole stream — prefix chain plus delta — into
// a fresh engine.
func (s *Stream) Replay(e Engine) bool {
	ok := true
	s.Ops(func(newVars int, clause []Lit, addClause bool) {
		for i := 0; i < newVars; i++ {
			e.NewVar()
		}
		if addClause {
			ok = e.AddClause(clause...) && ok
		}
	})
	return ok
}
