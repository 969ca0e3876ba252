package sat

// This file gives *Solver a native FrozenLoader. A frozen prefix is
// replayed once, into a fresh solver, and the resulting state is kept
// on the Frozen as an image; every load then copies that image with a
// handful of slice copies instead of re-adding the prefix clause by
// clause. A replay is deterministic and depends on no solver
// configuration, so the copy is state-identical to replaying the
// prefix into the loading solver itself.

// solverImage is a Frozen's replayed solver state in the form
// LoadFrozen copies: the solver itself, plus all its watch lists
// flattened into one array with per-literal offsets.
type solverImage struct {
	s       *Solver
	watches []watcher // every watch list, literal by literal
	woff    []int     // watch list of literal l is watches[woff[l]:woff[l+1]]
}

// image returns f's solver image, building it on first use. Concurrent
// callers share one build.
func (f *Frozen) image() *solverImage {
	f.imgOnce.Do(func() {
		s := New()
		f.Replay(s)
		img := &solverImage{s: s, woff: make([]int, len(s.watches)+1)}
		for l, ws := range s.watches {
			img.woff[l+1] = img.woff[l] + len(ws)
		}
		img.watches = make([]watcher, 0, img.woff[len(s.watches)])
		for _, ws := range s.watches {
			img.watches = append(img.watches, ws...)
		}
		s.watches = nil // kept flattened only
		f.img = img
	})
	return f.img
}

// LoadFrozen adopts a frozen prefix: the solver ends up exactly as if
// the prefix had been replayed into it (variables, clauses, top-level
// assignments and propagation counters), at the cost of copying the
// prefix's cached image. The solver must be fresh (no variables); its
// configuration, budgets and context are kept. A nil frozen is a
// no-op.
func (s *Solver) LoadFrozen(f *Frozen) {
	if f == nil {
		return
	}
	if len(s.assigns) != 0 {
		panic("sat: LoadFrozen on a non-fresh solver")
	}
	img := f.image()
	src := img.s
	s.ok = s.ok && src.ok
	s.arena = append([]Lit(nil), src.arena...)
	s.clauses = append([]cref(nil), src.clauses...)
	s.assigns = append([]lbool(nil), src.assigns...)
	s.level = append([]int32(nil), src.level...)
	s.reason = append([]cref(nil), src.reason...)
	s.trail = append([]Lit(nil), src.trail...)
	s.qhead = src.qhead
	s.activity = append([]float64(nil), src.activity...)
	s.heap.data = append([]int(nil), src.heap.data...)
	s.heap.indices = append([]int(nil), src.heap.indices...)
	s.polarity = append([]bool(nil), src.polarity...)
	s.seen = make([]bool, len(src.seen))
	s.stats = s.stats.Add(src.stats)

	// One backing array for all watch lists. Each list is capped at its
	// own length, so the first append to a list moves it out instead of
	// overwriting its neighbour.
	flat := append([]watcher(nil), img.watches...)
	s.watches = make([][]watcher, len(img.woff)-1)
	for l := range s.watches {
		lo, hi := img.woff[l], img.woff[l+1]
		s.watches[l] = flat[lo:hi:hi]
	}
}

var _ FrozenLoader = (*Solver)(nil)
