package fall

import (
	"runtime"
	"sort"

	"repro/internal/attack"
	"repro/internal/circuit"
)

// This file implements adaptive dispatch inside the FALL analysis grid:
// candidate×polarity cells are handed to the worker pool in
// longest-expected-first order (the grid-level analogue of
// exp.DispatchOrder), so one late heavy cell cannot run alone after
// every cheap cell has drained. Dispatch order changes scheduling only:
// outcomes are written at the cell's original index and merged in
// candidate order, so the shortlist stays byte-identical to a serial
// run for every worker count.

// cost estimates the relative runtime of one of the candidate's grid
// cells from the probe's measurements. The deterministic cost factors,
// cheapest to probe:
//
//   - cone size: every SAT query Tseitin-encodes the cone (twice for
//     the HD instances), and UNSAT lemma proofs grow with it;
//   - a 256-pattern on-set density probe (dense, see sampleDensity),
//     the same signal the density pre-filter applies on 16384
//     patterns: cells the filter rejects are near-free (no SAT), while
//     cells that pass it run the full analysis plus the
//     equivalence-check UNSAT proof. With the filter disabled
//     (ablation) the relation inverts — dense parity-like cells are
//     precisely the ones whose lemma proofs blow up, so they cost the
//     most.
func (p *candPrefixes) cost(neg bool, h int, filterEnabled bool) int64 {
	pol := 0
	if neg {
		pol = 1
	}
	coneLen := p.cone.Len()
	full := int64(coneLen) * int64(2+h)
	if !p.dense[pol] {
		// Stripper-like density: survives the filter, runs the full
		// analysis and the equivalence-check UNSAT proof.
		return full
	}
	if filterEnabled {
		// The density filter rejects this cell; its simulation sweep
		// already ran in the probe.
		return 1 + int64(coneLen)/64
	}
	// Filter disabled (ablation): dense parity-like cells are the ones
	// whose UNSAT lemma proofs explode.
	return 8 * full
}

// gridDispatchOrder probes every candidate of the grid once — the
// candidate's cone, inputs and density verdicts, kept in the returned
// per-candidate state that both polarity cells then share — and
// returns the indices of jobs sorted longest-expected-first, ties
// broken by job index so the order is deterministic. The probes run on
// the same worker pool the grid itself will use, so they add no serial
// prefix before the first cell dispatches.
func gridDispatchOrder(c *circuit.Circuit, jobs []analysisJob, opts *Options) ([]int, map[int]*candPrefixes) {
	var cands []int
	seen := map[int]bool{}
	for _, j := range jobs {
		if !seen[j.cand] {
			seen[j.cand] = true
			cands = append(cands, j.cand)
		}
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	filter := !opts.DisableDensityFilter
	probed := make([]*candPrefixes, len(cands))
	attack.ForEachIndexed(workers, len(cands), func(i int) bool {
		p := newCandPrefixes(c, cands[i])
		p.sampleDensity(opts.H, filter)
		probed[i] = p
		return true
	})
	pres := make(map[int]*candPrefixes, len(cands))
	for i, cand := range cands {
		pres[cand] = probed[i]
	}
	cost := make([]int64, len(jobs))
	for i, j := range jobs {
		cost[i] = pres[j.cand].cost(j.neg, opts.H, filter)
	}
	order := make([]int, len(jobs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		if cost[order[a]] != cost[order[b]] {
			return cost[order[a]] > cost[order[b]]
		}
		return order[a] < order[b]
	})
	return order, pres
}
