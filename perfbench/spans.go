package main

import (
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// memSink is the benchmark's own obs.Sink: it keeps every span of a
// traced pass in memory, so writing the trace out costs nothing until
// the run ends.
type memSink struct {
	mu    sync.Mutex
	spans []obs.SpanData
}

func (s *memSink) Emit(sp obs.SpanData) {
	s.mu.Lock()
	s.spans = append(s.spans, sp)
	s.mu.Unlock()
}

func (s *memSink) Close() error { return nil }

// interval is a half-open time range [start, end) in nanoseconds.
type interval struct{ start, end int64 }

func spanInterval(sp obs.SpanData) interval {
	return interval{sp.StartNS, sp.StartNS + sp.DurNS}
}

// covered returns how much of within the union of ivs covers. Parallel
// children overlap, so their durations cannot simply be summed.
func covered(within interval, ivs []interval) int64 {
	var clipped []interval
	for _, iv := range ivs {
		s, e := max(iv.start, within.start), min(iv.end, within.end)
		if s < e {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total, curS, curE int64
	open := false
	for _, iv := range clipped {
		switch {
		case !open:
			curS, curE, open = iv.start, iv.end, true
		case iv.start <= curE:
			curE = max(curE, iv.end)
		default:
			total += curE - curS
			curS, curE = iv.start, iv.end
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs and the sample count it rests on; an empty sample gives (0, 0).
func percentile(xs []float64, p float64) (float64, int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := min(max(int(math.Ceil(p/100*float64(len(s)))), 1), len(s))
	return s[rank-1], len(s)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch n := len(s); {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func maxOf(xs []float64) float64 {
	var m float64
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

// queryFamily maps the name of a solver query's parent span to the
// query family it is billed to: FALL grid cells, the SAT attack's
// miter and extraction solvers, key confirmation's P/Q/D solvers, and
// shortlist scoring miters (which parent directly under the unit).
func queryFamily(parent string) string {
	switch parent {
	case "fall.cell":
		return "fall"
	case "sat.miter", "sat.extract":
		return "satattack"
	case "kc.P", "kc.Q", "kc.D":
		return "keyconfirm"
	case "unit":
		return "score"
	}
	return "other"
}

// attrNum reads a numeric span attribute: in-memory spans carry Go
// integers, spans read back from NDJSON carry float64.
func attrNum(sp obs.SpanData, key string) float64 {
	switch v := sp.Attrs[key].(type) {
	case int:
		return float64(v)
	case int64:
		return float64(v)
	case uint64:
		return float64(v)
	case float64:
		return v
	}
	return 0
}

func attrStr(sp obs.SpanData, key string) string {
	s, _ := sp.Attrs[key].(string)
	return s
}

// unitStats summarizes the harness pool from per-unit busy intervals:
// the unit count, the median and slowest unit in seconds, and the
// share of worker capacity left idle over the pass wall time.
func unitStats(units []interval, workers int, wall time.Duration) (n int, p50, maxS, idle float64) {
	var busy int64
	ds := make([]float64, len(units))
	for i, u := range units {
		busy += u.end - u.start
		ds[i] = float64(u.end-u.start) / 1e9
	}
	p50, n = percentile(ds, 50)
	if capacity := float64(workers) * float64(wall); capacity > 0 {
		idle = 1 - float64(busy)/capacity
	}
	return n, p50, maxOf(ds), idle
}

// layerMetrics aggregates the spans of one traced pass into the
// per-layer metrics read from spans. Each group holds the spans of one
// trace (one tracer), since span ids are unique only within a trace.
func layerMetrics(groups [][]obs.SpanData, m map[string]float64) {
	var cellMS, queryUS, diskUS []float64
	var cellKeys, unsat float64
	var unitNS, namedNS int64
	for _, spans := range groups {
		byID := make(map[uint64]obs.SpanData, len(spans))
		children := make(map[uint64][]interval)
		for _, sp := range spans {
			byID[sp.ID] = sp
			if sp.Parent != 0 {
				children[sp.Parent] = append(children[sp.Parent], spanInterval(sp))
			}
		}
		for _, sp := range spans {
			sec := float64(sp.DurNS) / 1e9
			switch sp.Name {
			case "unit":
				unitNS += sp.DurNS
				namedNS += covered(spanInterval(sp), children[sp.ID])
			case "fall.comparators":
				m["fall.comparators_s"] += sec
			case "fall.match":
				m["fall.match_s"] += sec
				m["fall.candidates"] += attrNum(sp, "candidates")
			case "fall.cell":
				m["fall.cells"]++
				m["fall.cell_s"] += sec
				m["fall.cell_self_s"] += float64(sp.DurNS-covered(spanInterval(sp), children[sp.ID])) / 1e9
				cellMS = append(cellMS, sec*1e3)
				if attrStr(sp, "outcome") == "key" {
					cellKeys++
				}
			case "sat.miter":
				m["satattack.iterations"] += attrNum(sp, "iterations")
				m["satattack.s"] += sec
			case "kc.P":
				m["keyconfirm.iterations"] += attrNum(sp, "iterations")
				m["keyconfirm.s"] += sec
			case "query":
				m["sat.queries"]++
				m["sat.conflicts"] += attrNum(sp, "conflicts")
				m["sat.decisions"] += attrNum(sp, "decisions")
				m["sat.solve_s"] += sec
				queryUS = append(queryUS, sec*1e6)
				if attrStr(sp, "verdict") == "UNSAT" {
					unsat++
				}
				if fam := queryFamily(byID[sp.Parent].Name); fam != "other" {
					m["sat.solve_s."+fam] += sec
				}
				if attrStr(sp, "memo") == "disk" {
					diskUS = append(diskUS, sec*1e6)
				}
			}
		}
	}
	if m["fall.cells"] > 0 {
		m["fall.cell_yield"] = cellKeys / m["fall.cells"]
	}
	m["fall.cell_p50_ms"], _ = percentile(cellMS, 50)
	m["fall.cell_max_ms"] = maxOf(cellMS)
	if m["sat.queries"] > 0 {
		m["sat.unsat_frac"] = unsat / m["sat.queries"]
	}
	m["sat.query_p50_us"], _ = percentile(queryUS, 50)
	m["sat.query_max_ms"] = maxOf(queryUS) / 1e3
	m["memo.disk_hit_us_p50"], _ = percentile(diskUS, 50)
	if unitNS > 0 {
		m["trace.named_frac"] = float64(namedNS) / float64(unitNS)
	}
}

// unitIntervals collects the "unit" spans of the groups as busy
// intervals (campaign workers report their units only through traces).
func unitIntervals(groups [][]obs.SpanData) []interval {
	var out []interval
	for _, spans := range groups {
		for _, sp := range spans {
			if sp.Name == "unit" {
				out = append(out, spanInterval(sp))
			}
		}
	}
	return out
}
