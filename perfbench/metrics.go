package main

// metric is one reported figure. For a per-layer metric, moves names
// the end-to-end metric it should move and the workloads where it
// should, then after "flat on" where it should not. BENCHMARK.json
// lists the same names, units and directions, in the same order.
type metric struct {
	name, unit, better string
	moves              string
}

// endToEnd metrics come from untraced passes. Peak RSS is printed
// beside them but is not one of them: it is a maximum over units, set
// by the seed's largest FALL unit, so it spreads across seeds by more
// than any bound a regression gate could use.
var endToEnd = []metric{
	{"wall_s", "s", "lower", ""},
	{"cpu_s", "s", "lower", ""},
	{"setup_s", "s", "lower", ""},
}

// perLayer metrics come from a traced pass, except go.* (the untraced
// pass of the same run, so tracing allocations do not count).
var perLayer = []metric{
	{"genbench.generate_s", "s", "lower", "setup_s on all workloads; flat on wall_s"},
	{"lock.sfllhd_s", "s", "lower", "setup_s on all workloads; flat on wall_s"},
	{"lock.locked_gates", "count", "lower", "setup_s on all workloads; flat on wall_s"},

	{"fall.comparators_s", "s", "lower", "wall_s on summary-small (tiny share); flat on fig6-tiny"},
	{"fall.match_s", "s", "lower", "wall_s on summary-small (tiny share); flat on fig6-tiny"},
	{"fall.candidates", "count", "lower", "wall_s on summary-small (tiny share); flat on fig6-tiny"},

	{"fall.cells", "count", "lower", "wall_s, cpu_s on summary-small, campaign-warm; flat on fig6-tiny"},
	{"fall.cell_s", "s", "lower", "wall_s, cpu_s on summary-small, campaign-warm; flat on fig6-tiny"},
	{"fall.cell_self_s", "s", "lower", "wall_s, cpu_s on summary-small, campaign-warm; flat on fig6-tiny"},
	{"fall.cell_yield", "ratio", "higher", "wall_s, cpu_s on summary-small, campaign-warm; flat on fig6-tiny"},
	{"fall.cell_p50_ms", "ms", "lower", "wall_s, cpu_s on summary-small, campaign-warm; flat on fig6-tiny"},
	{"fall.cell_max_ms", "ms", "lower", "wall_s, cpu_s on summary-small, campaign-warm; flat on fig6-tiny"},

	{"sat.queries", "count", "lower", "wall_s, cpu_s on summary-small, fig6-tiny; flat on campaign-warm"},
	{"sat.conflicts", "count", "lower", "wall_s, cpu_s on summary-small, fig6-tiny; flat on campaign-warm"},
	{"sat.decisions", "count", "lower", "wall_s, cpu_s on summary-small, fig6-tiny; flat on campaign-warm"},
	{"sat.unsat_frac", "ratio", "lower", "wall_s, cpu_s on summary-small, fig6-tiny; flat on campaign-warm"},
	{"sat.solve_s", "s", "lower", "wall_s, cpu_s on summary-small, fig6-tiny; flat on campaign-warm"},
	{"sat.query_p50_us", "us", "lower", "wall_s, cpu_s on summary-small, fig6-tiny; flat on campaign-warm"},
	{"sat.query_max_ms", "ms", "lower", "wall_s, cpu_s on summary-small, fig6-tiny; flat on campaign-warm"},
	{"sat.solve_s.fall", "s", "lower", "wall_s, cpu_s on summary-small; flat on campaign-warm"},
	{"sat.solve_s.satattack", "s", "lower", "wall_s, cpu_s on fig6-tiny; flat on summary-small"},
	{"sat.solve_s.keyconfirm", "s", "lower", "wall_s, cpu_s on fig6-tiny; flat on summary-small"},
	{"sat.solve_s.score", "s", "lower", "wall_s, cpu_s on fig6-tiny, summary-small; flat on campaign-warm"},

	{"satattack.iterations", "count", "lower", "wall_s on fig6-tiny; flat on summary-small"},
	{"satattack.s", "s", "lower", "wall_s on fig6-tiny; flat on summary-small"},
	{"keyconfirm.iterations", "count", "lower", "wall_s on fig6-tiny; flat on summary-small"},
	{"keyconfirm.s", "s", "lower", "wall_s on fig6-tiny; flat on summary-small"},
	{"keyconfirm.confirmed", "count", "higher", "wall_s on fig6-tiny; flat on summary-small"},

	{"memo.hits_memory", "count", "higher", "wall_s on campaign-warm (reads), its setup_s (writes); flat on summary-small"},
	{"memo.hits_disk", "count", "higher", "wall_s on campaign-warm (reads), its setup_s (writes); flat on summary-small"},
	{"memo.misses", "count", "lower", "wall_s on campaign-warm (reads), its setup_s (writes); flat on summary-small"},
	{"memo.hit_ratio", "ratio", "higher", "wall_s on campaign-warm (reads), its setup_s (writes); flat on summary-small"},
	{"memo.disk_hit_us_p50", "us", "lower", "wall_s on campaign-warm (reads), its setup_s (writes); flat on summary-small"},
	{"memo.disk_bytes", "bytes", "lower", "wall_s on campaign-warm (reads), its setup_s (writes); flat on summary-small"},

	{"exp.units", "count", "lower", "wall_s but not cpu_s, most on fig6-tiny"},
	{"exp.unit_p50_s", "s", "lower", "wall_s but not cpu_s, most on fig6-tiny"},
	{"exp.unit_max_s", "s", "lower", "wall_s but not cpu_s, most on fig6-tiny"},
	{"exp.idle_frac", "ratio", "lower", "wall_s but not cpu_s, most on fig6-tiny"},

	{"campaign.worker_s", "s", "lower", "wall_s on campaign-warm; flat on summary-small, fig6-tiny"},
	{"campaign.overhead_s", "s", "lower", "wall_s on campaign-warm; flat on summary-small, fig6-tiny"},
	{"campaign.merge_s", "s", "lower", "wall_s on campaign-warm; flat on summary-small, fig6-tiny"},
	{"campaign.stolen", "count", "lower", "wall_s on campaign-warm; flat on summary-small, fig6-tiny"},
	{"campaign.artifact_bytes", "bytes", "lower", "wall_s on campaign-warm; flat on summary-small, fig6-tiny"},

	{"go.mallocs", "count", "lower", "cpu_s first, then wall_s and peak_rss_mb, on summary-small, campaign-warm; flat on fig6-tiny"},
	{"go.alloc_mb", "MiB", "lower", "cpu_s first, then wall_s and peak_rss_mb, on summary-small, campaign-warm; flat on fig6-tiny"},
	{"go.gc_cycles", "count", "lower", "cpu_s first, then wall_s and peak_rss_mb, on summary-small, campaign-warm; flat on fig6-tiny"},
	{"go.gc_pause_ms", "ms", "lower", "cpu_s first, then wall_s and peak_rss_mb, on summary-small, campaign-warm; flat on fig6-tiny"},

	{"trace.overhead_frac", "ratio", "lower", "none: the cost of tracing itself"},
	{"trace.named_frac", "ratio", "higher", "none: share of unit time a named child span explains"},
}
