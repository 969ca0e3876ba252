package main

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/attack"
	"repro/internal/campaign"
	"repro/internal/exp"
	"repro/internal/genbench"
	"repro/internal/obs"
)

// loadWorkers is the number of busy goroutines the benchmark runs:
// nproc of the 2-core machines the baselines were recorded on.
const loadWorkers = 2

// passResult is what one timed pass of a workload produced.
type passResult struct {
	use   usage
	units []unitOutcome
	// busy holds per-unit busy intervals when the workload knows them
	// without tracing (the harness pool's Gate and onDone hooks).
	busy []interval
	// spans holds one span group per trace of a traced pass.
	spans [][]obs.SpanData
	layer map[string]float64
}

// workload is one benchmark workload. setup runs before any timed
// pass and may run several times (the last set-up is the one passes
// use); pass runs the timed phase once.
type workload interface {
	setup(ctx context.Context) error
	pass(ctx context.Context, traced bool) (*passResult, error)
	timeout() time.Duration
	built() buildStats
}

// buildStats splits suite construction into generation and locking.
type buildStats struct {
	generate, lock time.Duration
	lockedGates    int
}

// buildCases builds every spec at every given level with
// exp.BuildCase, on loadWorkers goroutines, seeding cases as
// exp.BuildSuite and campaign plans do. With split set it also times
// genbench.Generate on its own, so locking time is BuildCase time minus
// generation time.
func buildCases(specs []genbench.Spec, levels []exp.HLevel, seed int64, split bool) ([]*exp.Case, buildStats, error) {
	type job struct {
		spec  genbench.Spec
		level exp.HLevel
		seed  int64
	}
	var jobs []job
	for i, spec := range specs {
		for _, level := range levels {
			jobs = append(jobs, job{spec, level, seed + int64(i)*1009})
		}
	}
	cases := make([]*exp.Case, len(jobs))
	errs := make([]error, len(jobs))
	gen := make([]time.Duration, len(jobs))
	build := make([]time.Duration, len(jobs))
	attack.ForEachIndexed(loadWorkers, len(jobs), func(i int) bool {
		j := jobs[i]
		if split {
			t0 := time.Now()
			_, errs[i] = genbench.Generate(j.spec, j.seed)
			gen[i] = time.Since(t0)
		}
		t0 := time.Now()
		if errs[i] == nil {
			cases[i], errs[i] = exp.BuildCase(j.spec, j.level, j.seed)
		}
		build[i] = time.Since(t0)
		return true
	})
	var st buildStats
	for i := range jobs {
		if errs[i] != nil {
			return nil, st, errs[i]
		}
		st.generate += gen[i]
		st.lock += build[i] - gen[i]
		st.lockedGates += cases[i].Lock.Locked.NumGates()
	}
	return cases, st, nil
}

func caseKey(circuit string, level exp.HLevel) string { return circuit + "/" + level.Token() }

// harness drives one report suite, restricted to some locking levels,
// through exp.SuiteUnits and exp.RunUnits on the harness pool, over
// cases built in set-up.
type harness struct {
	cfg    exp.Config
	suite  string
	levels []exp.HLevel
	split  bool // time generation apart from locking in set-up
	cases  []*exp.Case
	build  buildStats
}

func (h *harness) timeout() time.Duration { return h.cfg.Timeout }
func (h *harness) built() buildStats      { return h.build }

func (h *harness) setup(ctx context.Context) error {
	var err error
	h.cases, h.build, err = buildCases(h.cfg.Specs, h.levels, h.cfg.Seed, h.split)
	return err
}

func (h *harness) pass(ctx context.Context, traced bool) (*passResult, error) {
	all, err := exp.SuiteUnits(h.cfg, h.suite)
	if err != nil {
		return nil, err
	}
	var units []exp.Unit
	for _, u := range all {
		if slices.Contains(h.levels, u.Level) {
			units = append(units, u)
		}
	}
	cfg := h.cfg
	sink := &memSink{}
	if traced {
		cfg.Trace = obs.New(sink).Start("perfbench.pass")
	}
	index := make(map[string]int, len(units))
	for i, u := range units {
		index[u.ID()] = i
	}
	// The pool consults Gate as a worker starts a unit and calls onDone
	// as it finishes, so each unit's busy interval is measured on the
	// worker that ran it.
	busy := make([]interval, len(units))
	var mu sync.Mutex
	cfg.Gate = func(u exp.Unit) bool {
		mu.Lock()
		busy[index[u.ID()]].start = time.Now().UnixNano()
		mu.Unlock()
		return true
	}
	onDone := func(i int, _ exp.UnitResult) {
		mu.Lock()
		busy[i].end = time.Now().UnixNano()
		mu.Unlock()
	}
	p0 := takeProbe()
	results, err := exp.RunUnits(ctx, h.cases, units, cfg, onDone)
	p1 := takeProbe()
	cfg.Trace.End()
	if err != nil {
		return nil, err
	}
	byKey := make(map[string]*exp.Case, len(h.cases))
	for _, cs := range h.cases {
		byKey[caseKey(cs.Spec.Name, cs.Level)] = cs
	}
	r := &passResult{use: p1.since(p0), busy: busy, layer: map[string]float64{}}
	for i, u := range units {
		r.units = append(r.units, unitOutcome{
			id: u.ID(), cs: byKey[caseKey(u.Circuit, u.Level)], res: results[i],
			wall: time.Duration(busy[i].end - busy[i].start),
		})
		if f := results[i].Fig6; f != nil && f.KCConfirmed {
			r.layer["keyconfirm.confirmed"]++
		}
	}
	if traced {
		r.spans = [][]obs.SpanData{sink.spans}
	}
	return r, nil
}

// campaignWarm plans a campaign, fills its on-disk verdict memo with a
// cold drain in set-up, and times warm re-drains of the same plan by
// two claim-stealing workers plus the merge.
type campaignWarm struct {
	cfg   campaign.Config
	work  string // scratch directory of this run
	split bool
	plan  *campaign.Plan
	dir   string // campaign directory of the last set-up
	cases map[string]*exp.Case
	build buildStats
	fills int
}

func (c *campaignWarm) timeout() time.Duration { return c.cfg.Timeout }
func (c *campaignWarm) built() buildStats      { return c.build }

func (c *campaignWarm) artifacts() string { return filepath.Join(c.dir, campaign.DefaultArtifactDir) }
func (c *campaignWarm) memoDir() string   { return filepath.Join(c.dir, "memo") }

// setup plans the campaign in a fresh directory and drains it cold,
// which writes every solver verdict into the on-disk memo; the
// artifacts are then deleted so a pass recomputes every case from the
// memo. Each set-up gets its own directory, so a repeated set-up is
// as cold as the first.
func (c *campaignWarm) setup(ctx context.Context) error {
	c.fills++
	c.dir = filepath.Join(c.work, fmt.Sprintf("campaign-%d", c.fills))
	plan, err := campaign.NewPlan(c.cfg)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return err
	}
	if err := campaign.WritePlan(filepath.Join(c.dir, campaign.PlanFileName), plan); err != nil {
		return err
	}
	c.plan = plan
	if _, _, err := c.drain(ctx, nil); err != nil {
		return fmt.Errorf("cold drain: %w", err)
	}
	return os.RemoveAll(c.artifacts())
}

// claimLease is the claim lease of the benchmark's in-process fleet. A
// worker that finds every open case claimed by its peer polls every
// lease/10; the default two-minute lease, sized for remote fleets,
// would make each drain end on a 2 s poll tick. Live claims heartbeat
// every lease/4, so a one-second lease expires only under a stalled
// worker, which campaign.stolen reports.
const claimLease = time.Second

// drain runs two in-process stealing workers over the plan, each with
// one harness worker, sharing the artifact directory and the on-disk
// memo. It returns each worker's wall time and the cases they stole.
func (c *campaignWarm) drain(ctx context.Context, traces []string) ([]time.Duration, int, error) {
	walls := make([]time.Duration, loadWorkers)
	reps := make([]*campaign.RunReport, loadWorkers)
	errs := make([]error, loadWorkers)
	var wg sync.WaitGroup
	for w := 0; w < loadWorkers; w++ {
		opts := campaign.RunOptions{
			Steal: true, Owner: fmt.Sprintf("perfbench-%d", w), Workers: 1, MemoDir: c.memoDir(),
			Lease: claimLease,
		}
		if traces != nil {
			opts.Trace = traces[w]
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			t0 := time.Now()
			reps[w], errs[w] = campaign.Run(ctx, c.plan, c.artifacts(), opts)
			walls[w] = time.Since(t0)
		}(w)
	}
	wg.Wait()
	stolen := 0
	for w := range errs {
		if errs[w] != nil {
			return nil, 0, errs[w]
		}
		stolen += reps[w].Stolen
	}
	return walls, stolen, nil
}

// casesFor builds the plan's instances for verdict checking, outside
// every timed phase, once per run.
func (c *campaignWarm) casesFor() (map[string]*exp.Case, error) {
	if c.cases == nil {
		cases, st, err := buildCases(c.cfg.Specs, exp.Levels, c.cfg.Seed, c.split)
		if err != nil {
			return nil, err
		}
		c.cases, c.build = make(map[string]*exp.Case, len(cases)), st
		for _, cs := range cases {
			c.cases[caseKey(cs.Spec.Name, cs.Level)] = cs
		}
	}
	return c.cases, nil
}

func (c *campaignWarm) pass(ctx context.Context, traced bool) (*passResult, error) {
	cases, err := c.casesFor()
	if err != nil {
		return nil, err
	}
	if err := os.RemoveAll(c.artifacts()); err != nil {
		return nil, err
	}
	var traces []string
	if traced {
		for w := 0; w < loadWorkers; w++ {
			traces = append(traces, filepath.Join(c.dir, fmt.Sprintf("trace-%d.ndjson", w)))
		}
	}
	p0 := takeProbe()
	walls, stolen, err := c.drain(ctx, traces)
	if err != nil {
		return nil, err
	}
	drained := time.Now()
	merged, err := campaign.Merge(c.plan, []string{c.artifacts()})
	if err != nil {
		return nil, err
	}
	p1 := takeProbe()
	r := &passResult{use: p1.since(p0), layer: map[string]float64{}}
	drainWall := drained.Sub(p0.at)
	for _, pc := range c.plan.Cases {
		u := unitOutcome{id: pc.ID, wall: drainWall}
		if a := merged.Artifacts[pc.ID]; a != nil {
			u.res = exp.UnitResult{Outcome: a.Outcome, Fig6: a.Fig6}
			if a.Error != "" {
				u.res.Err = fmt.Errorf("%s", a.Error)
			}
		}
		level, err := exp.ParseHLevel(pc.Level)
		if err != nil {
			return nil, err
		}
		u.cs = cases[caseKey(pc.Circuit, level)]
		r.units = append(r.units, u)
	}

	var workerS float64
	for _, w := range walls {
		workerS += w.Seconds()
	}
	m := r.layer
	m["campaign.worker_s"] = workerS
	m["campaign.merge_s"] = p1.at.Sub(drained).Seconds()
	m["campaign.stolen"] = float64(stolen)
	if m["campaign.artifact_bytes"], err = dirBytes(c.artifacts(), ".json"); err != nil {
		return nil, err
	}
	if m["memo.disk_bytes"], err = dirBytes(c.memoDir(), ""); err != nil {
		return nil, err
	}
	if ms := merged.MemoStats(); ms != nil {
		m["memo.hits_memory"] = float64(ms.Hits)
		m["memo.hits_disk"] = float64(ms.DiskHits)
		m["memo.misses"] = float64(ms.Misses)
		if total := ms.Total(); total > 0 {
			m["memo.hit_ratio"] = float64(ms.Hits+ms.DiskHits) / float64(total)
		}
	}
	if traced {
		var unitS float64
		for _, path := range traces {
			tf, err := obs.ReadTraceFile(path)
			if err != nil {
				return nil, err
			}
			r.spans = append(r.spans, tf.Spans)
			for _, sp := range tf.Spans {
				if sp.Name == "unit" {
					unitS += float64(sp.DurNS) / 1e9
				}
			}
		}
		m["campaign.overhead_s"] = workerS - unitS
	}
	return r, nil
}

// dirBytes sums the sizes of the regular files under dir whose names
// end in suffix.
func dirBytes(dir, suffix string) (float64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(d.Name(), suffix) {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return float64(total), err
}
