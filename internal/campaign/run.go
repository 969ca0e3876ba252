package campaign

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/attack"
	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/sat"
)

// caseNeed identifies one locked instance a shard must build: spec
// index plus hardness level (the pure inputs of exp.BuildCase).
type caseNeed struct {
	specIdx int
	level   exp.HLevel
}

// RunOptions tunes a shard execution.
type RunOptions struct {
	// ShardIndex / ShardCount select the shard; zero values mean the
	// whole plan (1 shard).
	ShardIndex int
	ShardCount int
	// Workers bounds harness concurrency; <= 0 means all cores.
	Workers int
	// Log, when non-nil, receives one progress line per case.
	Log io.Writer
	// Memo shares one cross-query verdict cache across the shard's
	// cases (sat.NewMemo). Verdicts are unchanged — memoized artifacts
	// additionally carry solve-time and hit/miss diagnostics, which a
	// merge aggregates.
	Memo bool
	// MemoDir, when non-empty, attaches the persistent on-disk verdict
	// store at this directory as the memo's L2 tier (implies Memo) and
	// shares it across shards, reruns, and daemon restarts. Empty falls
	// back to the plan's recorded Config.MemoDir.
	MemoDir string
	// MemoMaxBytes caps the on-disk store's size (<= 0 means
	// sat.DefaultDiskMemoBytes); past the cap, least-recently-used
	// records are evicted.
	MemoMaxBytes int64
	// Trace, when non-empty, writes an NDJSON span trace of the shard
	// to this path (atomic temp+rename; the file appears only when the
	// shard finishes). Per-shard trace files merge in `campaign merge
	// -traces` and cmd/tracestat.
	Trace string
	// Steal switches from index-modulo sharding to claim-file work
	// stealing: every worker draws from the whole plan, claiming each
	// case via an O_EXCL claim file next to its artifact path, so any
	// number of heterogeneous processes pointed at one shared artifact
	// directory drain the plan cooperatively. Incompatible with
	// ShardCount > 1 (stealing replaces index-modulo).
	Steal bool
	// Owner identifies this worker in claim files, progress lines and
	// budget markers; empty means DefaultOwner() (host-pid).
	Owner string
	// Lease is the claim staleness horizon for stealing: a claim not
	// heartbeated for this long is treated as abandoned by a dead
	// worker and re-stolen. <= 0 means DefaultLease.
	Lease time.Duration
	// Budget, when > 0, is the run's wall-clock budget: once it
	// elapses the run stops starting (or claiming) new cases, lets
	// in-flight ones finish, and reports BudgetStopped — the remaining
	// cases are healthy, just unstarted, and a resumed run completes
	// them. cmd/campaign maps BudgetStopped to exit code 4 so CI can
	// requeue a continuation.
	Budget time.Duration
	// TimesFrom lists artifact directories of prior runs whose
	// recorded per-case wall times (ObservedTimes) refine the dispatch
	// cost model: observed cases are scheduled by measurement,
	// longest first, and unmeasured ones by the calibrated model
	// (exp.DispatchOrderObserved). Scheduling only — verdicts are
	// unaffected.
	TimesFrom []string
	// SolverOverride replaces the plan's solver engine spec for this
	// worker only — runtime configuration, not part of the plan hash.
	// It is how a heterogeneous fleet maps workers to their hardware
	// (and how the fleet benchmark simulates a slow machine with the
	// sleeping stub solver). The override must be verdict-equivalent
	// to the plan's engine; artifacts record the setup actually used.
	SolverOverride string

	// afterArtifact is a test seam invoked after each artifact lands on
	// disk (used to kill a shard deterministically mid-flight).
	afterArtifact func(caseID string)
}

// RunReport summarizes a shard execution.
type RunReport struct {
	// ShardCases counts the plan cases belonging to the shard.
	ShardCases int
	// Skipped counts cases whose artifact already existed (resume).
	Skipped int
	// Ran counts cases executed and persisted by this run.
	Ran int
	// Failed counts shard cases whose artifact (pre-existing or fresh)
	// records a failure.
	Failed int
	// Stolen counts cases this run took over from an expired lease
	// (stealing only).
	Stolen int
	// Remaining counts cases still without an artifact when the run
	// returned — nonzero only for budget-stopped (or gated) runs.
	Remaining int
	// BudgetStopped reports the run stopped claiming work because its
	// wall-clock budget expired while cases remained.
	BudgetStopped bool
}

// Run executes one shard of the plan, writing one artifact per
// completed case into artifactDir. Re-running is idempotent: cases
// whose artifact already exists are validated against the plan hash and
// skipped, so a killed shard resumes from what it persisted (atomic
// artifact writes guarantee everything on disk is complete). A
// cancelled context stops attack work promptly — pending units
// short-circuit before any solver setup, in-flight ones drain through
// their own context checks — and neither kind persists an artifact;
// Run returns the context error alongside the partial report.
func Run(ctx context.Context, plan *Plan, artifactDir string, opts RunOptions) (*RunReport, error) {
	if opts.ShardCount == 0 {
		opts.ShardCount = 1
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.Steal && opts.ShardCount > 1 {
		return nil, errors.New("campaign: -steal replaces index-modulo sharding; run stealing workers with shards=1 and a shared artifact dir")
	}
	if opts.Owner == "" {
		opts.Owner = DefaultOwner()
	}
	idxs, err := plan.ShardIndices(opts.ShardIndex, opts.ShardCount)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(artifactDir, 0o755); err != nil {
		return nil, err
	}
	planCfg := plan.Config
	if opts.SolverOverride != "" {
		planCfg.Solver = opts.SolverOverride
		planCfg.Portfolio = 0
		planCfg.PortfolioEngines = ""
	}
	expCfg, err := planCfg.ExpConfig()
	if err != nil {
		return nil, err
	}
	// Resolve the engines again through the checked path: a solver
	// binary missing on this machine fails fast instead of as a shard
	// full of Unknown verdicts.
	solver, portfolio, _ := planCfg.solverFlags()
	if err := expCfg.ApplySolverFlags(solver, portfolio); err != nil {
		return nil, err
	}
	expCfg.Workers = opts.Workers
	memoDir := opts.MemoDir
	if memoDir == "" {
		memoDir = plan.Config.MemoDir
	}
	if opts.Memo || memoDir != "" {
		expCfg.Memo = sat.NewMemo(sat.DefaultMemoEntries)
		if memoDir != "" {
			disk, err := sat.OpenDiskMemo(memoDir, opts.MemoMaxBytes)
			if err != nil {
				return nil, fmt.Errorf("campaign: memo dir: %w", err)
			}
			expCfg.Memo.AttachDisk(disk)
		}
	}
	if opts.Trace != "" {
		tracer, err := obs.NewFileTracer(opts.Trace)
		if err != nil {
			return nil, fmt.Errorf("campaign: trace: %w", err)
		}
		root := tracer.Start("campaign.shard",
			"plan", plan.Hash, "shard", opts.ShardIndex, "shards", opts.ShardCount)
		expCfg.Trace = root
		defer func() {
			root.End()
			if err := tracer.Close(); err != nil && opts.Log != nil {
				fmt.Fprintf(opts.Log, "campaign: trace: %v\n", err)
			}
		}()
	}
	if len(opts.TimesFrom) > 0 {
		expCfg.Observed = ObservedTimes(opts.TimesFrom)
	}
	var deadline time.Time
	if opts.Budget > 0 {
		deadline = time.Now().Add(opts.Budget)
	}
	budgetExceeded := func() bool {
		return opts.Budget > 0 && !time.Now().Before(deadline)
	}

	if opts.Steal {
		return runSteal(ctx, plan, artifactDir, opts, expCfg, deadline)
	}
	if opts.Budget > 0 {
		// The harness gate refuses to start new units past the
		// deadline; in-flight units finish and persist normally.
		expCfg.Gate = func(exp.Unit) bool { return !budgetExceeded() }
	}

	report := &RunReport{ShardCases: len(idxs)}
	var todo []int
	for _, i := range idxs {
		path := ArtifactPath(artifactDir, plan.Cases[i].ID)
		a, err := ReadArtifact(path)
		switch {
		case err == nil:
			if a.PlanHash != plan.Hash {
				return nil, fmt.Errorf("campaign: existing artifact %s belongs to plan %.12s…, this plan is %.12s… (stale artifact directory?)", path, a.PlanHash, plan.Hash)
			}
			if a.CaseID != plan.Cases[i].ID {
				return nil, fmt.Errorf("campaign: artifact %s names case %s, want %s", path, a.CaseID, plan.Cases[i].ID)
			}
			report.Skipped++
			if a.Failed() {
				report.Failed++
			}
		case errors.Is(err, fs.ErrNotExist):
			todo = append(todo, i)
		default:
			return nil, fmt.Errorf("campaign: unreadable artifact %s: %w (delete it to recompute the case)", path, err)
		}
	}
	if len(todo) == 0 {
		removeBudgetMarker(artifactDir, opts.Owner)
		return report, ctx.Err()
	}

	units := make([]exp.Unit, len(todo))
	need := map[caseNeed]bool{}
	for j, i := range todo {
		u, err := plan.Cases[i].Unit()
		if err != nil {
			return nil, err
		}
		units[j] = u
		if u.Kind == exp.UnitTable1 {
			for _, level := range exp.Levels {
				need[caseNeed{plan.Cases[i].SpecIdx, level}] = true
			}
		} else {
			need[caseNeed{plan.Cases[i].SpecIdx, u.Level}] = true
		}
	}

	// Build only the locked instances this shard actually attacks, in a
	// deterministic order, concurrently (generation and locking are pure
	// functions of the derived per-case seed).
	needList := make([]caseNeed, 0, len(need))
	for n := range need {
		needList = append(needList, n)
	}
	sort.Slice(needList, func(a, b int) bool {
		if needList[a].specIdx != needList[b].specIdx {
			return needList[a].specIdx < needList[b].specIdx
		}
		return needList[a].level < needList[b].level
	})
	cases := make([]*exp.Case, len(needList))
	buildErrs := make([]error, len(needList))
	attack.ForEachIndexed(opts.Workers, len(needList), func(i int) bool {
		n := needList[i]
		spec := plan.Config.Specs[n.specIdx]
		cases[i], buildErrs[i] = exp.BuildCase(spec, n.level, plan.Config.Seed+int64(n.specIdx)*1009)
		return true
	})
	for _, err := range buildErrs {
		if err != nil {
			return nil, fmt.Errorf("campaign: build suite: %w", err)
		}
	}

	var mu sync.Mutex
	var writeErr error
	onDone := func(j int, r exp.UnitResult) {
		// A cancelled context means in-flight attacks were cut short:
		// their truncated verdicts must not be persisted as completed
		// cases (a resume will recompute them). Cancellation is
		// monotone, so any unit that observed it is caught here.
		if ctx.Err() != nil {
			return
		}
		pc := plan.Cases[todo[j]]
		a := newArtifact(plan.Hash, pc, r)
		if err := WriteArtifact(artifactDir, a); err != nil {
			mu.Lock()
			if writeErr == nil {
				writeErr = err
			}
			mu.Unlock()
			return
		}
		mu.Lock()
		report.Ran++
		if a.Failed() {
			report.Failed++
		}
		mu.Unlock()
		if opts.Log != nil {
			status := "ok"
			if a.Failed() {
				status = "FAILED"
			}
			fmt.Fprintf(opts.Log, "campaign: %s %s\n", pc.ID, status)
		}
		if opts.afterArtifact != nil {
			opts.afterArtifact(pc.ID)
		}
	}
	if _, err := exp.RunUnits(ctx, cases, units, expCfg, onDone); err != nil {
		return report, err
	}
	if writeErr != nil {
		return report, writeErr
	}
	if expCfg.Memo != nil && opts.Log != nil {
		logMemoStats(opts.Log, expCfg.Memo)
	}
	if ctx.Err() == nil {
		// Cases neither resumed nor persisted were gated out by the
		// budget (the only skip path once the context survived).
		report.Remaining = report.ShardCases - report.Skipped - report.Ran
		switch {
		case report.Remaining == 0:
			removeBudgetMarker(artifactDir, opts.Owner)
		case budgetExceeded():
			report.BudgetStopped = true
			if err := writeBudgetMarker(artifactDir, opts.Owner, report.Remaining); err != nil && opts.Log != nil {
				fmt.Fprintf(opts.Log, "campaign: budget marker: %v\n", err)
			}
		}
	}
	return report, ctx.Err()
}

// logMemoStats prints the shard's memo hit/miss counters (and the disk
// tier's, when attached) to the progress log.
func logMemoStats(w io.Writer, memo *sat.Memo) {
	st := memo.Stats()
	fmt.Fprintf(w, "campaign: memo: %d hits / %d misses (%d entries)\n",
		st.Hits, st.Misses, memo.Len())
	if disk := memo.Disk(); disk != nil {
		ds := disk.Stats()
		fmt.Fprintf(w,
			"campaign: memo disk: %d hits / %d misses, %d records / %d bytes (%d writes, %d evicted, %d corrupt)\n",
			ds.Hits, ds.Misses, ds.Entries, ds.Bytes, ds.Writes, ds.Evictions, ds.Corrupt)
	}
}

// DeleteFailed removes every artifact under dir that records a failure
// for one of the given plan-case indices (nil = the whole plan),
// returning the deleted case IDs in plan order — the first half of
// `campaign retry`: delete the failures, then Run recomputes exactly
// the now-missing cases (and resume semantics keep every healthy
// artifact untouched). The index restriction matters under sharding: a
// retrying shard must not delete another shard's failed artifact it
// will never recompute, or the campaign would degrade from "completed
// with failures" to incomplete. Artifacts from foreign plans are an
// error, exactly as in a merge.
func DeleteFailed(plan *Plan, dir string, idxs []int) ([]string, error) {
	if idxs == nil {
		idxs = make([]int, len(plan.Cases))
		for i := range idxs {
			idxs[i] = i
		}
	}
	arts, err := ReadArtifacts(plan, []string{dir})
	if err != nil {
		return nil, err
	}
	var deleted []string
	for _, i := range idxs {
		pc := plan.Cases[i]
		a, ok := arts[pc.ID]
		if !ok || !a.Failed() {
			continue
		}
		if err := os.Remove(ArtifactPath(dir, pc.ID)); err != nil {
			return deleted, err
		}
		deleted = append(deleted, pc.ID)
	}
	return deleted, nil
}
