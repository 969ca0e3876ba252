package campaign

import (
	"context"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/genbench"
	"repro/internal/sat"
)

// TestPlanSolverConfig: solver settings are part of a plan's identity,
// survive serialization, and reject bad specs at plan time.
func TestPlanSolverConfig(t *testing.T) {
	base := Config{
		Specs:  genbench.Scaled(genbench.TableI, 16, 12)[:2],
		Seed:   7,
		Suites: []string{"summary"},
	}
	p1, err := NewPlan(base)
	if err != nil {
		t.Fatal(err)
	}

	withSolver := base
	withSolver.Solver = "seed=3,restart=geometric"
	withSolver.Portfolio = 3
	p2, err := NewPlan(withSolver)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Hash == p2.Hash {
		t.Error("solver settings must change the plan hash")
	}
	ec, err := p2.Config.ExpConfig()
	if err != nil {
		t.Fatal(err)
	}
	if len(ec.Engines) != 3 || ec.Engines[0].Config.Seed != 3 || ec.Engines[0].Config.Restart != sat.RestartGeometric {
		t.Errorf("ExpConfig lost solver settings: %+v", ec.Engines)
	}

	// Default (empty) spec resolves to no engine list so artifacts stay
	// label-free.
	ecDefault, err := p1.Config.ExpConfig()
	if err != nil {
		t.Fatal(err)
	}
	if ecDefault.Engines != nil {
		t.Errorf("default plan must select the default engine, got %+v", ecDefault.Engines)
	}

	bad := base
	bad.Solver = "frobnicate=1"
	if _, err := NewPlan(bad); err == nil {
		t.Error("bad solver spec accepted at plan time")
	}
}

// TestPlanHeterogeneousEngines: engine lists serialize through plans,
// resolve into exp.Config.Engines, and bad combinations are rejected
// at plan time.
func TestPlanHeterogeneousEngines(t *testing.T) {
	base := Config{
		Specs:  genbench.Scaled(genbench.TableI, 16, 12)[:2],
		Seed:   7,
		Suites: []string{"summary"},
	}

	het := base
	het.Solver = "seed=5"
	het.PortfolioEngines = "internal,bdd:max-nodes=1<<18"
	p, err := NewPlan(het)
	if err != nil {
		t.Fatal(err)
	}
	ec, err := p.Config.ExpConfig()
	if err != nil {
		t.Fatal(err)
	}
	if len(ec.Engines) != 2 || ec.Engines[0].Config.Seed != 5 || ec.Engines[1].Kind != sat.EngineBDD {
		t.Errorf("engines lost in resolution: %+v", ec.Engines)
	}

	// A single non-internal -solver also lands in Engines.
	single := base
	single.Solver = "bdd"
	ec, err = single.ExpConfig()
	if err != nil {
		t.Fatal(err)
	}
	if len(ec.Engines) != 1 || ec.Engines[0].Kind != sat.EngineBDD {
		t.Errorf("bdd solver resolution: %+v", ec.Engines)
	}

	for name, bad := range map[string]Config{
		"badList":       {Solver: "", PortfolioEngines: "internal,frobnicate=1"},
		"widthAndList":  {Portfolio: 3, PortfolioEngines: "internal,bdd"},
		"externalBase":  {Solver: "kissat", PortfolioEngines: "internal,bdd"},
		"widthExternal": {Solver: "kissat", Portfolio: 3},
	} {
		cfg := base
		cfg.Solver, cfg.Portfolio, cfg.PortfolioEngines =
			bad.Solver, bad.Portfolio, bad.PortfolioEngines
		if _, err := NewPlan(cfg); err == nil {
			t.Errorf("%s: accepted at plan time", name)
		}
	}
}

// TestPlanHashBackwardCompatible: configs that do not use the new
// fields serialize without them (omitempty), so plan hashes of
// pre-heterogeneous flag forms are unchanged by this refactor.
func TestPlanHashBackwardCompatible(t *testing.T) {
	cfg := tinyCampaignConfig("summary")
	cfg.Solver = "seed=3"
	cfg.Portfolio = 3
	data, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"portfolio_engines", "adapt_after"} {
		if strings.Contains(string(data), key) {
			t.Errorf("legacy config serializes new key %q: %s", key, data)
		}
	}
}

// TestCampaignHeterogeneousMatchesDefault: a campaign racing
// internal+bdd engines renders the same verdict report as the default
// single-engine campaign, records portfolio stats under spec labels,
// and aggregates them in WinStats.
func TestCampaignHeterogeneousMatchesDefault(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two tiny campaigns")
	}
	ctx := context.Background()
	run := func(cfg Config, opts RunOptions) (string, *MergeResult) {
		t.Helper()
		plan, err := NewPlan(cfg)
		if err != nil {
			t.Fatal(err)
		}
		dir := filepath.Join(t.TempDir(), "artifacts")
		if _, err := Run(ctx, plan, dir, opts); err != nil {
			t.Fatal(err)
		}
		m, err := Merge(plan, []string{dir})
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := m.Render(&b); err != nil {
			t.Fatal(err)
		}
		return b.String(), m
	}

	defCfg := tinyCampaignConfig("summary")
	defReport, defMerge := run(defCfg, RunOptions{Workers: 2})
	if stats := defMerge.WinStats(); stats != nil {
		t.Errorf("default campaign recorded stats: %+v", stats)
	}

	hetCfg := tinyCampaignConfig("summary")
	hetCfg.PortfolioEngines = "internal,bdd:max-nodes=1<<16"
	hetReport, hetMerge := run(hetCfg, RunOptions{Workers: 2})
	if hetReport != defReport {
		t.Errorf("heterogeneous campaign report differs from default:\n--- default\n%s\n--- heterogeneous\n%s", defReport, hetReport)
	}
	stats := hetMerge.WinStats()
	if len(stats) != 2 || stats[0].Config != "seed=0" || !strings.HasPrefix(stats[1].Config, "bdd") {
		t.Fatalf("campaign stats: %+v", stats)
	}
	if stats[0].Races == 0 {
		t.Error("no races recorded")
	}
}
