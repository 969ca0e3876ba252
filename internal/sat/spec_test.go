package sat

import (
	"reflect"
	"testing"
)

func TestParseEngineSpecForms(t *testing.T) {
	cases := []struct {
		spec string
		want EngineSpec
	}{
		{"", InternalSpec(Config{})},
		{"seed=3,restart=geometric", InternalSpec(Config{Seed: 3, Restart: RestartGeometric})},
		{"internal", InternalSpec(Config{})},
		{"internal:seed=7", InternalSpec(Config{Seed: 7})},
		{"kissat", EngineSpec{Kind: EngineProcess, Cmd: "kissat"}},
		{"kissat:path=/opt/kissat", EngineSpec{Kind: EngineProcess, Cmd: "/opt/kissat"}},
		{"process:cmd=/tmp/solver", EngineSpec{Kind: EngineProcess, Cmd: "/tmp/solver"}},
		{"kissat:persistent=true", EngineSpec{Kind: EngineProcess, Cmd: "kissat", Persistent: true}},
		{"kissat:persistent=false", EngineSpec{Kind: EngineProcess, Cmd: "kissat"}},
		{"process:cmd=/tmp/solver,persistent=true", EngineSpec{Kind: EngineProcess, Cmd: "/tmp/solver", Persistent: true}},
		{"bdd", EngineSpec{Kind: EngineBDD}},
		{"bdd:max-nodes=4096", EngineSpec{Kind: EngineBDD, MaxNodes: 4096}},
		{"bdd:max-nodes=1<<20", EngineSpec{Kind: EngineBDD, MaxNodes: 1 << 20}},
	}
	for _, c := range cases {
		got, err := ParseEngineSpec(c.spec)
		if err != nil {
			t.Errorf("ParseEngineSpec(%q): %v", c.spec, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseEngineSpec(%q) = %+v, want %+v", c.spec, got, c.want)
		}
		// Canonical strings round-trip.
		again, err := ParseEngineSpec(got.String())
		if err != nil || again != got {
			t.Errorf("round trip of %q via %q: %+v, %v", c.spec, got.String(), again, err)
		}
	}
}

func TestParseEngineSpecRejectsBadSpecs(t *testing.T) {
	for _, spec := range []string{
		"frobnicate=1",          // unknown internal config key
		"internal:frobnicate=1", // same, explicit kind
		"bdd:max-nodes=0",
		"bdd:max-nodes=x",
		"bdd:color=red",
		"process",         // no cmd
		"process:cmd=",    // empty cmd
		"process:wrong=1", // unknown key
		"kissat:verbose=1",
		"kissat:persistent=maybe", // unparsable bool
		"process:cmd=/tmp/s,persistent=2",
		"a b",                                  // whitespace in a bare name
		"a,b:",                                 // comma in a bare name
		"0\f:",                                 // form feed in a bare name (parsing trims it)
		"kissat:cmd=",                          // empty cmd overriding a bare name
		"0:cmd=",                               // same
		"bdd:max-nodes=4611686018427387904<<2", // node count overflows int
	} {
		if got, err := ParseEngineSpec(spec); err == nil {
			t.Errorf("ParseEngineSpec(%q) accepted a bad spec: %+v", spec, got)
		}
	}
}

func TestParseEngineList(t *testing.T) {
	base := Config{Seed: 5}
	specs, err := ParseEngineList("internal:seed=7,restart=geometric,kissat,bdd:max-nodes=1<<18", base)
	if err != nil {
		t.Fatal(err)
	}
	want := []EngineSpec{
		InternalSpec(Config{Seed: 7, Restart: RestartGeometric}),
		{Kind: EngineProcess, Cmd: "kissat"},
		{Kind: EngineBDD, MaxNodes: 1 << 18},
	}
	if !reflect.DeepEqual(specs, want) {
		t.Errorf("ParseEngineList = %+v, want %+v", specs, want)
	}

	// A bare "internal" entry inherits the -solver base config.
	specs, err = ParseEngineList("internal,bdd", base)
	if err != nil {
		t.Fatal(err)
	}
	if specs[0] != InternalSpec(base) {
		t.Errorf("bare internal entry = %+v, want base %+v", specs[0], InternalSpec(base))
	}

	// A leading option token with no kind starts an implicit internal
	// entry (the legacy -solver grammar embedded in a list).
	specs, err = ParseEngineList("seed=3,restart=geometric,bdd", Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 || specs[0] != InternalSpec(Config{Seed: 3, Restart: RestartGeometric}) || specs[1].Kind != EngineBDD {
		t.Errorf("implicit internal entry: %+v", specs)
	}

	// Options may follow a colon-less entry directly: the first
	// continuation token supplies the ':' the single-spec grammar wants.
	specs, err = ParseEngineList("internal,seed=3,restart=geometric,bdd,max-nodes=4096", Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 || specs[0] != InternalSpec(Config{Seed: 3, Restart: RestartGeometric}) ||
		specs[1] != (EngineSpec{Kind: EngineBDD, MaxNodes: 4096}) {
		t.Errorf("colon-less continuation: %+v", specs)
	}

	// persistent=true continues an external entry like any option token.
	specs, err = ParseEngineList("internal,stub,persistent=true", Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 || specs[1] != (EngineSpec{Kind: EngineProcess, Cmd: "stub", Persistent: true}) {
		t.Errorf("persistent continuation: %+v", specs)
	}

	for _, bad := range []string{"", " , ", "internal,internal", "kissat,kissat", "bdd,frobnicate=1"} {
		if specs, err := ParseEngineList(bad, Config{}); err == nil {
			t.Errorf("ParseEngineList(%q) accepted a bad list: %+v", bad, specs)
		}
	}
}

func TestMergeStats(t *testing.T) {
	a := []ConfigStats{{Config: "seed=0", Races: 3, Wins: 2, SatWins: 1, UnsatWins: 1, Conflicts: 10}}
	b := []ConfigStats{
		{Config: "bdd", Races: 3, Wins: 1, SatWins: 1, Conflicts: 0},
		{Config: "seed=0", Races: 4, Wins: 2, UnsatWins: 2, Conflicts: 7},
	}
	got := MergeStats(a, b)
	want := []ConfigStats{
		{Config: "seed=0", Races: 7, Wins: 4, SatWins: 1, UnsatWins: 3, Conflicts: 17},
		{Config: "bdd", Races: 3, Wins: 1, SatWins: 1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("MergeStats = %+v, want %+v", got, want)
	}
}

// TestEnginePortfolioMixedVerdicts: a heterogeneous portfolio (two
// internal configs through the generic constructor) agrees with the
// single engine on the verdict table.
func TestEnginePortfolioMixedVerdicts(t *testing.T) {
	for name, load := range instanceTable() {
		want, _, _ := runInstance(Config{}, load)
		engines := []Engine{NewWith(Config{}), NewWith(Config{Seed: 3, Phase: PhaseFalse})}
		p := NewEnginePortfolio(engines, NewLedger([]string{"base", "neg"}))
		load(p)
		if got := p.Solve(); got != want {
			t.Errorf("%s: portfolio verdict %v, single %v", name, got, want)
		}
	}
}
