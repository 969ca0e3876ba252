package sat

import (
	"strings"
	"testing"
)

// The engine-spec grammar is parsed from flags, plan files and daemon
// job specs, and canonical specs double as win-statistics labels, so
// every accepted spec must survive a render/reparse cycle unchanged.
// The seed corpus under testdata/fuzz holds the README grammar
// examples and inputs that once broke the property.

// FuzzParseEngineSpec: whatever ParseEngineSpec accepts reparses from
// its String() to the same spec.
func FuzzParseEngineSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := ParseEngineSpec(spec)
		if err != nil {
			return
		}
		again, err := ParseEngineSpec(s.String())
		if err != nil {
			t.Fatalf("%q parses to %+v, but its String() %q does not reparse: %v", spec, s, s.String(), err)
		}
		if again != s {
			t.Fatalf("%q parses to %+v, its String() %q to %+v", spec, s, s.String(), again)
		}
	})
}

// FuzzParseEngineList: whatever ParseEngineList accepts reparses from
// its entries' canonical strings, joined with commas, to the same
// specs.
func FuzzParseEngineList(f *testing.F) {
	f.Fuzz(func(t *testing.T, list string) {
		specs, err := ParseEngineList(list, Config{})
		if err != nil {
			return
		}
		joined := joinEngineList(specs)
		again, err := ParseEngineList(joined, Config{})
		if err != nil {
			t.Fatalf("%q parses to %v, but %q does not reparse: %v", list, EngineLabels(specs), joined, err)
		}
		if len(again) != len(specs) {
			t.Fatalf("%q parses to %d specs, %q to %d", list, len(specs), joined, len(again))
		}
		for i := range specs {
			if again[i] != specs[i] {
				t.Fatalf("%q entry %d: %+v, reparsed from %q: %+v", list, i, specs[i], joined, again[i])
			}
		}
	})
}

// joinEngineList renders specs as one -portfolio list. Internal entries
// carry their "internal:" kind: a bare config's key=value tokens would
// otherwise continue the previous entry's options.
func joinEngineList(specs []EngineSpec) string {
	entries := make([]string, len(specs))
	for i, s := range specs {
		entries[i] = s.String()
		if s.Kind == EngineInternal {
			entries[i] = "internal:" + entries[i]
		}
	}
	return strings.Join(entries, ",")
}
