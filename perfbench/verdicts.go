package main

import (
	"context"
	"embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/attack"
	"repro/internal/exp"
)

// defaultSeed is the workload seed whose verdict tables are recorded
// in expected/.
const defaultSeed = 2019

//go:embed expected
var expectedFS embed.FS

// unitOutcome is one unit's result as the benchmark checks it.
type unitOutcome struct {
	id  string
	cs  *exp.Case
	res exp.UnitResult
	// wall bounds the unit's wall time from above (its own time when
	// known, else the wall time of the whole drain).
	wall time.Duration
}

// tally is the verdict check of one pass.
type tally struct {
	table     map[string]string // unit ID -> verdict line
	attempted int
	failed    int
	mismatch  int // claims the benchmark's own check contradicts
	unplanted int // Equivalent claims resting on a non-planted key, re-proved here
	notes     []string

	solved, unique, confirmed int
}

func (t *tally) bad(id, format string, args ...any) {
	t.mismatch++
	t.notes = append(t.notes, id+": "+fmt.Sprintf(format, args...))
}

func hasKey(keys []attack.Key, k attack.Key) bool {
	for _, c := range keys {
		if attack.KeysEqual(c, k) {
			return true
		}
	}
	return false
}

// equivalentKey proves with the benchmark's own miter that some key of
// keys unlocks the case.
func equivalentKey(ctx context.Context, cs *exp.Case, keys []attack.Key) bool {
	for _, k := range keys {
		if eq, err := attack.KeyEquivalent(ctx, cs.Lock.Locked, cs.Orig, k); err == nil && eq {
			return true
		}
	}
	return false
}

// checkUnits checks every unit's verdict fields against the planted
// key and the benchmark's own equivalence miter. A unit fails when the
// harness reports an error or a hard failure, or when it may have run
// into its timeout (FALL has no iteration cap, so any FALL timeout is
// the clock; a SAT attack stopped by its iteration cap is a normal
// outcome).
func checkUnits(ctx context.Context, units []unitOutcome, timeout time.Duration) *tally {
	t := &tally{table: make(map[string]string, len(units))}
	for _, u := range units {
		t.attempted++
		failed := u.res.Err != nil || u.wall >= timeout
		switch {
		case u.res.Outcome != nil:
			t.table[u.id] = t.outcome(ctx, u.id, u.cs, u.res.Outcome)
			o := u.res.Outcome
			failed = failed || o.Failed || (o.TimedOut && o.Attack != exp.SATAttackName)
			t.solved += b2i(o.Solved)
			t.unique += b2i(o.Unique)
		case u.res.Fig6 != nil:
			t.table[u.id] = t.fig6(ctx, u.id, u.cs, u.res.Fig6)
			failed = failed || u.res.Fig6.Failed()
			t.confirmed += b2i(u.res.Fig6.KCConfirmed)
		default:
			t.table[u.id] = "missing"
			failed = true
		}
		if failed {
			t.failed++
			t.notes = append(t.notes, u.id+": failed or timed out")
		}
	}
	return t
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// outcome checks one attack outcome. The harness scores every FALL
// shortlist but only a converged SAT attack's key, so a SAT attack
// stopped early makes no claim about the partial key it carries.
func (t *tally) outcome(ctx context.Context, id string, cs *exp.Case, o *exp.Outcome) string {
	planted := hasKey(o.Keys, cs.Lock.Key)
	scored := o.Attack != exp.SATAttackName || (!o.TimedOut && o.NumKeys == 1)
	switch {
	case o.NumKeys != len(o.Keys):
		t.bad(id, "num_keys %d but %d keys", o.NumKeys, len(o.Keys))
	case o.PlantedKeyMatch && !planted, scored && planted && !o.PlantedKeyMatch:
		t.bad(id, "planted_key_match %v but planted key in shortlist is %v", o.PlantedKeyMatch, planted)
	case o.Solved != o.Equivalent:
		t.bad(id, "solved %v but equivalent %v", o.Solved, o.Equivalent)
	case o.PlantedKeyMatch && !o.Equivalent:
		t.bad(id, "planted key matched but not equivalent")
	case o.Unique && (!o.Solved || o.NumKeys != 1):
		t.bad(id, "unique with solved %v and %d keys", o.Solved, o.NumKeys)
	case o.Equivalent && !planted:
		if !equivalentKey(ctx, cs, o.Keys) {
			t.bad(id, "equivalent claimed, but no shortlisted key unlocks the circuit")
		} else {
			t.unplanted++
		}
	}
	return fmt.Sprintf("solved=%v equivalent=%v planted=%v unique=%v keys=%d",
		o.Solved, o.Equivalent, o.PlantedKeyMatch, o.Unique, o.NumKeys)
}

func (t *tally) fig6(ctx context.Context, id string, cs *exp.Case, r *exp.Fig6CaseResult) string {
	kcKey := "none"
	switch {
	case r.KCKey == nil:
	case attack.KeysEqual(r.KCKey, cs.Lock.Key):
		kcKey = "planted"
	case equivalentKey(ctx, cs, []attack.Key{r.KCKey}):
		kcKey = "equivalent"
		t.unplanted++
	default:
		t.bad(id, "key confirmation returned a key that does not unlock the circuit")
		kcKey = "wrong"
	}
	if r.KCConfirmed && r.KCKey == nil {
		t.bad(id, "key confirmation confirmed without a key")
	}
	sa := t.outcome(ctx, id+" (SAT attack)", cs, &r.SA)
	return fmt.Sprintf("kc_ran=%v kc_confirmed=%v kc_key=%s sat: %s timed_out=%v",
		r.KCRan, r.KCConfirmed, kcKey, sa, r.SA.TimedOut)
}

// diffTables lists the units whose verdict line differs between two
// tables, in unit order.
func diffTables(got, want map[string]string) []string {
	ids := make(map[string]bool)
	for id := range got {
		ids[id] = true
	}
	for id := range want {
		ids[id] = true
	}
	var diffs []string
	for id := range ids {
		if got[id] != want[id] {
			diffs = append(diffs, fmt.Sprintf("%s: got %q, want %q", id, got[id], want[id]))
		}
	}
	sort.Strings(diffs)
	return diffs
}

func expectedPath(workload string) string { return "expected/" + workload + ".json" }

// expectedTable returns the recorded verdict table of a workload at
// defaultSeed.
func expectedTable(workload string) (map[string]string, error) {
	b, err := expectedFS.ReadFile(expectedPath(workload))
	if err != nil {
		return nil, err
	}
	var table map[string]string
	if err := json.Unmarshal(b, &table); err != nil {
		return nil, fmt.Errorf("%s: %w", expectedPath(workload), err)
	}
	return table, nil
}

// writeExpected records table as the workload's expected verdicts in
// the benchmark's source directory.
func writeExpected(srcDir, workload string, table map[string]string) error {
	b, err := json.MarshalIndent(table, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(srcDir, expectedPath(workload)), append(b, '\n'), 0o644)
}
