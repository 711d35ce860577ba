package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"fase/internal/activity"
	"fase/internal/machine"
	"fase/internal/obs"
)

// normalizedJournal renders a journal in canonical order with the two
// nondeterministic wall-clock fields (t, wall_seconds) zeroed, so
// byte-equality means event-content equality.
func normalizedJournal(t *testing.T, j *obs.Journal) []byte {
	t.Helper()
	evs := j.CanonicalEvents()
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "{\"schema\":%q,\"events\":%d}\n", obs.JournalSchema, len(evs))
	for i := range evs {
		evs[i].T = 0
		evs[i].WallSeconds = 0
		line, err := json.Marshal(&evs[i])
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// TestEventJournalEquivalence pins the journal's determinism claim: the
// canonical event stream (timestamps zeroed) must be byte-identical
// across serial vs parallel rendering and the production vs reference
// render path (opaqueScene: nothing culled), for
// both the exhaustive and the adaptive planner. Runs under -race via
// `make equivalence`, which also hammers the concurrent emission paths.
func TestEventJournalEquivalence(t *testing.T) {
	sys := machine.IntelCoreI7Desktop()
	base := Campaign{
		F1: 0.25e6, F2: 0.55e6, Fres: 200,
		FAlt1: 43.3e3, FDelta: 1e3,
		X: activity.LDM, Y: activity.LDL1, Seed: 21,
	}
	adaptive := base
	adaptive.MaxFFT = 2048
	adaptive.Budget = 30
	adaptive.Adaptive = &AdaptivePlan{}

	for _, plan := range []struct {
		name string
		c    Campaign
	}{{"exhaustive", base}, {"adaptive", adaptive}} {
		t.Run(plan.name, func(t *testing.T) {
			variants := []struct {
				name        string
				parallelism int
				reference   bool
			}{
				{"serial-cached", 1, false},
				{"serial-reference", 1, true},
				{"parallel-cached", 0, false},
				{"parallel-reference", 0, true},
			}
			var want []byte
			var wantName string
			for _, v := range variants {
				c := plan.c
				c.Parallelism = v.parallelism
				scene := sys.Scene(21, true)
				if v.reference {
					scene = opaqueScene(scene)
				}
				run := obs.NewRun()
				run.Journal = obs.NewJournal()
				if _, err := (&Runner{Scene: scene, Obs: run}).RunE(c); err != nil {
					t.Fatalf("%s: %v", v.name, err)
				}
				got := normalizedJournal(t, run.Journal)
				if err := obs.ValidateJournal(got); err != nil {
					t.Fatalf("%s: journal invalid: %v", v.name, err)
				}
				if want == nil {
					want, wantName = got, v.name
					continue
				}
				if !bytes.Equal(got, want) {
					t.Errorf("journal differs between %s and %s:\n%s",
						wantName, v.name, journalDiff(want, got))
				}
			}
			if len(want) == 0 {
				t.Fatal("no journal produced")
			}
		})
	}
}

// journalDiff reports the first differing line between two journals.
func journalDiff(a, b []byte) string {
	al, bl := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	n := len(al)
	if len(bl) < n {
		n = len(bl)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(al[i], bl[i]) {
			return fmt.Sprintf("line %d:\n  a: %s\n  b: %s", i, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(al), len(bl))
}
