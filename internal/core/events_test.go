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
// across serial vs parallel rendering, the production vs reference render
// path (opaqueScene: nothing culled), and traced vs untraced runs (the
// parallel variants trace, and their traces must check out), for both
// the exhaustive and the adaptive planner. Runs under -race via
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
				run.Trace = v.parallelism == 0
				if _, err := (&Runner{Scene: scene, Obs: run}).RunE(c); err != nil {
					t.Fatalf("%s: %v", v.name, err)
				}
				if run.Trace {
					checkTrace(t, run)
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

// checkTrace lays a finished traced run's trace out and checks it against
// the run's own records: one root "campaign" span, a span per manifest
// stage, a "sweep" per journaled sweep_end, a "capture" per manifest
// capture, and a "render" and an "fft" per capture. Each span's parent
// must be the root (stages), a stage (sweeps), a sweep (captures) or a
// capture (render, fft), and lie around it.
func checkTrace(t *testing.T, run *obs.Run) {
	t.Helper()
	var b bytes.Buffer
	if err := run.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name    string
			Ts, Dur float64
			Args    struct{ ID, Parent int }
		}
	}
	if err := json.Unmarshal(b.Bytes(), &trace); err != nil {
		t.Fatal(err)
	}
	m := run.Manifest()
	isStage := map[string]bool{}
	want := map[string]int{"campaign": 1, "sweep": 0, "capture": int(m.Captures),
		"render": int(m.Captures), "fft": int(m.Captures)}
	for _, st := range m.Stages {
		isStage[st.Name] = true
		want[st.Name]++
	}
	for _, e := range run.Journal.CanonicalEvents() {
		if e.Kind == obs.EventSweepEnd {
			want["sweep"]++
		}
	}
	got := map[string]int{}
	byID := map[int]int{}
	for i, e := range trace.TraceEvents {
		got[e.Name]++
		byID[e.Args.ID] = i
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("trace spans %v, want %v", got, want)
	}
	const eps = 1e-3 // µs: the layout's float sums round
	for _, e := range trace.TraceEvents {
		if e.Name == "campaign" {
			continue
		}
		i, ok := byID[e.Args.Parent]
		if !ok {
			t.Errorf("%s has no parent span", e.Name)
			continue
		}
		p := trace.TraceEvents[i]
		var parentOK bool
		switch {
		case isStage[e.Name]:
			parentOK = p.Name == "campaign"
		case e.Name == "sweep":
			parentOK = isStage[p.Name]
		case e.Name == "capture":
			parentOK = p.Name == "sweep"
		default:
			parentOK = p.Name == "capture"
		}
		if !parentOK {
			t.Errorf("%s's parent is %s", e.Name, p.Name)
		}
		if e.Ts < p.Ts-eps || e.Ts+e.Dur > p.Ts+p.Dur+eps {
			t.Errorf("%s [%g, +%g] lies outside its parent %s [%g, +%g]", e.Name, e.Ts, e.Dur, p.Name, p.Ts, p.Dur)
		}
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
