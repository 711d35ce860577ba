package obs

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestJournalNilSafety(t *testing.T) {
	var j *Journal
	if tr := j.Track(3); tr != nil {
		t.Error("nil journal must hand out nil tracks")
	}
	var tr *JournalTrack
	tr.Emit(Event{Kind: EventDetection}) // must not panic
	if sub, backlog := j.Subscribe(16); sub != nil || backlog != nil {
		t.Error("nil journal must not subscribe")
	}
	j.Unsubscribe(nil)
	j.Close()
	if e, d := j.Stats(); e != 0 || d != 0 {
		t.Error("nil journal stats must be zero")
	}
	if j.CanonicalEvents() != nil {
		t.Error("nil journal must have no canonical events")
	}
	run := &Run{} // a run without a journal threads nil tracks
	run.Track(0).Emit(Event{Kind: EventDetection})
}

func TestJournalTrackIDPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative track id must panic")
		}
	}()
	NewJournal().Track(-1)
}

func TestJournalCanonicalOrdering(t *testing.T) {
	j := NewJournal()
	t0, t1, t2 := j.Track(0), j.Track(1), j.Track(2)
	// Interleave emissions across tracks; canonical order must come out
	// sorted by (track, tseq) regardless.
	t1.Emit(Event{Kind: EventSweepPlan, FAltHz: 43e3})
	t0.Emit(Event{Kind: EventCampaignStart, Name: "exhaustive"})
	t2.Emit(Event{Kind: EventSweepPlan, FAltHz: 44e3})
	t1.Emit(Event{Kind: EventSweepStart, Total: 4})
	t0.Emit(Event{Kind: EventCampaignEnd})
	evs := j.CanonicalEvents()
	if len(evs) != 5 {
		t.Fatalf("got %d events", len(evs))
	}
	for i, e := range evs {
		if e.Seq != int64(i) {
			t.Errorf("event %d has canonical seq %d", i, e.Seq)
		}
	}
	wantTracks := []int64{0, 0, 1, 1, 2}
	wantTSeqs := []int64{0, 1, 0, 1, 0}
	for i := range evs {
		if evs[i].Track != wantTracks[i] || evs[i].TSeq != wantTSeqs[i] {
			t.Errorf("event %d: track %d tseq %d, want %d/%d",
				i, evs[i].Track, evs[i].TSeq, wantTracks[i], wantTSeqs[i])
		}
	}
	if j.Track(1) != t1 {
		t.Error("Track must return the shared per-id handle")
	}
}

func TestEmitClampsNonFinite(t *testing.T) {
	j := NewJournal()
	inf := math.Inf(1)
	j.Track(0).Emit(Event{Kind: EventCampaignStart, Name: "exhaustive"})
	j.Track(0).Emit(Event{
		Kind: EventDetection, FreqHz: math.NaN(), Score: inf,
		Priority: -inf, F1Hz: inf, F2Hz: -inf, FAltHz: math.NaN(), WallSeconds: inf,
	})
	var buf bytes.Buffer
	if err := j.WriteJSONL(&buf); err != nil {
		t.Fatalf("journal with non-finite floats not writable: %v", err)
	}
	e := j.CanonicalEvents()[1]
	if e.FreqHz != 0 || e.F1Hz != 0 || e.F2Hz != 0 || e.FAltHz != 0 || e.WallSeconds != 0 {
		t.Errorf("frequencies/timing not clamped to zero: %+v", e)
	}
	if e.Score != math.MaxFloat64 || e.Priority != -math.MaxFloat64 {
		t.Errorf("score/priority not clamped to ±MaxFloat64: %+v", e)
	}
}

func TestJournalWriteValidateRoundTrip(t *testing.T) {
	j := NewJournal()
	ct := j.Track(0)
	ct.Emit(Event{Kind: EventCampaignStart, Name: "adaptive", Total: 30})
	ct.Emit(Event{Kind: EventBudgetReserve, Captures: 4, Outcome: ReserveGranted, Reserved: 4, Cap: 30})
	ct.Emit(Event{Kind: EventWindowProbe, F1Hz: 1e5, F2Hz: 2e5, Score: 9.5})
	ct.Emit(Event{Kind: EventWindowOutcome, F1Hz: 1e5, F2Hz: 2e5, Outcome: WindowRefined, Captures: 4})
	st := j.Track(1)
	st.Emit(Event{Kind: EventSweepStart, Total: 4})
	st.Emit(Event{Kind: EventSweepProgress, Captures: 2, Total: 4})
	st.Emit(Event{Kind: EventSweepEnd, Captures: 4, Total: 4})
	ct.Emit(Event{Kind: EventCampaignEnd, Captures: 4})

	var buf bytes.Buffer
	if err := j.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateJournal(buf.Bytes()); err != nil {
		t.Fatalf("written journal fails validation: %v", err)
	}
	if !strings.HasPrefix(buf.String(), `{"schema":"fase-events/1","events":8}`) {
		t.Errorf("journal header: %q", strings.SplitN(buf.String(), "\n", 2)[0])
	}
}

func TestValidateJournalRejects(t *testing.T) {
	valid := func() []string {
		j := NewJournal()
		j.Track(0).Emit(Event{Kind: EventCampaignStart, Name: "exhaustive"})
		j.Track(1).Emit(Event{Kind: EventSweepEnd, Captures: 2, Total: 4})
		j.Track(0).Emit(Event{Kind: EventCampaignEnd, Captures: 4})
		var buf bytes.Buffer
		if err := j.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	}
	cases := []struct {
		name   string
		mutate func(lines []string) []string
	}{
		{"empty journal", func([]string) []string { return nil }},
		{"bad header", func(l []string) []string { l[0] = "not json"; return l }},
		{"wrong schema", func(l []string) []string {
			l[0] = `{"schema":"fase-events/9","events":3}`
			return l
		}},
		{"header count mismatch", func(l []string) []string { return l[:len(l)-1] }},
		{"header only", func(l []string) []string {
			return []string{`{"schema":"fase-events/1","events":0}`}
		}},
		{"non-canonical seq", func(l []string) []string {
			l[1], l[2] = l[2], l[1]
			return l
		}},
		{"unknown kind", func(l []string) []string {
			l[1] = strings.Replace(l[1], "campaign_start", "campaign_explode", 1)
			return l
		}},
		{"live-only kind", func(l []string) []string {
			l[1] = strings.Replace(l[1], "campaign_start", "events_dropped", 1)
			return l
		}},
		{"no campaign start", func(l []string) []string {
			l[1] = strings.Replace(l[1], "campaign_start", "campaign_end", 1)
			return l
		}},
		// Canonical line order: header, campaign_start, campaign_end
		// (track 0), then sweep_end (track 1).
		{"negative captures", func(l []string) []string {
			l[2] = strings.Replace(l[2], `"captures":4`, `"captures":-4`, 1)
			return l
		}},
		{"captures over total", func(l []string) []string {
			l[3] = strings.Replace(l[3], `"captures":2`, `"captures":9`, 1)
			return l
		}},
	}
	for _, tc := range cases {
		data := []byte(strings.Join(tc.mutate(valid()), "\n"))
		if err := ValidateJournal(data); err == nil {
			t.Errorf("%s: validation passed", tc.name)
		}
	}
	if err := ValidateJournal([]byte(strings.Join(valid(), "\n"))); err != nil {
		t.Fatalf("unmutated journal invalid: %v", err)
	}
}

func TestJournalSubscribeBacklogAndLive(t *testing.T) {
	j := NewJournal()
	ct := j.Track(0)
	ct.Emit(Event{Kind: EventCampaignStart})
	ct.Emit(Event{Kind: EventStageStart, Name: "sweeps"})
	sub, backlog := j.Subscribe(16)
	if len(backlog) != 2 {
		t.Fatalf("backlog has %d events, want 2", len(backlog))
	}
	ct.Emit(Event{Kind: EventStageEnd, Name: "sweeps"})
	if e := <-sub.C; e.Kind != EventStageEnd {
		t.Errorf("live event kind %q", e.Kind)
	}
	j.Unsubscribe(sub)
	if _, ok := <-sub.C; ok {
		t.Error("unsubscribed channel must be closed")
	}
	j.Unsubscribe(sub) // double-unsubscribe must not panic

	// Subscribing to a closed journal yields the backlog and a closed
	// channel, never a hang.
	j.Close()
	sub2, backlog2 := j.Subscribe(16)
	if len(backlog2) != 3 {
		t.Errorf("post-close backlog has %d events, want 3", len(backlog2))
	}
	if _, ok := <-sub2.C; ok {
		t.Error("post-close subscriber channel must be closed")
	}
}

func TestJournalDropPolicy(t *testing.T) {
	j := NewJournal()
	ct := j.Track(0)
	sub, _ := j.Subscribe(8) // minimum capacity
	// Fill the channel (8 slots), then overflow it; the surplus must be
	// dropped without blocking the emitter.
	for i := 0; i < 20; i++ {
		ct.Emit(Event{Kind: EventSweepProgress, Captures: int64(i + 1), Total: 20})
	}
	if _, dropped := j.Stats(); dropped == 0 {
		t.Fatal("overflowing a slow subscriber must count drops")
	}
	// Drain the buffered 8; after draining, the next emission must deliver
	// the synthetic drop notice before the event itself.
	for i := 0; i < 8; i++ {
		<-sub.C
	}
	ct.Emit(Event{Kind: EventSweepEnd, Captures: 20, Total: 20})
	notice := <-sub.C
	if notice.Kind != EventEventsDropped || notice.Track != -1 || notice.Dropped <= 0 {
		t.Fatalf("expected drop notice, got %+v", notice)
	}
	if e := <-sub.C; e.Kind != EventSweepEnd {
		t.Fatalf("expected the live event after the notice, got %+v", e)
	}
	j.Unsubscribe(sub)
	// The archived journal never contains the synthetic notice.
	for _, e := range j.CanonicalEvents() {
		if e.Kind == EventEventsDropped {
			t.Fatal("drop notice leaked into the archived journal")
		}
	}
}

// TestJournalConcurrentEmitHammer exercises concurrent emission, SSE
// fan-out, and subscriber churn under -race (the `make equivalence` and
// full-test runs both build it with the race detector in CI).
func TestJournalConcurrentEmitHammer(t *testing.T) {
	const (
		tracks   = 8
		perTrack = 200
		churners = 4
	)
	j := NewJournal()
	var wg sync.WaitGroup
	for tr := 0; tr < tracks; tr++ {
		wg.Add(1)
		go func(tr int) {
			defer wg.Done()
			h := j.Track(int64(tr))
			for i := 0; i < perTrack; i++ {
				h.Emit(Event{Kind: EventSweepProgress, Captures: int64(i + 1), Total: perTrack})
			}
		}(tr)
	}
	for c := 0; c < churners; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				sub, backlog := j.Subscribe(16)
				// Drain a few then walk away — exercises both delivery and
				// the drop path.
				for k := 0; k < len(backlog)%7; k++ {
					select {
					case <-sub.C:
					default:
					}
				}
				j.Unsubscribe(sub)
			}
		}()
	}
	wg.Wait()
	emitted, _ := j.Stats()
	if emitted != tracks*perTrack {
		t.Fatalf("emitted %d events, want %d", emitted, tracks*perTrack)
	}
	evs := j.CanonicalEvents()
	for i := 1; i < len(evs); i++ {
		a, b := evs[i-1], evs[i]
		if b.Track < a.Track || (b.Track == a.Track && b.TSeq != a.TSeq+1) {
			t.Fatalf("canonical order broken at %d: %+v then %+v", i, a, b)
		}
	}
	var buf bytes.Buffer
	if err := j.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestJournalStatsInManifest(t *testing.T) {
	run := NewRun()
	run.Journal = NewJournal()
	run.Begin("sweeps").End()
	run.Count(StatCaptures, 1)
	m := run.Finish("cfg", 0, nil)
	if m.Events == nil || m.Events.Emitted != 2 {
		t.Fatalf("manifest events block: %+v (want the two stage events)", m.Events)
	}
}

func BenchmarkJournalEmit(b *testing.B) {
	j := NewJournal()
	tr := j.Track(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Emit(Event{Kind: EventSweepProgress, Captures: int64(i), Total: int64(b.N)})
	}
}

func ExampleJournal() {
	j := NewJournal()
	j.Track(0).Emit(Event{Kind: EventCampaignStart, Name: "exhaustive"})
	j.Track(0).Emit(Event{Kind: EventCampaignEnd, Captures: 8})
	evs := j.CanonicalEvents()
	fmt.Println(len(evs), evs[0].Kind, evs[1].Kind)
	// Output: 2 campaign_start campaign_end
}
