package microbench

import (
	"math"
	"testing"

	"fase/internal/activity"
)

func TestGenerateAlternates(t *testing.T) {
	cfg := Config{X: activity.LDM, Y: activity.LDL1, FAlt: 1000, Jitter: NoJitter(), Seed: 1}
	tr := Generate(cfg, 0.01)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// 10 ms at 1 kHz -> 10 periods -> 20 segments.
	if len(tr.Segments) != 20 {
		t.Fatalf("segments = %d, want 20", len(tr.Segments))
	}
	ldm, ldl1 := activity.LoadOf(activity.LDM), activity.LoadOf(activity.LDL1)
	for i, s := range tr.Segments {
		want := ldm
		if i%2 == 1 {
			want = ldl1
		}
		if s.Load != want {
			t.Fatalf("segment %d load %+v", i, s.Load)
		}
	}
	// Perfect square wave: starts at multiples of 0.5 ms.
	for i, s := range tr.Segments {
		if math.Abs(s.Start-float64(i)*0.0005) > 1e-12 {
			t.Fatalf("segment %d starts at %g", i, s.Start)
		}
	}
}

func TestGenerateCalibratedMeanPeriod(t *testing.T) {
	// With jitter, the *average* alternation frequency must stay at FAlt.
	cfg := Config{X: activity.LDM, Y: activity.LDL1, FAlt: 43300, Jitter: DefaultJitter(), Seed: 7}
	dur := 2.0
	tr := Generate(cfg, dur)
	periods := float64(len(tr.Segments)) / 2
	gotFAlt := periods / tr.End() // approximately; End is start of last segment
	if math.Abs(gotFAlt-43300)/43300 > 0.01 {
		t.Errorf("mean alternation frequency %g, want ~43300", gotFAlt)
	}
}

func TestGenerateJitterVariesDurations(t *testing.T) {
	cfg := Config{X: activity.LDM, Y: activity.LDL1, FAlt: 1000, Jitter: DefaultJitter(), Seed: 3}
	tr := Generate(cfg, 1.0)
	durs := map[float64]bool{}
	for i := 1; i < len(tr.Segments); i++ {
		d := math.Round((tr.Segments[i].Start-tr.Segments[i-1].Start)*1e7) / 1e7
		durs[d] = true
	}
	if len(durs) < 3 {
		t.Errorf("jitter should produce varied durations, got %d distinct", len(durs))
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{X: activity.LDL2, Y: activity.LDL1, FAlt: 500, Jitter: DefaultJitter(), Seed: 42}
	a := Generate(cfg, 0.1)
	b := Generate(cfg, 0.1)
	if len(a.Segments) != len(b.Segments) {
		t.Fatal("non-deterministic segment count")
	}
	for i := range a.Segments {
		if a.Segments[i] != b.Segments[i] {
			t.Fatal("non-deterministic trace")
		}
	}
}

func TestGenerateDuty(t *testing.T) {
	cfg := Config{X: activity.LDM, Y: activity.LDL1, FAlt: 1000, Jitter: NoJitter(), Seed: 1}
	tr := Generate(cfg, 0.01)
	// X and Y each take half of the 1 ms period.
	dx := tr.Segments[1].Start - tr.Segments[0].Start
	dy := tr.Segments[2].Start - tr.Segments[1].Start
	if math.Abs(dx-0.0005) > 1e-12 || math.Abs(dy-0.0005) > 1e-12 {
		t.Errorf("duty 0.5: dx=%g dy=%g", dx, dy)
	}
}

func TestConstant(t *testing.T) {
	tr := Constant(activity.LDM)
	if tr.At(0) != activity.LoadOf(activity.LDM) || tr.At(5) != activity.LoadOf(activity.LDM) {
		t.Error("Constant trace wrong")
	}
}

func TestJitterMean(t *testing.T) {
	j := Jitter{Multipliers: []float64{1, 2}, Probs: []float64{1, 1}}
	if m := j.mean(); math.Abs(m-1.5) > 1e-12 {
		t.Errorf("mean %g, want 1.5", m)
	}
	if NoJitter().mean() != 1 {
		t.Error("NoJitter mean should be 1")
	}
}

func TestPanics(t *testing.T) {
	mustPanic(t, func() { Generate(Config{FAlt: 0}, 1) })
	mustPanic(t, func() { Generate(Config{FAlt: 100}, 0) })
	mustPanic(t, func() {
		j := Jitter{Multipliers: []float64{1}, Probs: []float64{1, 2}}
		Generate(Config{FAlt: 100, Jitter: j}, 1)
	})
	mustPanic(t, func() {
		j := Jitter{Multipliers: []float64{1}, Probs: []float64{0}}
		Generate(Config{FAlt: 100, Jitter: j}, 1)
	})
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}
