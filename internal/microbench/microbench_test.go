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

// TestGeneratePrefix: a trace is a prefix of every longer trace of its
// configuration. Generate draws two multipliers per period in a fixed
// order whatever the duration, so the segments of Generate(cfg, d1) that
// start before d1 lead Generate(cfg, d2) for d2 > d1, and the two traces
// read the same load at every t < d1. A sweep sizes its alternation trace
// to the time its captures read (emsim.ActivityLookahead) on this
// property.
func TestGeneratePrefix(t *testing.T) {
	jitters := []struct {
		name string
		j    Jitter
	}{{"default", DefaultJitter()}, {"none", NoJitter()}}
	for _, jt := range jitters {
		for _, seed := range []int64{1, 7, 104730} {
			for _, falt := range []float64{500, 43.3e3, 312.5e3} {
				cfg := Config{X: activity.LDM, Y: activity.LDL1, FAlt: falt, Jitter: jt.j, Seed: seed}
				for _, d := range [][2]float64{{0.0035, 0.0525}, {0.009, 0.058}, {0.041, 0.09}} {
					d1, d2 := d[0], d[1]
					short, long := Generate(cfg, d1), Generate(cfg, d2)
					n := 0
					for n < len(short.Segments) && short.Segments[n].Start < d1 {
						n++
					}
					if n == 0 || n >= len(long.Segments) {
						t.Fatalf("%s seed %d f_alt %g: %d segments before %g s, %d in the %g s trace",
							jt.name, seed, falt, n, d1, len(long.Segments), d2)
					}
					for i, s := range short.Segments[:n] {
						if s != long.Segments[i] {
							t.Fatalf("%s seed %d f_alt %g: segment %d is %+v in the %g s trace, %+v in the %g s one",
								jt.name, seed, falt, i, s, d1, long.Segments[i], d2)
						}
					}
					// Each segment boundary below d1 of either trace, the
					// instant before it, and a fine grid up to d1.
					var ts []float64
					for _, tr := range []*activity.Trace{short, long} {
						for _, s := range tr.Segments {
							if s.Start < d1 {
								ts = append(ts, s.Start, math.Nextafter(s.Start, math.Inf(-1)))
							}
						}
					}
					for k := 0; k < 4096; k++ {
						ts = append(ts, d1*float64(k)/4096)
					}
					ts = append(ts, math.Nextafter(d1, 0))
					for _, at := range ts {
						if a, b := short.At(at), long.At(at); a != b {
							t.Fatalf("%s seed %d f_alt %g: load at %g s is %+v in the %g s trace, %+v in the %g s one",
								jt.name, seed, falt, at, a, d1, b, d2)
						}
					}
				}
			}
		}
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
