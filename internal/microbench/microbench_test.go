package microbench

import (
	"math"
	"testing"

	"fase/internal/activity"
	"fase/internal/sig"
)

func TestGenerateAlternates(t *testing.T) {
	cfg := Config{X: activity.LDM, Y: activity.LDL1, FAlt: 1000, Jitter: NoJitter(), Seed: 1}
	tr := Generate(cfg, 0.01)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// 10 ms at 1 kHz -> 10 periods -> 20 segments.
	segs := segments(tr)
	if len(segs) != 20 {
		t.Fatalf("segments = %d, want 20", len(segs))
	}
	ldm, ldl1 := activity.LoadOf(activity.LDM), activity.LoadOf(activity.LDL1)
	for i, s := range segs {
		want := ldm
		if i%2 == 1 {
			want = ldl1
		}
		if s.Load != want {
			t.Fatalf("segment %d load %+v", i, s.Load)
		}
	}
	// Perfect square wave: starts at multiples of 0.5 ms.
	for i, s := range segs {
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
	periods := float64(tr.Len()) / 2
	gotFAlt := periods / tr.End() // approximately; End is start of last segment
	if math.Abs(gotFAlt-43300)/43300 > 0.01 {
		t.Errorf("mean alternation frequency %g, want ~43300", gotFAlt)
	}
}

func TestGenerateJitterVariesDurations(t *testing.T) {
	cfg := Config{X: activity.LDM, Y: activity.LDL1, FAlt: 1000, Jitter: DefaultJitter(), Seed: 3}
	tr := Generate(cfg, 1.0)
	durs := map[float64]bool{}
	for i := 1; i < tr.Len(); i++ {
		d := math.Round((tr.Segment(i).Start-tr.Segment(i-1).Start)*1e7) / 1e7
		durs[d] = true
	}
	if len(durs) < 3 {
		t.Errorf("jitter should produce varied durations, got %d distinct", len(durs))
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{X: activity.LDL2, Y: activity.LDL1, FAlt: 500, Jitter: DefaultJitter(), Seed: 42}
	a := segments(Generate(cfg, 0.1))
	b := segments(Generate(cfg, 0.1))
	if len(a) != len(b) {
		t.Fatal("non-deterministic segment count")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("non-deterministic trace")
		}
	}
}

func TestGenerateDuty(t *testing.T) {
	cfg := Config{X: activity.LDM, Y: activity.LDL1, FAlt: 1000, Jitter: NoJitter(), Seed: 1}
	tr := Generate(cfg, 0.01)
	// X and Y each take half of the 1 ms period.
	dx := tr.Segment(1).Start - tr.Segment(0).Start
	dy := tr.Segment(2).Start - tr.Segment(1).Start
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
					ss, ls := segments(short), segments(long)
					n := 0
					for n < len(ss) && ss[n].Start < d1 {
						n++
					}
					if n == 0 || n >= len(ls) {
						t.Fatalf("%s seed %d f_alt %g: %d segments before %g s, %d in the %g s trace",
							jt.name, seed, falt, n, d1, len(ls), d2)
					}
					for i, s := range ss[:n] {
						if s != ls[i] {
							t.Fatalf("%s seed %d f_alt %g: segment %d is %+v in the %g s trace, %+v in the %g s one",
								jt.name, seed, falt, i, s, d1, ls[i], d2)
						}
					}
					// Each segment boundary below d1 of either trace, the
					// instant before it, and a fine grid up to d1.
					var ts []float64
					for _, segs := range [][]activity.Segment{ss, ls} {
						for _, s := range segs {
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

// segments lists a trace's segments.
func segments(tr *activity.Trace) []activity.Segment {
	out := make([]activity.Segment, tr.Len())
	for i := range out {
		out[i] = tr.Segment(i)
	}
	return out
}

// referenceGenerate is Generate as it stood when a trace stored one
// 32-byte Segment per half-period: the same draws in the same order.
func referenceGenerate(cfg Config, duration float64) []activity.Segment {
	r := sig.NewRand(cfg.Seed)
	period := 1 / cfg.FAlt / cfg.Jitter.mean()
	xLoad, yLoad := activity.LoadOf(cfg.X), activity.LoadOf(cfg.Y)
	var segs []activity.Segment
	t := 0.0
	for t < duration {
		dx := period * duty * cfg.Jitter.draw(r)
		dy := period * (1 - duty) * cfg.Jitter.draw(r)
		segs = append(segs, activity.Segment{Start: t, Load: xLoad})
		t += dx
		segs = append(segs, activity.Segment{Start: t, Load: yLoad})
		t += dy
	}
	return segs
}

// TestGenerateMatchesSegmentReference: a trace stored as switch times and
// two loads holds, segment for segment, the starts and loads the
// one-Segment-per-half-period generator produced, bit for bit.
func TestGenerateMatchesSegmentReference(t *testing.T) {
	for _, j := range []Jitter{DefaultJitter(), NoJitter()} {
		for _, seed := range []int64{1, 42, 104730} {
			for _, falt := range []float64{500, 43.3e3, 312.5e3} {
				cfg := Config{X: activity.LDL2, Y: activity.LDL1, FAlt: falt, Jitter: j, Seed: seed}
				got, want := segments(Generate(cfg, 0.02)), referenceGenerate(cfg, 0.02)
				if len(got) != len(want) {
					t.Fatalf("seed %d f_alt %g: %d segments, want %d", seed, falt, len(got), len(want))
				}
				for i := range want {
					if math.Float64bits(got[i].Start) != math.Float64bits(want[i].Start) || got[i].Load != want[i].Load {
						t.Fatalf("seed %d f_alt %g: segment %d is %+v, want %+v", seed, falt, i, got[i], want[i])
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
