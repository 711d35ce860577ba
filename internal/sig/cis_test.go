package sig

import (
	"math"
	"math/rand"
	"testing"
)

// cisTol is Cis's accuracy contract: each component within 2⁻⁵⁰ of
// math.Sincos below cisBound.
var cisTol = math.Ldexp(1, -50)

// checkCis holds Cis to its contract at x: within cisTol of math.Sincos
// for 0 < |x| < cisBound, bit-equal to it everywhere else (±0, NaN and
// ±Inf included).
func checkCis(t *testing.T, x float64) {
	t.Helper()
	s, c := Cis(x)
	ws, wc := math.Sincos(x)
	if a := math.Abs(x); a < cisBound && a != 0 {
		if math.Abs(s-ws) > cisTol || math.Abs(c-wc) > cisTol {
			t.Fatalf("Cis(%v) = (%v, %v), math.Sincos = (%v, %v): %.3g/%.3g apart",
				x, s, c, ws, wc, s-ws, c-wc)
		}
		return
	}
	if math.Float64bits(s) != math.Float64bits(ws) || math.Float64bits(c) != math.Float64bits(wc) {
		t.Fatalf("Cis(%v) = (%v, %v) outside the table range, math.Sincos = (%v, %v)",
			x, s, c, ws, wc)
	}
}

// TestCis checks Cis against math.Sincos at every table node and every
// midpoint between nodes (where the rounded step count may go either
// way) over several turns of both signs, at both sides of the fallback
// bound, on the special values and on 10⁶ random arguments below the
// bound: uniform over (−cisBound, cisBound), uniform over a few turns,
// and log-uniform down to subnormals.
func TestCis(t *testing.T) {
	for turn := -3; turn <= 3; turn++ {
		for j := 0; j < 2*cisSteps; j++ {
			x := 2 * math.Pi * (float64(turn) + float64(j)/(2*cisSteps))
			checkCis(t, x)
		}
	}
	below := math.Nextafter(cisBound, 0)
	for _, x := range []float64{below, -below} {
		checkCis(t, x)
		s, c := Cis(x)
		rs, rc := cisReduced(x)
		if math.Float64bits(s) != math.Float64bits(rs) || math.Float64bits(c) != math.Float64bits(rc) {
			t.Errorf("Cis(%v) = (%v, %v) did not take the table path (%v, %v)", x, s, c, rs, rc)
		}
	}
	for _, x := range []float64{
		cisBound, -cisBound, math.Nextafter(cisBound, math.Inf(1)), 1e300, -1e300,
		0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1),
	} {
		checkCis(t, x)
	}
	if s, _ := Cis(math.Copysign(0, -1)); !math.Signbit(s) {
		t.Error("Cis(-0) lost the sign of sin(-0)")
	}
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 1000000; i++ {
		var x float64
		switch i % 3 {
		case 0:
			x = (2*r.Float64() - 1) * cisBound
		case 1:
			x = (2*r.Float64() - 1) * 8 * math.Pi
		default:
			x = math.Copysign(math.Exp2(23.6-1100*r.Float64()), r.Float64()-0.5)
		}
		checkCis(t, x)
	}
}

// FuzzCis fuzzes the same contract over arbitrary float64 inputs.
func FuzzCis(f *testing.F) {
	for _, x := range []float64{0, 1e-3, -1e-3, math.Pi / 1024, 2 * math.Pi, -2.5e6, cisBound, math.Nextafter(cisBound, 0),
		-cisBound, 1e300, math.NaN(), math.Inf(1), math.Inf(-1), 5e-324} {
		f.Add(x)
	}
	f.Fuzz(func(t *testing.T, x float64) {
		checkCis(t, x)
	})
}

// cisSink keeps the benchmarked calls from being optimized away.
var cisSink float64

// BenchmarkCis times Cis against math.Sincos on the downconversion phases
// of a refresh train: 4 ranks of a 7.8 µs tREFI grid (a pulse every
// 1.95 µs) 0.1 s into a capture centred at 400 kHz. Each argument
// depends on the previous result, so the loop measures latency, as the
// per-pulse call in ImpulseKernel.AddTrain does.
func BenchmarkCis(b *testing.B) {
	const pulses = 4096
	phases := make([]float64, pulses)
	for i := range phases {
		phases[i] = -2 * math.Pi * 400e3 * (0.1 + float64(i)*7.8e-6/4)
	}
	b.Run("Cis", func(b *testing.B) {
		var acc float64
		for i := 0; i < b.N; i++ {
			s, c := Cis(phases[i%pulses] + acc)
			acc = (s + c) * 0x1p-60
		}
		cisSink = acc
	})
	b.Run("Sincos", func(b *testing.B) {
		var acc float64
		for i := 0; i < b.N; i++ {
			s, c := math.Sincos(phases[i%pulses] + acc)
			acc = (s + c) * 0x1p-60
		}
		cisSink = acc
	})
}
