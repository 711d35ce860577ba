package sig

import (
	"math"
	"math/rand"
	"testing"
)

// ulpDist is the distance between a and b in units in the last place:
// the number of representable float64s between them (0 when bit-equal).
func ulpDist(a, b float64) uint64 {
	ia, ib := int64(math.Float64bits(a)), int64(math.Float64bits(b))
	// Map the sign-magnitude encoding onto a monotone integer line.
	if ia < 0 {
		ia = math.MinInt64 - ia
	}
	if ib < 0 {
		ib = math.MinInt64 - ib
	}
	if ia > ib {
		return uint64(ia - ib)
	}
	return uint64(ib - ia)
}

// checkSmallSincos holds SmallSincos to its contract at x: within 1 ulp of
// math.Sincos inside the polynomial range, bit-equal outside it (NaN and
// ±Inf included).
func checkSmallSincos(t *testing.T, x float64) {
	t.Helper()
	s, c := SmallSincos(x)
	ws, wc := math.Sincos(x)
	if math.Abs(x) <= smallAngle {
		if ds, dc := ulpDist(s, ws), ulpDist(c, wc); ds > 1 || dc > 1 {
			t.Fatalf("SmallSincos(%g) = (%v, %v), math.Sincos = (%v, %v): %d/%d ulp apart",
				x, s, c, ws, wc, ds, dc)
		}
		return
	}
	if math.Float64bits(s) != math.Float64bits(ws) || math.Float64bits(c) != math.Float64bits(wc) {
		t.Fatalf("SmallSincos(%g) = (%v, %v) outside the polynomial range, math.Sincos = (%v, %v)",
			x, s, c, ws, wc)
	}
}

// TestSmallSincos checks the helper against math.Sincos on random
// arguments across the polynomial range (uniform, and log-uniform down to
// subnormals), at its edges, and on the special values.
func TestSmallSincos(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 200000; i++ {
		x := (2*r.Float64() - 1) * smallAngle
		checkSmallSincos(t, x)
		checkSmallSincos(t, math.Copysign(math.Exp2(-5-1070*r.Float64()), x))
	}
	for _, x := range []float64{
		0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		smallAngle, -smallAngle, math.Nextafter(smallAngle, 1), math.Nextafter(-smallAngle, -1),
		1e-3, -2 * math.Pi * 350 * 1e-6, 1, math.Pi, 1e300,
		math.NaN(), math.Inf(1), math.Inf(-1),
	} {
		checkSmallSincos(t, x)
	}
	if s, _ := SmallSincos(math.Copysign(0, -1)); !math.Signbit(s) {
		t.Error("SmallSincos(-0) lost the sign of sin(-0)")
	}
}

// FuzzSmallSincos fuzzes the same contract over arbitrary float64 inputs.
func FuzzSmallSincos(f *testing.F) {
	for _, x := range []float64{0, 1e-3, -1e-3, smallAngle, -smallAngle, 0.5, math.NaN(), math.Inf(1), math.Inf(-1), 5e-324} {
		f.Add(x)
	}
	f.Fuzz(func(t *testing.T, x float64) {
		checkSmallSincos(t, x)
	})
}
