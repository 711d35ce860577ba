package sig

import "math"

// Add is the per-pulse reference deposit AddTrain is held to: it
// deposits an impulse of the given complex area (in units of
// value·seconds) at continuous sample position pos into dst, where dst is
// sampled at rate fs, with the same tap recurrence. Positions outside
// dst are clipped sample-by-sample. It is declared in a test file because
// production deposits every pulse train through AddTrain.
func (k *ImpulseKernel) Add(dst []complex128, pos float64, area complex128, fs float64) {
	center := int(math.Round(pos))
	// The impulse in sample units has height area·fs distributed over the
	// windowed sinc.
	amp := area * complex(fs, 0)
	h := k.halfTaps
	lo := center - h
	u0 := float64(lo) - pos // distance of the first tap from the impulse
	s := math.Sin(math.Pi * u0)
	theta0 := u0 * k.dTheta
	c := math.Cos(theta0)
	cPrev := math.Cos(theta0 - k.dTheta)
	if lo >= 0 && center+h < len(dst) {
		// Fully interior impulse (the common case): same tap arithmetic
		// as below, minus the per-tap clip test.
		for i := lo; i <= center+h; i++ {
			u := float64(i) - pos
			var snc float64
			if u == 0 {
				snc = 1
			} else {
				snc = s / (math.Pi * u)
			}
			w := 0.54 + 0.46*c
			dst[i] += amp * complex(snc*w, 0)
			s = -s
			c, cPrev = k.twoCosD*c-cPrev, c
		}
		return
	}
	for i := lo; i <= center+h; i++ {
		if i >= 0 && i < len(dst) {
			u := float64(i) - pos
			var snc float64
			if u == 0 {
				snc = 1
			} else {
				snc = s / (math.Pi * u)
			}
			w := 0.54 + 0.46*c
			dst[i] += amp * complex(snc*w, 0)
		}
		s = -s
		c, cPrev = k.twoCosD*c-cPrev, c
	}
}
