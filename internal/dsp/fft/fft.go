// Package fft provides complex fast Fourier transforms of arbitrary length.
//
// Power-of-two lengths use an in-place radix-2² decimation-in-frequency
// kernel: each pass does two radix-2 stages over a contiguous twiddle
// table of its own, the ×(−i) leg of each butterfly is a swap and a sign
// flip, the last pass needs no multiply, and one trailing radix-2 pass runs
// when log₂ n is odd. The kernel reads natural order and leaves the
// transform in bit-reversed order. ForwardPermuted and InversePermuted
// expose it as is, with an optional window folded into the first pass,
// so a caller that reads every bin once (the periodogram's fftshifted
// power pass, the noise floor's add-out loop) gathers through Perm instead
// of paying a permutation pass; Forward and Inverse add the permutation.
// All other lengths fall back to Bluestein's chirp-z algorithm, which
// reduces a length-n DFT to a power-of-two circular convolution; its
// Perm is the identity.
//
// Plans cache twiddle factors so repeated transforms of the same length
// allocate nothing in steady state, and every plan is safe for concurrent
// use: the precomputed tables are read-only after construction and
// Bluestein work buffers are drawn from a per-plan pool. PlanFor caches
// plans process-wide, which is what the parallel rendering pipeline uses.
//
// The forward transform computes X[k] = sum_n x[n]·exp(-i2πkn/N) with no
// normalization; the inverse divides by N so that Inverse(Forward(x)) == x.
package fft

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"sync"

	"fase/internal/obs"
)

// Plan holds precomputed twiddle factors for transforms of a fixed size.
// Plans are safe for concurrent use by multiple goroutines.
type Plan struct {
	n    int
	perm []int32 // output order: transform element k sits at x[perm[k]]

	// Radix-2² state (used when n is a power of two): passes[p] holds
	// the twiddles of the pass of span L = n/4^p, one triple per j < L/4.
	// Passes of span 4 or 2 need none and have no table.
	passes [][]twiddles

	// Bluestein state (used otherwise).
	m       int          // convolution length (power of two >= 2n-1)
	chirp   []complex128 // exp(-iπk²/n), k = 0..n-1
	bfft    *Plan        // radix-2² plan of length m
	bk      []complex128 // FFT of the chirp filter, length m
	scratch sync.Pool    // *[]complex128 length-m work buffers
}

// twiddles are the factors W^j, W^2j, W^3j (W = exp(-i2π/L)) that one
// radix-2² butterfly of span L applies.
type twiddles struct{ w1, w2, w3 complex128 }

// planCache backs PlanFor: transform length -> *planEntry.
var planCache sync.Map

// planEntry builds its plan once: goroutines that first ask for one length
// together share one build and one miss.
type planEntry struct {
	once sync.Once
	plan *Plan
}

// Plan-cache hit/miss counters feed the run manifest's cache statistics.
var (
	planHits   = obs.Default.Counter(obs.MetricFFTPlanHits)
	planMisses = obs.Default.Counter(obs.MetricFFTPlanMisses)
)

// PlanFor returns a process-wide shared plan for length n, creating and
// caching it on first use. Because plans are immutable after construction
// (Bluestein scratch is pooled per call), the returned plan is safe for
// concurrent use from any number of goroutines.
func PlanFor(n int) *Plan {
	v, ok := planCache.Load(n)
	if !ok {
		v, _ = planCache.LoadOrStore(n, &planEntry{})
	}
	e := v.(*planEntry)
	counter := planHits
	e.once.Do(func() {
		counter = planMisses
		e.plan = NewPlan(n)
	})
	counter.Inc()
	if e.plan == nil {
		// Only a build that panicked (a bad length) leaves no plan;
		// building again panics the same way.
		return NewPlan(n)
	}
	return e.plan
}

// NewPlan creates a transform plan for length n. n must be positive.
func NewPlan(n int) *Plan {
	if n <= 0 {
		panic(fmt.Sprintf("fft: invalid transform length %d", n))
	}
	p := &Plan{n: n, perm: make([]int32, n)}
	if isPow2(n) {
		p.initRadix4()
	} else {
		p.initBluestein()
	}
	return p
}

// Len returns the transform length the plan was created for.
func (p *Plan) Len() int { return p.n }

// Perm returns the plan's output order: after ForwardPermuted or
// InversePermuted, element k of the transform sits at x[Perm()[k]]. It is
// the bit reversal for power-of-two lengths and the identity otherwise.
// The slice is shared and must not be modified.
func (p *Plan) Perm() []int32 { return p.perm }

func isPow2(n int) bool { return n&(n-1) == 0 }

func (p *Plan) initRadix4() {
	n := p.n
	// W_span^(m·j) = W_n^(m·j·n/span), from the angle of its exact
	// index on the length-n circle.
	w := func(k int) complex128 {
		s, c := math.Sincos(-2 * math.Pi * float64(k) / float64(n))
		return complex(c, s)
	}
	for span := n; span >= 8; span /= 4 {
		tw := make([]twiddles, span/4)
		for j := range tw {
			k := j * (n / span)
			tw[j] = twiddles{w(k), w(2 * k), w(3 * k)}
		}
		p.passes = append(p.passes, tw)
	}
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := range p.perm {
		p.perm[i] = int32(bits.Reverse64(uint64(i)) >> shift)
	}
}

func (p *Plan) initBluestein() {
	n := p.n
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	p.m = m
	p.bfft = NewPlan(m)
	p.chirp = make([]complex128, n)
	for k := 0; k < n; k++ {
		// Compute k² mod 2n to keep the angle argument small; exp is
		// periodic in 2n because exp(-iπ(k²+2n·j)/n) = exp(-iπk²/n).
		k2 := (int64(k) * int64(k)) % int64(2*n)
		p.chirp[k] = cmplx.Exp(complex(0, -math.Pi*float64(k2)/float64(n)))
	}
	// Filter b[k] = conj(chirp)[|k|] arranged circularly, transformed once.
	b := make([]complex128, m)
	b[0] = cmplx.Conj(p.chirp[0])
	for k := 1; k < n; k++ {
		c := cmplx.Conj(p.chirp[k])
		b[k] = c
		b[m-k] = c
	}
	p.bfft.Forward(b)
	p.bk = b
	for i := range p.perm {
		p.perm[i] = int32(i)
	}
}

// getScratch rents a length-m work buffer. Buffers are pooled per plan so
// concurrent Bluestein transforms never share scratch state.
func (p *Plan) getScratch() *[]complex128 {
	if v := p.scratch.Get(); v != nil {
		return v.(*[]complex128)
	}
	b := make([]complex128, p.m)
	return &b
}

// Forward transforms x in place. len(x) must equal the plan length.
func (p *Plan) Forward(x []complex128) {
	p.ForwardPermuted(x, nil)
	p.unpermute(x)
}

// Inverse computes the inverse transform of x in place, including the 1/N
// normalization.
func (p *Plan) Inverse(x []complex128) {
	p.InversePermuted(x)
	p.unpermute(x)
	scale(x, 1/float64(p.n))
}

// ForwardPermuted computes the forward transform of the windowed input
// w[i]·x[i] in place and leaves it in Perm order. A nil w is the
// rectangular window; otherwise len(w) must equal the plan length. For
// power-of-two lengths the window costs no pass of its own: the first
// butterfly pass scales its loads.
func (p *Plan) ForwardPermuted(x []complex128, w []float64) {
	p.checkLen(x)
	if w != nil && len(w) != p.n {
		panic(fmt.Sprintf("fft: window length %d does not match plan length %d", len(w), p.n))
	}
	if isPow2(p.n) {
		p.dif(x, w)
		return
	}
	if w != nil {
		for i, v := range x {
			x[i] = scaled(v, w[i])
		}
	}
	p.bluestein(x, false)
}

// InversePermuted computes the inverse transform of x in place without
// the 1/N normalization and leaves it in Perm order. Power-of-two lengths
// run the forward kernel between two conjugations: multiplication by a
// twiddle and addition commute with conjugation component-exactly (the
// real parts are the same IEEE expressions, the imaginary parts the same
// expressions negated, and negation is exact), so this is bit for bit the
// kernel with conjugated twiddles, without a second table.
func (p *Plan) InversePermuted(x []complex128) {
	p.checkLen(x)
	if isPow2(p.n) {
		conjugate(x)
		p.dif(x, nil)
		conjugate(x)
		return
	}
	p.bluestein(x, true)
}

// unpermute brings a Perm-ordered transform into natural order. The
// bit reversal is an involution, so swapping each pair once suffices;
// Bluestein's identity order needs nothing.
func (p *Plan) unpermute(x []complex128) {
	if !isPow2(p.n) {
		return
	}
	for i, j := range p.perm {
		if i < int(j) {
			x[i], x[j] = x[j], x[i]
		}
	}
}

func (p *Plan) checkLen(x []complex128) {
	if len(x) != p.n {
		panic(fmt.Sprintf("fft: input length %d does not match plan length %d", len(x), p.n))
	}
}

// dif is the radix-2² decimation-in-frequency kernel: natural order in,
// bit-reversed order out. A non-nil w scales the input on the first
// pass's loads.
func (p *Plan) dif(x []complex128, w []float64) {
	if w != nil && len(p.passes) == 0 {
		// n ≤ 4: no twiddled pass to fold the window into.
		for i, v := range x {
			x[i] = scaled(v, w[i])
		}
		w = nil
	}
	for i, tw := range p.passes {
		if i == 0 && w != nil {
			windowedPass(x, w, tw)
		} else {
			twiddledPass(x, tw)
		}
	}
	if bits.TrailingZeros(uint(len(x)))%2 == 0 {
		lastRadix4(x)
	} else {
		lastRadix2(x)
	}
}

// butterfly is the radix-2² butterfly over the quarter-span points
// a0…a3 of one block (j, j+q, j+2q, j+3q) before its twiddles: two
// radix-2 DIF stages, where W^q = −i folds the first stage's twiddle of
// the odd quarter into a swap and a sign flip. The pass then multiplies
// its outputs by 1, W^2j, W^j and W^3j.
func butterfly(a0, a1, a2, a3 complex128) (b0, b1, b2, b3 complex128) {
	t0, t2 := a0+a2, a0-a2
	t1, d := a1+a3, a1-a3
	t3 := complex(imag(d), -real(d))
	return t0 + t1, t0 - t1, t2 + t3, t2 - t3
}

// twiddledPass runs one radix-2² pass over every block of span
// 4·len(tw).
func twiddledPass(x []complex128, tw []twiddles) {
	q := len(tw)
	for len(x) >= 4*q {
		// Quarters of length q, spelled so the compiler drops the
		// bounds checks on x1…x3[j].
		x0, x1, x2, x3 := x[:q], x[q:][:q], x[2*q:][:q], x[3*q:][:q]
		for j, w := range tw {
			b0, b1, b2, b3 := butterfly(x0[j], x1[j], x2[j], x3[j])
			x0[j], x1[j], x2[j], x3[j] = b0, b1*w.w2, b2*w.w1, b3*w.w3
		}
		x = x[4*q:]
	}
}

// windowedPass is twiddledPass for the first pass (one block spanning
// all of x), scaling each load by its window sample.
func windowedPass(x []complex128, win []float64, tw []twiddles) {
	q := len(tw)
	x0, x1, x2, x3 := x[:q], x[q:][:q], x[2*q:][:q], x[3*q:][:q]
	w0, w1, w2, w3 := win[:q], win[q:][:q], win[2*q:][:q], win[3*q:][:q]
	for j, w := range tw {
		b0, b1, b2, b3 := butterfly(scaled(x0[j], w0[j]), scaled(x1[j], w1[j]),
			scaled(x2[j], w2[j]), scaled(x3[j], w3[j]))
		x0[j], x1[j], x2[j], x3[j] = b0, b1*w.w2, b2*w.w1, b3*w.w3
	}
}

// scaled multiplies v by the real s component-wise.
func scaled(v complex128, s float64) complex128 {
	return complex(real(v)*s, imag(v)*s)
}

// lastRadix4 is the radix-2² pass of span 4, whose twiddles are all 1.
func lastRadix4(x []complex128) {
	for len(x) >= 4 {
		b := x[:4:4]
		b[0], b[1], b[2], b[3] = butterfly(b[0], b[1], b[2], b[3])
		x = x[4:]
	}
}

// lastRadix2 is the trailing radix-2 pass of span 2 when log₂ n is odd.
func lastRadix2(x []complex128) {
	for len(x) >= 2 {
		b := x[:2:2]
		b[0], b[1] = b[0]+b[1], b[0]-b[1]
		x = x[2:]
	}
}

// bluestein computes the forward transform, or for inverse the inverse
// transform without the 1/N normalization, through the chirp-z
// convolution.
func (p *Plan) bluestein(x []complex128, inverse bool) {
	n, m := p.n, p.m
	if inverse {
		conjugate(x)
	}
	ap := p.getScratch()
	defer p.scratch.Put(ap)
	a := *ap
	for k := 0; k < n; k++ {
		a[k] = x[k] * p.chirp[k]
	}
	for k := n; k < m; k++ {
		a[k] = 0
	}
	p.bfft.Forward(a)
	for k := 0; k < m; k++ {
		a[k] *= p.bk[k]
	}
	// Inverse length-m transform via conjugation.
	conjugate(a)
	p.bfft.Forward(a)
	inv := 1 / float64(m)
	for k := 0; k < n; k++ {
		x[k] = cmplx.Conj(a[k]) * p.chirp[k] * complex(inv, 0)
	}
	if inverse {
		conjugate(x)
	}
}

func conjugate(x []complex128) {
	for i, v := range x {
		x[i] = cmplx.Conj(v)
	}
}

func scale(x []complex128, s float64) {
	for i := range x {
		x[i] *= complex(s, 0)
	}
}

// Forward is a convenience wrapper that plans and executes a forward
// transform, returning a new slice.
func Forward(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	copy(out, x)
	PlanFor(len(x)).Forward(out)
	return out
}

// Inverse is a convenience wrapper that plans and executes an inverse
// transform, returning a new slice.
func Inverse(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	copy(out, x)
	PlanFor(len(x)).Inverse(out)
	return out
}

// NextPow2 returns the smallest power of two >= n (and at least 1).
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << uint(bits.Len(uint(n-1)))
}
