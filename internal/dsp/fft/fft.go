// Package fft provides complex fast Fourier transforms of arbitrary length.
//
// Power-of-two lengths use an iterative in-place radix-2 Cooley-Tukey
// transform; all other lengths fall back to Bluestein's chirp-z algorithm,
// which reduces a length-n DFT to a power-of-two circular convolution.
// Plans cache twiddle factors so repeated transforms of the same length
// allocate nothing in steady state, and every plan is safe for concurrent
// Forward/Inverse calls: the precomputed tables are read-only after
// construction and Bluestein work buffers are drawn from a per-plan pool.
// PlanFor caches plans process-wide, which is what the parallel rendering
// pipeline uses.
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
	n int

	// Radix-2 state (used when n is a power of two).
	twiddle    []complex128 // n/2 forward twiddles
	twiddleInv []complex128 // conjugated twiddles for the inverse kernel
	rev        []int        // bit-reversal permutation

	// Bluestein state (used otherwise).
	m       int          // convolution length (power of two >= 2n-1)
	chirp   []complex128 // exp(-iπk²/n), k = 0..n-1
	bfft    *Plan        // radix-2 plan of length m
	bk      []complex128 // FFT of the chirp filter, length m
	scratch sync.Pool    // *[]complex128 length-m work buffers
}

// planCache backs PlanFor: transform length -> *Plan.
var planCache sync.Map

// Plan-cache hit/miss counters feed the run manifest's cache statistics.
// Concurrent first uses of one length may each count a miss; the cache
// keeps a single plan regardless.
var (
	planHits   = obs.Default.Counter(obs.MetricFFTPlanHits)
	planMisses = obs.Default.Counter(obs.MetricFFTPlanMisses)
)

// PlanFor returns a process-wide shared plan for length n, creating and
// caching it on first use. Because plans are immutable after construction
// (Bluestein scratch is pooled per call), the returned plan is safe for
// concurrent use from any number of goroutines.
func PlanFor(n int) *Plan {
	if v, ok := planCache.Load(n); ok {
		planHits.Inc()
		return v.(*Plan)
	}
	planMisses.Inc()
	v, _ := planCache.LoadOrStore(n, NewPlan(n))
	return v.(*Plan)
}

// NewPlan creates a transform plan for length n. n must be positive.
func NewPlan(n int) *Plan {
	if n <= 0 {
		panic(fmt.Sprintf("fft: invalid transform length %d", n))
	}
	p := &Plan{n: n}
	if isPow2(n) {
		p.initRadix2()
	} else {
		p.initBluestein()
	}
	return p
}

// Len returns the transform length the plan was created for.
func (p *Plan) Len() int { return p.n }

func isPow2(n int) bool { return n&(n-1) == 0 }

func (p *Plan) initRadix2() {
	n := p.n
	p.twiddle = make([]complex128, n/2)
	for k := range p.twiddle {
		s, c := math.Sincos(-2 * math.Pi * float64(k) / float64(n))
		p.twiddle[k] = complex(c, s)
	}
	p.twiddleInv = make([]complex128, n/2)
	for k, w := range p.twiddle {
		p.twiddleInv[k] = complex(real(w), -imag(w))
	}
	p.rev = make([]int, n)
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := range p.rev {
		p.rev[i] = int(bits.Reverse64(uint64(i)) >> shift)
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
	p.bfft.forwardPow2(b)
	p.bk = b
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
	p.checkLen(x)
	if p.twiddle != nil {
		p.forwardPow2(x)
		return
	}
	p.bluestein(x, false)
}

// Inverse computes the inverse transform of x in place, including the 1/N
// normalization.
func (p *Plan) Inverse(x []complex128) {
	p.checkLen(x)
	if p.twiddle != nil {
		p.inversePow2(x)
		scale(x, 1/float64(p.n))
		return
	}
	p.bluestein(x, true)
}

func (p *Plan) checkLen(x []complex128) {
	if len(x) != p.n {
		panic(fmt.Sprintf("fft: input length %d does not match plan length %d", len(x), p.n))
	}
}

// forwardPow2 is the iterative radix-2 butterfly kernel.
func (p *Plan) forwardPow2(x []complex128) {
	n := len(x)
	for i, j := range p.rev {
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := n / size
		for start := 0; start < n; start += size {
			tw := 0
			for k := start; k < start+half; k++ {
				t := p.twiddle[tw] * x[k+half]
				x[k+half] = x[k] - t
				x[k] = x[k] + t
				tw += step
			}
		}
	}
}

// inversePow2 is the un-normalized inverse butterfly kernel. It is the
// conjugate-twiddle mirror of forwardPow2 and produces bits identical to
// conjugate → forwardPow2 → conjugate: complex multiplication by conj(w)
// and complex addition both commute with conjugation component-exactly
// (the real parts are the same IEEE expressions, the imaginary parts the
// same expressions negated, and negation is exact), so the two conjugate
// passes can be elided without perturbing a single ULP.
func (p *Plan) inversePow2(x []complex128) {
	n := len(x)
	for i, j := range p.rev {
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := n / size
		for start := 0; start < n; start += size {
			tw := 0
			for k := start; k < start+half; k++ {
				t := p.twiddleInv[tw] * x[k+half]
				x[k+half] = x[k] - t
				x[k] = x[k] + t
				tw += step
			}
		}
	}
}

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
	p.bfft.forwardPow2(a)
	for k := 0; k < m; k++ {
		a[k] *= p.bk[k]
	}
	// Inverse length-m transform via conjugation.
	conjugate(a)
	p.bfft.forwardPow2(a)
	inv := 1 / float64(m)
	for k := 0; k < n; k++ {
		x[k] = cmplx.Conj(a[k]) * p.chirp[k] * complex(inv, 0)
	}
	if inverse {
		conjugate(x)
		scale(x, 1/float64(n))
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

// Shift rotates a spectrum so that the zero-frequency bin is centered,
// i.e. it swaps the two halves of x (fftshift). For odd lengths the
// negative frequencies end up before bin (n-1)/2.
func Shift(x []complex128) {
	n := len(x)
	h := (n + 1) / 2
	rotate(x, h)
}

// rotate left-rotates x by k positions using three reversals.
func rotate(x []complex128, k int) {
	n := len(x)
	if n == 0 {
		return
	}
	k %= n
	if k == 0 {
		return
	}
	reverse(x[:k])
	reverse(x[k:])
	reverse(x)
}

func reverse(x []complex128) {
	for i, j := 0, len(x)-1; i < j; i, j = i+1, j-1 {
		x[i], x[j] = x[j], x[i]
	}
}

// NextPow2 returns the smallest power of two >= n (and at least 1).
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << uint(bits.Len(uint(n-1)))
}
