// Package bufpool provides size-checked sync.Pool-backed scratch buffers
// for the rendering pipeline's hot path: complex-baseband capture buffers
// and periodogram bin arrays. In steady state (repeated sweeps of the same
// geometry) every Get is served from the pool and the pipeline allocates
// nothing per capture.
//
// Buffers come back dirty: callers must overwrite every element (or zero
// the buffer themselves) before use.
package bufpool

import (
	"sync"

	"fase/internal/obs"
)

// Pool hit/miss counters feed the run manifest's cache statistics. A
// "miss" is a Get that had to allocate (empty pool or undersized
// buffer); in steady state every Get is a hit.
var (
	complexHits   = obs.Default.Counter(obs.MetricBufpoolComplexHits)
	complexMisses = obs.Default.Counter(obs.MetricBufpoolComplexMisses)
	floatHits     = obs.Default.Counter(obs.MetricBufpoolFloatHits)
	floatMisses   = obs.Default.Counter(obs.MetricBufpoolFloatMisses)
)

// pool is a process-wide buffer pool of one element type. Buffers travel
// in *[]T boxes that are themselves recycled, so returning a buffer
// allocates nothing. A request that meets a buffer too short for it
// drops that buffer and allocates: the collector empties the pools at
// every cycle, and under that pressure one pool whose largest buffers
// survive serves the pipeline's mixed sizes with fewer allocations than
// one pool per power-of-two size class did (EXPERIMENTS "alloc-keep").
type pool[T any] struct {
	bufs         sync.Pool // *[]T holding a buffer
	boxes        sync.Pool // empty *[]T
	hits, misses *obs.Counter
}

// get returns a dirty []T of length n, allocating only when the pooled
// buffer it takes is too short, or the pool is empty.
func (p *pool[T]) get(n int) []T {
	if v := p.bufs.Get(); v != nil {
		box := v.(*[]T)
		b := *box
		*box = nil
		p.boxes.Put(box)
		if cap(b) >= n {
			p.hits.Inc()
			return b[:n]
		}
	}
	p.misses.Inc()
	return make([]T, n)
}

// put returns b to the pool.
func (p *pool[T]) put(b []T) {
	if cap(b) == 0 {
		return
	}
	box, _ := p.boxes.Get().(*[]T)
	if box == nil {
		box = new([]T)
	}
	*box = b[:cap(b)]
	p.bufs.Put(box)
}

var (
	complexPool = pool[complex128]{hits: complexHits, misses: complexMisses}
	floatPool   = pool[float64]{hits: floatHits, misses: floatMisses}
)

// Complex returns a dirty []complex128 of length n from the pool,
// allocating only when no pooled buffer is large enough.
func Complex(n int) []complex128 { return complexPool.get(n) }

// PutComplex returns a buffer obtained from Complex to the pool. The
// caller must not use b afterwards.
func PutComplex(b []complex128) { complexPool.put(b) }

// Float returns a dirty []float64 of length n from the pool.
func Float(n int) []float64 { return floatPool.get(n) }

// PutFloat returns a buffer obtained from Float to the pool. The caller
// must not use b afterwards.
func PutFloat(b []float64) { floatPool.put(b) }

// Arena is an owner-scoped buffer freelist. Unlike the process-wide
// sync.Pools above — whose contents the garbage collector may drop
// between sweeps — buffers returned to an Arena are retained for the
// owner's lifetime, so a long campaign's captures stop allocating after
// the first sweep regardless of GC pressure. One arena may serve several
// geometries at once (a campaign's recon and refinement sweeps, or a
// sweep's full and short segments), so a request takes the smallest
// retained buffer that fits and leaves the others in place. The zero
// value is ready; all methods are safe for concurrent use. Buffers come
// back dirty, same as the package-level pools.
type Arena struct {
	mu       sync.Mutex
	complexs freelist[complex128]
	floats   freelist[float64]
}

// freelist is an arena's retained buffers of one element type.
type freelist[T any] [][]T

// take removes and returns the smallest buffer of capacity at least n,
// resliced to n; ok is false when none fits.
func (f *freelist[T]) take(n int) (b []T, ok bool) {
	best := -1
	for i, c := range *f {
		if cap(c) >= n && (best < 0 || cap(c) < cap((*f)[best])) {
			best = i
		}
	}
	if best < 0 {
		return nil, false
	}
	l := *f
	b = l[best]
	l[best] = l[len(l)-1]
	l[len(l)-1] = nil
	*f = l[:len(l)-1]
	return b[:n], true
}

// Complex returns a dirty []complex128 of length n, reusing the smallest
// retained buffer that is large enough.
func (a *Arena) Complex(n int) []complex128 {
	a.mu.Lock()
	b, ok := a.complexs.take(n)
	a.mu.Unlock()
	if ok {
		complexHits.Inc()
		return b
	}
	complexMisses.Inc()
	return make([]complex128, n)
}

// PutComplex retains a buffer for reuse. The caller must not use b
// afterwards.
func (a *Arena) PutComplex(b []complex128) {
	if cap(b) == 0 {
		return
	}
	a.mu.Lock()
	a.complexs = append(a.complexs, b[:cap(b)])
	a.mu.Unlock()
}

// Float returns a dirty []float64 of length n from the arena.
func (a *Arena) Float(n int) []float64 {
	a.mu.Lock()
	b, ok := a.floats.take(n)
	a.mu.Unlock()
	if ok {
		floatHits.Inc()
		return b
	}
	floatMisses.Inc()
	return make([]float64, n)
}

// PutFloat retains a buffer for reuse. The caller must not use b
// afterwards.
func (a *Arena) PutFloat(b []float64) {
	if cap(b) == 0 {
		return
	}
	a.mu.Lock()
	a.floats = append(a.floats, b[:cap(b)])
	a.mu.Unlock()
}
