package main

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"fase/fasebench/calib"
)

// bench is one invocation's accounting: every op's wall time, the CPU and
// heap allocation spent inside ops, the output checks, ground-truth
// quality, the calibration samples taken between ops, and — on a traced
// run — the spans the workload records around calls into each layer.
type bench struct {
	seed    int64
	seconds int
	cal     *calib.Sampler
	steal   calib.StealMeter // over the ops' windows
	tr      *tracer          // nil on untraced runs
	inputs  hash.Hash

	lat   []float64 // untraced op latencies, seconds
	tlat  []float64 // traced op latencies, seconds (traced runs only)
	busy  float64   // seconds inside ops (a service round counts whole)
	cpu   float64   // process CPU seconds inside ops
	alloc uint64    // heap bytes allocated inside ops

	attempted, failed int
	q                 quality
	layer             map[string]float64
}

func newBench(seed int64, seconds int, traced bool) *bench {
	b := &bench{
		seed: seed, seconds: seconds,
		cal:    calib.NewSampler(4096),
		inputs: sha256.New(),
		layer:  map[string]float64{},
	}
	if traced {
		b.tr = newTracer()
	}
	return b
}

// units is how many fixed-size units of work (a rotation of systems, a
// corpus pass) the run executes: the run length in seconds divided by
// the unit's duration on the reference host. The count depends only on
// the arguments, never on how fast this host happens to be, so every
// count and quality metric is a pure function of the seed.
func (b *bench) units(refUnitSeconds float64) int {
	n := int(math.Round(float64(b.seconds) / refUnitSeconds))
	if n < 1 {
		n = 1
	}
	return n
}

// note folds generated inputs into the run's input digest.
func (b *bench) note(vals ...int64) {
	var buf [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		b.inputs.Write(buf[:])
	}
}

// timed runs fn as measured work: its wall time, process CPU and heap
// allocation are charged to the run's op totals. It returns the wall
// time in seconds.
func (b *bench) timed(fn func()) float64 {
	b.steal.Start()
	c0, a0 := cpuSeconds(), totalAlloc()
	t0 := time.Now()
	fn()
	d := time.Since(t0).Seconds()
	b.busy += d
	b.cpu += cpuSeconds() - c0
	b.alloc += totalAlloc() - a0
	b.steal.Stop()
	return d
}

// twins runs op i untraced and, on a traced run, again traced,
// alternating which twin goes first so neither always finds the other's
// inputs in cache.
func (b *bench) twins(i int, untraced, traced func()) {
	switch {
	case b.tr == nil:
		untraced()
	case i%2 == 0:
		untraced()
		b.idle()
		traced()
	default:
		traced()
		b.idle()
		untraced()
	}
}

// idle takes one calibration sample. Call it only when no op, service
// job or check is running.
func (b *bench) idle() { b.cal.Sample() }

// record counts one attempted op and whether it passed its output check.
func (b *bench) record(ok bool) {
	b.attempted++
	if !ok {
		b.failed++
	}
}

// spanMS is the normalized mean duration, in ms, of the traced spans
// named name (and labelled label, when label is not empty); 0 if none.
func (b *bench) spanMS(name, label string) float64 {
	sum, n := b.tr.total(name, label)
	if n == 0 {
		return 0
	}
	return b.ms(sum / float64(n))
}

// scale turns raw wall durations of this run into reference-host units:
// the share the hypervisor stole is removed, the rest divided by k_run.
// Process CPU time excludes stolen time already, so CPU figures take
// only the kernel factor, b.cal.Scale().
func (b *bench) scale() float64 { return (1 - b.steal.Frac()) * b.cal.Scale() }

// ms normalizes a raw duration in seconds to reference milliseconds.
func (b *bench) ms(seconds float64) float64 { return seconds * 1e3 * b.scale() }

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)*1e-6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// reservedGoroutines is how many goroutine descriptors a run creates
// before any workload code runs. The runtime never frees a descriptor, so
// without them the retained heap would also hold one for every goroutine
// the program ever had alive at once, a peak that depends on scheduling:
// it moved retained_heap_mb by up to 5% between runs with one seed.
// Workloads reuse the free descriptors instead.
const reservedGoroutines = 256

// reserveGoroutines starts reservedGoroutines goroutines, waits until all
// are alive, and lets them exit, leaving their descriptors free.
func reserveGoroutines() {
	var started, exited sync.WaitGroup
	release := make(chan struct{})
	started.Add(reservedGoroutines)
	exited.Add(reservedGoroutines)
	for i := 0; i < reservedGoroutines; i++ {
		go func() {
			defer exited.Done()
			started.Done()
			<-release
		}()
	}
	started.Wait()
	close(release)
	exited.Wait()
}

// retainedHeapMB is the live heap after forced collections. Two cycles
// empty the sync.Pool victim caches, so what remains is what the program
// keeps reachable.
func retainedHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// percentile is the linearly interpolated q-quantile (0 ≤ q ≤ 1).
func percentile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(v []float64) float64 { return percentile(v, 0.5) }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// deriveSeed spreads (seed, stream, i) over seed space with splitmix64,
// so every generated input — scene environments, campaign seeds, corpus
// orders, service jobs — has its own independent, reproducible seed.
func deriveSeed(seed int64, stream uint64, i int) int64 {
	z := uint64(seed) ^ stream<<40 ^ uint64(i)*0xD1B54A32D192ED03
	z += 0x9E3779B97F4A7C15
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z >> 1)
}

// Seed streams.
const (
	streamEnv = iota + 1
	streamWarm
	streamOp
	streamPerm
	streamJob
)
