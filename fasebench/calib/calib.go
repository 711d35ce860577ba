// Package calib is the benchmark's host-drift yardstick: a fixed
// floating-point kernel whose run time tracks how fast this host is
// executing scalar math right now, and a meter of the CPU time the
// hypervisor steals. Every timing the benchmark reports has the stolen
// share removed, is divided by the kernel's median time in the same run
// and is multiplied by RefSeconds, so a slow or fast moment of a shared
// host scales the kernel and the workload alike and cancels out.
//
// The package imports nothing from the repository, allocates nothing and
// touches only a few scalars, so no change to the program can make the
// kernel itself slower or faster. Callers sample it only while the
// program is idle, and no garbage-collection cycle may overlap a sample,
// because a collector running in the background would slow the kernel
// and make a change that allocates more look faster.
package calib

import (
	"bytes"
	"io"
	"math"
	"os"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"time"
)

// Steps is the kernel length: math.Sincos calls per sample. At about
// 20 ns per call a sample takes about 4 ms, long enough to swamp timer
// resolution and short enough to fit between operations.
const Steps = 200_000

// RefSeconds is k_ref: the median Kernel(Steps) time on the reference
// host (2-vCPU KVM guest on a Xeon, Go 1.24, GOMAXPROCS 2). Reported
// wall timings are raw × (1 − stolen) × RefSeconds / k_run.
const RefSeconds = 3.95e-3

// Kernel runs n steps of a math.Sincos plus multiply-add recurrence on
// a handful of scalars and returns the accumulator so the compiler
// cannot drop the loop. The argument stays in [0, 2π) so every call
// takes the same argument-reduction path.
func Kernel(n int) float64 {
	x, acc := 0.25, 0.0
	for i := 0; i < n; i++ {
		s, c := math.Sincos(x)
		acc = acc*0.9995 + s*c
		x += 0.0137
		if x >= 2*math.Pi {
			x -= 2 * math.Pi
		}
	}
	return acc
}

// maxTries bounds how often one sample is retaken because a GC cycle
// finished inside it; a sample that never comes clean is dropped.
const maxTries = 8

// Sampler collects guarded kernel samples.
type Sampler struct {
	gc      []metrics.Sample
	samples []float64
	sink    float64
	// Retaken counts samples discarded because a GC cycle ended inside
	// their window.
	Retaken int
}

// NewSampler returns a sampler with room for capacity samples, so
// Sample does not allocate until that many were taken.
func NewSampler(capacity int) *Sampler {
	return &Sampler{
		gc:      []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}},
		samples: make([]float64, 0, capacity),
	}
}

func (s *Sampler) gcCycles() uint64 {
	metrics.Read(s.gc)
	return s.gc[0].Value.Uint64()
}

// Measure times Kernel(Steps) on the calling goroutine and returns the
// time in seconds. No garbage-collection cycle overlaps the window:
// debug.SetGCPercent(-1) first waits until a mark phase in flight has
// ended and then holds off new cycles until the previous setting is
// restored after the sample. A sample whose window still saw the
// completed-cycle count move — a cycle forced with runtime.GC — is
// retaken, and Measure reports false when no clean sample was obtained.
// It allocates nothing.
func (s *Sampler) Measure() (float64, bool) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for try := 0; try < maxTries; try++ {
		before := s.gcCycles()
		t0 := time.Now()
		s.sink += Kernel(Steps)
		d := time.Since(t0).Seconds()
		if s.gcCycles() == before {
			return d, true
		}
		s.Retaken++
	}
	return 0, false
}

// Sample takes one guarded sample and keeps it. Call it only while no
// operation of the program under test is in flight.
func (s *Sampler) Sample() {
	if d, ok := s.Measure(); ok {
		s.samples = append(s.samples, d)
	}
}

// StealMeter measures, over the windows between Start and Stop, the
// share of the CPU time this machine's CPUs wanted that the hypervisor
// gave to other guests instead (the steal column of /proc/stat). On a
// shared host that share swings from a few percent to a third within
// minutes. A kernel sample lasts a few milliseconds and its median
// misses the stolen slices, but an op of tens of milliseconds always
// absorbs its share, so op times are scaled by 1 − Frac before they are
// divided by k_run.
type StealMeter struct {
	wanted, stolen float64
	w0, s0         float64
	buf            []byte
}

// cpuTicks reads the aggregate cpu line of /proc/stat: the ticks spent
// running (user, nice, system, irq, softirq) plus stolen, and the ticks
// stolen. It reports false where /proc/stat is unavailable.
func (m *StealMeter) cpuTicks() (wanted, stolen float64, ok bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	defer f.Close()
	if m.buf == nil {
		m.buf = make([]byte, 512)
	}
	n, _ := io.ReadFull(f, m.buf)
	line, _, _ := bytes.Cut(m.buf[:n], []byte("\n"))
	fields := bytes.Fields(line)
	if len(fields) < 9 || string(fields[0]) != "cpu" {
		return 0, 0, false
	}
	var v [9]float64
	for i := 1; i < 9; i++ {
		if v[i], err = strconv.ParseFloat(string(fields[i]), 64); err != nil {
			return 0, 0, false
		}
	}
	// Fields: user nice system idle iowait irq softirq steal.
	return v[1] + v[2] + v[3] + v[6] + v[7] + v[8], v[8], true
}

// Start opens a window.
func (m *StealMeter) Start() { m.w0, m.s0, _ = m.cpuTicks() }

// Stop closes the window opened by Start and adds it to the totals.
func (m *StealMeter) Stop() {
	if w, s, ok := m.cpuTicks(); ok {
		m.wanted += w - m.w0
		m.stolen += s - m.s0
	}
}

// Frac is the stolen share of the wanted CPU time over all windows, 0
// when nothing was measured.
func (m *StealMeter) Frac() float64 {
	if m.wanted <= 0 {
		return 0
	}
	return m.stolen / m.wanted
}

// Len is the number of samples kept.
func (s *Sampler) Len() int { return len(s.samples) }

// Median is k_run, the median kept sample in seconds (0 with none).
func (s *Sampler) Median() float64 {
	if len(s.samples) == 0 {
		return 0
	}
	v := append([]float64(nil), s.samples...)
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// Scale is the factor that turns a raw duration of this run into
// reference-host units: RefSeconds / k_run.
func (s *Sampler) Scale() float64 {
	if m := s.Median(); m > 0 {
		return RefSeconds / m
	}
	return 1
}
