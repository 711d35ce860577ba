// Package activity models program activity as a time-varying load on the
// system's power domains.
//
// The paper's micro-benchmarks (§2.2, Fig. 6) alternate between two
// activities — loads/stores hitting different cache levels, or ALU
// operations. What the EM side channel sees is each activity's demand on
// the CPU cores, the on-chip memory interface (memory controller), and the
// DRAM itself: those loads drive regulator duty cycles, refresh scheduling
// disruption, and clock-driven switching currents.
package activity

import (
	"fmt"
	"sort"
	"strings"
)

// Kind identifies one micro-benchmark activity ("the X-instruction").
type Kind int

const (
	// Idle is the quiescent system (no micro-benchmark running).
	Idle Kind = iota
	// LDM is a load that misses the LLC and accesses main memory.
	LDM
	// STM is a store producing LLC write-back traffic to main memory.
	STM
	// LDL1 is a load that hits in the L1 data cache.
	LDL1
	// LDL2 is a load that hits in the L2 cache.
	LDL2
	// ADD is dependent integer addition.
	ADD
	// SUB is dependent integer subtraction.
	SUB
	// MUL is dependent integer multiplication.
	MUL
	// DIV is dependent integer division.
	DIV
)

// String returns the paper's abbreviation for the activity.
func (k Kind) String() string {
	switch k {
	case Idle:
		return "IDLE"
	case LDM:
		return "LDM"
	case STM:
		return "STM"
	case LDL1:
		return "LDL1"
	case LDL2:
		return "LDL2"
	case ADD:
		return "ADD"
	case SUB:
		return "SUB"
	case MUL:
		return "MUL"
	case DIV:
		return "DIV"
	default:
		return fmt.Sprintf("activity.Kind(%d)", int(k))
	}
}

// ParseKind converts the paper's abbreviation (case-insensitive) back to
// an activity kind.
func ParseKind(s string) (Kind, error) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "IDLE":
		return Idle, nil
	case "LDM":
		return LDM, nil
	case "STM":
		return STM, nil
	case "LDL1":
		return LDL1, nil
	case "LDL2":
		return LDL2, nil
	case "ADD":
		return ADD, nil
	case "SUB":
		return SUB, nil
	case "MUL":
		return MUL, nil
	case "DIV":
		return DIV, nil
	default:
		return 0, fmt.Errorf("activity: unknown kind %q", s)
	}
}

// ParsePair parses an "X/Y" activity pair such as "LDM/LDL1".
func ParsePair(s string) (Kind, Kind, error) {
	parts := strings.Split(s, "/")
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("activity: pair must look like LDM/LDL1, got %q", s)
	}
	x, err := ParseKind(parts[0])
	if err != nil {
		return 0, 0, err
	}
	y, err := ParseKind(parts[1])
	if err != nil {
		return 0, 0, err
	}
	return x, y, nil
}

// Load is the normalized demand an activity places on each power domain,
// each in [0, 1].
type Load struct {
	Core   float64 // CPU core logic (drives the core regulator)
	MemCtl float64 // on-chip memory interface (drives its regulator)
	DRAM   float64 // DRAM accesses (drives DIMM regulator, refresh disruption, DRAM clock activity)
}

// LoadOf returns the calibrated load vector for an activity kind.
//
// The vector relationships encode the paper's observations: LDM and LDL1
// keep the cores equally busy (the alternation loop is the same code, §3),
// so LDM/LDL1 modulates only memory-side domains; LDL2 burns more core
// power than LDL1, so LDL2/LDL1 modulates the core regulator and nothing
// memory-side.
func LoadOf(k Kind) Load {
	switch k {
	case Idle:
		return Load{Core: 0.05, MemCtl: 0.01, DRAM: 0.01}
	case LDM:
		return Load{Core: 0.50, MemCtl: 0.90, DRAM: 1.00}
	case STM:
		return Load{Core: 0.50, MemCtl: 0.85, DRAM: 0.95}
	case LDL1:
		return Load{Core: 0.50, MemCtl: 0.05, DRAM: 0.02}
	case LDL2:
		return Load{Core: 0.78, MemCtl: 0.05, DRAM: 0.02}
	case ADD:
		return Load{Core: 0.48, MemCtl: 0.02, DRAM: 0.01}
	case SUB:
		return Load{Core: 0.48, MemCtl: 0.02, DRAM: 0.01}
	case MUL:
		return Load{Core: 0.62, MemCtl: 0.02, DRAM: 0.01}
	case DIV:
		return Load{Core: 0.75, MemCtl: 0.02, DRAM: 0.01}
	default:
		panic(fmt.Sprintf("activity: unknown kind %d", int(k)))
	}
}

// Domain selects one power domain of a Load.
type Domain int

const (
	// DomainNone is a constant zero load (for emitters that no program
	// activity modulates, e.g. AM radio stations or the CPU clock as
	// observed in §1).
	DomainNone Domain = iota
	// DomainCore selects Load.Core.
	DomainCore
	// DomainMemCtl selects Load.MemCtl.
	DomainMemCtl
	// DomainDRAM selects Load.DRAM.
	DomainDRAM
)

// String names the domain.
func (d Domain) String() string {
	switch d {
	case DomainNone:
		return "none"
	case DomainCore:
		return "core"
	case DomainMemCtl:
		return "memctl"
	case DomainDRAM:
		return "dram"
	default:
		return fmt.Sprintf("activity.Domain(%d)", int(d))
	}
}

// Of extracts the domain's component from a load vector.
func (d Domain) Of(l Load) float64 {
	switch d {
	case DomainNone:
		return 0
	case DomainCore:
		return l.Core
	case DomainMemCtl:
		return l.MemCtl
	case DomainDRAM:
		return l.DRAM
	default:
		panic(fmt.Sprintf("activity: unknown domain %d", int(d)))
	}
}

// Segment is one constant-load interval of a trace: its load holds from
// Start until the next segment's Start.
type Segment struct {
	Start float64 // seconds
	Load  Load
}

// Trace is a piecewise-constant load envelope: segment i holds from its
// start until segment i+1's (the last holds forever). Starts must be
// sorted, and the first should be at or before 0.
//
// A trace keeps its segments' start times apart from their loads, and
// segment i holds loads[i mod len(loads)]: an alternation between two
// activities stores its two loads once and 8 bytes per switch, while a
// trace of arbitrary loads stores one load per segment. The zero value
// is the empty trace, which reads the zero load everywhere.
type Trace struct {
	starts []float64
	loads  []Load
}

// New returns the trace whose segment i starts at starts[i] and holds
// loads[i mod len(loads)]: pass one load per start for arbitrary loads,
// or the cycle of loads an alternation repeats. The trace keeps starts
// and loads, which the caller must not modify afterwards.
func New(starts []float64, loads ...Load) *Trace {
	if len(starts) > 0 && len(loads) == 0 {
		panic("activity: a trace with segments needs at least one load")
	}
	return &Trace{starts: starts, loads: loads}
}

// NewConstant returns a trace that holds a single load forever.
func NewConstant(l Load) *Trace {
	return New([]float64{0}, l)
}

// Len returns the number of segments.
func (tr *Trace) Len() int { return len(tr.starts) }

// Segment returns segment i.
func (tr *Trace) Segment(i int) Segment {
	return Segment{Start: tr.starts[i], Load: tr.load(i)}
}

// load returns the load segment i holds.
func (tr *Trace) load(i int) Load { return tr.loads[i%len(tr.loads)] }

// At returns the load at time t using binary search. For sample-by-sample
// rendering use a Cursor, which is O(1) amortized for monotone time.
func (tr *Trace) At(t float64) Load {
	if len(tr.starts) == 0 {
		return Load{}
	}
	i := sort.Search(len(tr.starts), func(i int) bool { return tr.starts[i] > t })
	if i == 0 {
		return tr.load(0)
	}
	return tr.load(i - 1)
}

// End returns the start time of the last segment (the trace holds its last
// load beyond this).
func (tr *Trace) End() float64 {
	if len(tr.starts) == 0 {
		return 0
	}
	return tr.starts[len(tr.starts)-1]
}

// Cursor iterates a trace with monotonically non-decreasing time queries.
type Cursor struct {
	trace *Trace
	idx   int
}

// Cursor returns a new cursor positioned at the beginning of the trace.
func (tr *Trace) Cursor() *Cursor { return &Cursor{trace: tr} }

// At returns the load at time t. Queries must be non-decreasing in t;
// earlier times return the load at the cursor's current segment.
func (c *Cursor) At(t float64) Load {
	starts := c.trace.starts
	if len(starts) == 0 {
		return Load{}
	}
	for c.idx+1 < len(starts) && starts[c.idx+1] <= t {
		c.idx++
	}
	return c.trace.load(c.idx)
}

// SampleRuns iterates the maximal constant-segment runs of the uniform
// sample grid t_i = start + i·dt, i ∈ [0, n): each Next yields a half-open
// sample range [i0, i1) whose samples all read the same trace segment.
//
// Boundary samples are assigned by the exact Cursor predicate
// (segment s+1's start <= t_i), evaluated with the same float expressions
// a per-sample Cursor walk uses, so for every i the run covering i carries
// precisely the load Cursor.At(t_i) would return — renderers can iterate
// runs instead of samples with bit-identical results. dt must be positive.
type SampleRuns struct {
	tr        *Trace
	start, dt float64
	n         int
	i         int // next sample index to assign
	seg       int // segment the cursor sits on at sample i
}

// SampleRuns returns a run iterator over the first n samples of the grid
// t_i = start + i·dt.
func (tr *Trace) SampleRuns(start, dt float64, n int) SampleRuns {
	sr := SampleRuns{tr: tr, start: start, dt: dt, n: n}
	// Position the cursor at sample 0 — the same advance a Cursor performs
	// for its first At(t_0) query (t_0 = start + 0·dt = start).
	starts := tr.starts
	for sr.seg+1 < len(starts) && starts[sr.seg+1] <= start {
		sr.seg++
	}
	return sr
}

// Next returns the next run [i0, i1) and its load; ok is false when the
// grid is exhausted.
func (sr *SampleRuns) Next() (load Load, i0, i1 int, ok bool) {
	if sr.i >= sr.n {
		return Load{}, 0, 0, false
	}
	i0 = sr.i
	starts := sr.tr.starts
	if len(starts) == 0 {
		// Empty trace: Cursor.At returns the zero load everywhere.
		sr.i = sr.n
		return Load{}, i0, sr.n, true
	}
	load = sr.tr.load(sr.seg)
	if sr.seg+1 >= len(starts) {
		sr.i = sr.n
		return load, i0, sr.n, true
	}
	next := starts[sr.seg+1]
	// The run ends at the smallest i with t_i >= next (the cursor's advance
	// predicate). t_i = start + float64(i)·dt is non-decreasing in i (float
	// rounding is monotone), so an arithmetic estimate fixed up by direct
	// predicate evaluation lands on the exact boundary in O(1).
	est := i0 + 1
	if e := (next - sr.start) / sr.dt; e > float64(i0+1) {
		if e >= float64(sr.n) {
			est = sr.n
		} else {
			est = int(e)
		}
	}
	for est > i0+1 && sr.start+float64(est-1)*sr.dt >= next {
		est--
	}
	for est < sr.n && sr.start+float64(est)*sr.dt < next {
		est++
	}
	i1 = est
	sr.i = i1
	if i1 < sr.n {
		// Advance the cursor to the segment sample i1 reads — possibly
		// skipping segments shorter than a sample period, exactly as
		// Cursor.At does.
		t := sr.start + float64(i1)*sr.dt
		for sr.seg+1 < len(starts) && starts[sr.seg+1] <= t {
			sr.seg++
		}
	}
	return load, i0, i1, true
}

// DomainRuns iterates SampleRuns projected onto one power domain, merging
// adjacent runs whose projected loads are bit-equal — the form a
// load-following renderer consumes: within one merged run every sample's
// d.Of(Cursor.At(t_i)) is the same float64. For DomainNone every capture
// collapses to a single zero-load run.
type DomainRuns struct {
	sr   SampleRuns
	dom  Domain
	pend bool
	load float64
	i0   int
	i1   int
}

// DomainRuns returns a domain-projected, value-merged run iterator over
// the first n samples of the grid t_i = start + i·dt.
func (tr *Trace) DomainRuns(d Domain, start, dt float64, n int) DomainRuns {
	return DomainRuns{sr: tr.SampleRuns(start, dt, n), dom: d}
}

// Next returns the next merged run [i0, i1) and its projected load; ok is
// false when the grid is exhausted.
func (dr *DomainRuns) Next() (load float64, i0, i1 int, ok bool) {
	if !dr.pend {
		l, a, b, ok := dr.sr.Next()
		if !ok {
			return 0, 0, 0, false
		}
		dr.load, dr.i0, dr.i1 = dr.dom.Of(l), a, b
	}
	dr.pend = false
	for {
		l, a, b, ok := dr.sr.Next()
		if !ok {
			return dr.load, dr.i0, dr.i1, true
		}
		if v := dr.dom.Of(l); v == dr.load {
			dr.i1 = b
			continue
		} else {
			load, i0, i1 = dr.load, dr.i0, dr.i1
			dr.load, dr.i0, dr.i1 = v, a, b
			dr.pend = true
			return load, i0, i1, true
		}
	}
}

// DomainConstant reports whether the trace's projection onto domain d is a
// single constant over every segment readable in the time window
// [t0, t1] (inclusive of both sample endpoints), and returns that
// constant. The test is conservative: it inspects every segment whose
// start falls in the window, including segments too short for any sample
// to land on, so a true result guarantees every sample in the window
// reads the returned value, while a false result may miss a constancy
// that holds on the sample grid.
func (tr *Trace) DomainConstant(d Domain, t0, t1 float64) (float64, bool) {
	starts := tr.starts
	if len(starts) == 0 {
		return 0, true
	}
	i := sort.Search(len(starts), func(i int) bool { return starts[i] > t0 })
	if i > 0 {
		i--
	}
	v := d.Of(tr.load(i))
	for i++; i < len(starts) && starts[i] <= t1; i++ {
		if d.Of(tr.load(i)) != v {
			return 0, false
		}
	}
	return v, true
}

// Validate checks trace invariants: sorted starts, loads within [0, 1].
func (tr *Trace) Validate() error {
	for i, s := range tr.starts {
		if i > 0 && s < tr.starts[i-1] {
			return fmt.Errorf("activity: segment %d starts at %g before previous %g", i, s, tr.starts[i-1])
		}
		l := tr.load(i)
		for _, v := range []float64{l.Core, l.MemCtl, l.DRAM} {
			if v < 0 || v > 1 {
				return fmt.Errorf("activity: segment %d load %+v out of [0,1]", i, l)
			}
		}
	}
	return nil
}
