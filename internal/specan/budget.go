package specan

import (
	"fmt"
	"sync/atomic"
)

// Meter is a hard measurement budget, accounted in captures. An adaptive
// campaign planner reserves a sweep's capture cost before asking the
// analyzer to render it (all-or-nothing, so a sweep never starts that
// cannot finish inside the budget), and every rendered capture is charged
// as it happens. The invariant — enforced by construction and checked by
// the planner fuzz tests — is
//
//	Used() ≤ Reserved() ≤ Cap()
//
// at every moment: reservations only succeed while they fit under the
// cap, and the analyzer only renders inside a successful reservation.
//
// All methods are safe for concurrent use and nil-safe: a nil meter is an
// unlimited budget (Reserve always succeeds, nothing is recorded), so the
// exhaustive sweep path threads no meter and pays only a nil check.
type Meter struct {
	cap      int64
	reserved atomic.Int64
	rendered atomic.Int64
	// OnReserve, when non-nil, observes every Reserve outcome (requested
	// captures, granted or refused). The planner's reservations are
	// sequential, so the hook sees a deterministic call sequence; it may
	// read the meter's accessors but must not call Reserve. Set it before
	// the meter is shared.
	OnReserve func(n int64, granted bool)
}

// NewMeter creates a meter with the given capture capacity. It panics on
// a non-positive capacity — a zero budget is a configuration error the
// campaign validator reports long before a meter exists.
func NewMeter(capacity int64) *Meter {
	if capacity <= 0 {
		panic(fmt.Sprintf("specan: meter capacity must be positive, got %d", capacity))
	}
	return &Meter{cap: capacity}
}

// Cap returns the meter's capacity (0 for a nil meter).
func (m *Meter) Cap() int64 {
	if m == nil {
		return 0
	}
	return m.cap
}

// Reserve claims n captures from the remaining budget. The claim is
// all-or-nothing: either the full n fits under the cap and is reserved,
// or nothing is taken and Reserve reports false. A nil meter always
// grants; n = 0 is granted without effect and negative n is refused.
func (m *Meter) Reserve(n int64) bool {
	if m == nil || n <= 0 {
		return m == nil || n == 0
	}
	granted := m.reserve(n)
	if m.OnReserve != nil {
		m.OnReserve(n, granted)
	}
	return granted
}

func (m *Meter) reserve(n int64) bool {
	for {
		cur := m.reserved.Load()
		if cur+n > m.cap {
			return false
		}
		if m.reserved.CompareAndSwap(cur, cur+n) {
			return true
		}
	}
}

// Reserved returns the captures claimed so far.
func (m *Meter) Reserved() int64 {
	if m == nil {
		return 0
	}
	return m.reserved.Load()
}

// Used returns the captures actually rendered against the meter.
func (m *Meter) Used() int64 {
	if m == nil {
		return 0
	}
	return m.rendered.Load()
}

// record charges one rendered capture. The analyzer calls it from
// renderCapture when a meter is configured; it never blocks — admission
// control happened at Reserve time.
func (m *Meter) record() {
	if m == nil {
		return
	}
	m.rendered.Add(1)
}

// SweepCaptures returns how many captures a sweep over [f1, f2] costs on
// this analyzer: segments × averages. Planners use it to price a sweep
// before reserving the amount on a Meter.
func (a *Analyzer) SweepCaptures(f1, f2 float64) int64 {
	p := a.planSweep(f1, f2)
	return int64(p.segs * a.cfg.Averages)
}
