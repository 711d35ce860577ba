package specan

import (
	"sync"
	"testing"

	"fase/internal/emsim"
)

func TestMeterNilIsUnlimited(t *testing.T) {
	var m *Meter
	if !m.Reserve(1 << 40) {
		t.Error("nil meter refused a reservation")
	}
	if !m.Reserve(-5) {
		t.Error("nil meter refused a negative reservation")
	}
	m.record() // must not panic
	if m.Cap() != 0 || m.Reserved() != 0 || m.Used() != 0 {
		t.Error("nil meter accounting must read zero")
	}
}

func TestMeterReserveAllOrNothing(t *testing.T) {
	m := NewMeter(10)
	if !m.Reserve(0) {
		t.Error("zero reservation refused")
	}
	if m.Reserve(-1) {
		t.Error("negative reservation granted")
	}
	if !m.Reserve(7) {
		t.Error("7 of 10 refused")
	}
	if m.Reserve(4) {
		t.Error("4 more granted with only 3 remaining")
	}
	if m.Reserved() != 7 {
		t.Errorf("failed reservation changed accounting: reserved %d, want 7", m.Reserved())
	}
	if !m.Reserve(3) {
		t.Error("exact remaining refused")
	}
	if m.Reserve(1) {
		t.Error("reservation granted over cap")
	}
}

func TestMeterUsedWithinReserved(t *testing.T) {
	m := NewMeter(5)
	m.Reserve(4)
	for i := 0; i < 4; i++ {
		m.record()
	}
	if m.Used() != 4 || m.Reserved() != 4 || m.Cap() != 5 {
		t.Errorf("accounting: used %d reserved %d cap %d", m.Used(), m.Reserved(), m.Cap())
	}
	if !(m.Used() <= m.Reserved() && m.Reserved() <= m.Cap()) {
		t.Error("meter invariant Used ≤ Reserved ≤ Cap violated")
	}
}

func TestMeterConcurrentReserveNeverOvercommits(t *testing.T) {
	const cap, workers, per = 1000, 16, 250
	m := NewMeter(cap)
	var wg sync.WaitGroup
	var granted int64
	var mu sync.Mutex
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := int64(0)
			for i := 0; i < per; i++ {
				if m.Reserve(1) {
					local++
				}
			}
			mu.Lock()
			granted += local
			mu.Unlock()
		}()
	}
	wg.Wait()
	if granted != cap {
		t.Errorf("granted %d of %d one-capture reservations under contention", granted, cap)
	}
	if m.Reserved() != cap {
		t.Errorf("final accounting: reserved %d of %d", m.Reserved(), cap)
	}
}

func TestNewMeterPanicsOnNonPositiveCapacity(t *testing.T) {
	for _, capacity := range []int64{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewMeter(%d) did not panic", capacity)
				}
			}()
			NewMeter(capacity)
		}()
	}
}

// TestSweepMeterCharges runs a real sweep against a meter and checks the
// analyzer charges exactly the priced capture count.
func TestSweepMeterCharges(t *testing.T) {
	scene := &emsim.Scene{}
	scene.Add(&tone{freq: 400e3, dbm: -80})
	m := NewMeter(1 << 20)
	an := New(Config{Fres: 400, Averages: 2, MaxFFT: 2048, Meter: m})
	cost := an.SweepCaptures(250e3, 550e3)
	if cost < 2 {
		t.Fatalf("expected a multi-capture sweep, priced %d", cost)
	}
	if !m.Reserve(cost) {
		t.Fatal("reservation refused")
	}
	sp := an.Sweep(Request{Scene: scene, F1: 250e3, F2: 550e3, Seed: 3})
	if sp.Bins() == 0 {
		t.Fatal("empty sweep")
	}
	if m.Used() != cost {
		t.Errorf("sweep rendered %d captures, priced %d", m.Used(), cost)
	}
}
