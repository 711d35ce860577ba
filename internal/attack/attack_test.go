package attack

import (
	"math"
	"math/rand"
	"testing"

	"fase/internal/activity"
	"fase/internal/dsp/spectral"
	"fase/internal/machine"
)

func randomBits(r *rand.Rand, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		if r.Intn(2) == 1 {
			out[i] = 1
		}
	}
	return out
}

func TestSecretTrace(t *testing.T) {
	tr := SecretTrace([]byte{1, 0, 1}, activity.LDM, activity.LDL1, 1e-3)
	if tr.Len() != 3 {
		t.Fatalf("segments: %d", tr.Len())
	}
	if tr.At(0.0005).DRAM != activity.LoadOf(activity.LDM).DRAM {
		t.Error("bit 1 should run X activity")
	}
	if tr.At(0.0015).DRAM != activity.LoadOf(activity.LDL1).DRAM {
		t.Error("bit 0 should run Y activity")
	}
	if err := tr.Validate(); err != nil {
		t.Error(err)
	}
}

func TestBitRecoveryThroughRegulator(t *testing.T) {
	// The headline attack: read a secret bit pattern through the DIMM
	// regulator carrier FASE found, at 4 kbit/s, across the room.
	sys := machine.IntelCoreI7Desktop()
	scene := sys.Scene(1, true)
	r := rand.New(rand.NewSource(42))
	bits := randomBits(r, 128)
	rx := &Receiver{Carrier: sys.MemRegulator.FSw, Bandwidth: 15e3}
	lk := Quantify(rx, scene, bits, activity.LDM, activity.LDL1, 250e-6, 7)
	if lk.BER > 0.01 {
		t.Errorf("BER %.3f through the regulator carrier, want ~0", lk.BER)
	}
	if lk.SNRdB < 10 {
		t.Errorf("class-separation SNR %.1f dB, want > 10", lk.SNRdB)
	}
	if lk.BitsPerSymbol < 0.9 {
		t.Errorf("capacity %.2f bits/symbol, want ~1", lk.BitsPerSymbol)
	}
}

func TestNoLeakThroughUnmodulatedClock(t *testing.T) {
	// Tuning to an unmodulated carrier recovers nothing: BER ~0.5 and
	// near-zero capacity. (The UART clock at 1.8432 MHz.)
	sys := machine.IntelCoreI7Desktop()
	scene := sys.Scene(1, true)
	r := rand.New(rand.NewSource(43))
	bits := randomBits(r, 128)
	rx := &Receiver{Carrier: 1.8432e6, Bandwidth: 15e3}
	lk := Quantify(rx, scene, bits, activity.LDM, activity.LDL1, 250e-6, 8)
	if lk.BER < 0.25 {
		t.Errorf("BER %.3f through an unmodulated clock, want ~0.5", lk.BER)
	}
	if lk.BitsPerSymbol > 0.2 {
		t.Errorf("capacity %.2f bits/symbol through an unmodulated clock", lk.BitsPerSymbol)
	}
}

func TestDomainSelectivityOfCarriers(t *testing.T) {
	// Core-load secrets do not leak through the DIMM regulator (equal
	// DRAM load in both halves), but do through the core regulator.
	sys := machine.IntelCoreI7Desktop()
	scene := sys.Scene(1, false)
	r := rand.New(rand.NewSource(44))
	bits := randomBits(r, 96)
	memRx := &Receiver{Carrier: sys.MemRegulator.FSw, Bandwidth: 15e3}
	coreRx := &Receiver{Carrier: sys.CoreRegulator.FSw, Bandwidth: 15e3}
	lkMem := Quantify(memRx, scene, bits, activity.LDL2, activity.LDL1, 250e-6, 9)
	lkCore := Quantify(coreRx, scene, bits, activity.LDL2, activity.LDL1, 250e-6, 9)
	if lkCore.BER > 0.02 {
		t.Errorf("core regulator BER %.3f for core-load secrets", lkCore.BER)
	}
	if lkMem.BER < 0.2 {
		t.Errorf("memory regulator BER %.3f for core-load secrets, want ~0.5", lkMem.BER)
	}
}

func TestBitErrorRate(t *testing.T) {
	if BitErrorRate([]byte{1, 0, 1, 0}, []byte{1, 0, 1, 0}) != 0 {
		t.Error("identical bits should have BER 0")
	}
	// Fully inverted also reads as 0 (polarity-agnostic).
	if BitErrorRate([]byte{0, 1, 0, 1}, []byte{1, 0, 1, 0}) != 0 {
		t.Error("inverted bits should have BER 0")
	}
	if got := BitErrorRate([]byte{1, 1, 0, 0}, []byte{1, 0, 1, 0}); got != 0.5 {
		t.Errorf("half-wrong bits BER %g", got)
	}
	mustPanic(t, func() { BitErrorRate([]byte{1}, []byte{1, 0}) })
}

// TestGoertzelMatchesTone pins the calibration of the tone detector
// RunFM scores its candidates with.
func TestGoertzelMatchesTone(t *testing.T) {
	fs := 100e3
	f := 1250.0
	n := 8000 // integer number of cycles
	x := make([]float64, n)
	for i := range x {
		x[i] = 2 * math.Cos(2*math.Pi*f*float64(i)/fs)
	}
	// Amplitude-calibrated: a real tone of amplitude A reads A² (power of
	// the analytic pair at the bin).
	p := spectral.Goertzel(x, fs, f)
	if math.Abs(p-4) > 0.05 {
		t.Errorf("Goertzel power %g, want 4", p)
	}
	if off := spectral.Goertzel(x, fs, 3*f); off > 0.01 {
		t.Errorf("off-frequency leakage %g", off)
	}
	if spectral.Goertzel(nil, fs, f) != 0 {
		t.Error("empty input should read 0")
	}
}

func TestBinaryEntropy(t *testing.T) {
	if binaryEntropy(0) != 0 || binaryEntropy(1) != 0 {
		t.Error("degenerate entropy should be 0")
	}
	if math.Abs(binaryEntropy(0.5)-1) > 1e-12 {
		t.Error("H(0.5) should be 1 bit")
	}
}

func TestReceiverPanics(t *testing.T) {
	sys := machine.IntelCoreI7Desktop()
	scene := sys.Scene(1, false)
	rx := &Receiver{Carrier: 315e3}
	mustPanic(t, func() { rx.Recover(scene, 0, nil, 1) })
	mustPanic(t, func() { SecretTrace([]byte{1}, activity.LDM, activity.LDL1, 0) })
	mustPanic(t, func() { RecoverBits(nil, 1e6, 0, 1e-3) })
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}
