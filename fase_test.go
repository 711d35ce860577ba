package fase_test

import (
	"math"
	"testing"

	"fase"
)

func TestSystemRegistry(t *testing.T) {
	names := fase.SystemNames()
	want := []string{"fivr-desktop", "i3-laptop", "i7-desktop", "p3m-laptop", "turion-laptop"}
	if len(names) != len(want) {
		t.Fatalf("systems: %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("system %d = %q, want %q", i, names[i], want[i])
		}
	}
	if _, err := fase.LookupSystem("i7-desktop"); err != nil {
		t.Error(err)
	}
	if _, err := fase.LookupSystem("bogus"); err == nil {
		t.Error("LookupSystem should reject unknown names")
	}
}

// TestEndToEndMemoryCampaign is the library's headline integration test:
// the public API finds exactly the memory-side carriers on the i7, with
// the AM environment present, and nothing else.
func TestEndToEndMemoryCampaign(t *testing.T) {
	sys, err := fase.LookupSystem("i7-desktop")
	if err != nil {
		t.Fatal(err)
	}
	runner := fase.NewRunner(sys.Scene(1, true))
	res := runner.Run(fase.Campaign{
		F1: 250e3, F2: 550e3, Fres: 100,
		FAlt1: 43.3e3, FDelta: 1e3,
		X: fase.LDM, Y: fase.LDL1, Seed: 77,
	})
	want := []float64{315e3, 475e3, 512e3}
	if len(res.Detections) != len(want) {
		t.Fatalf("detections: %+v", res.Detections)
	}
	for i, f := range want {
		if math.Abs(res.Detections[i].Freq-f) > 500 {
			t.Errorf("detection %d at %.1f kHz, want %.1f", i, res.Detections[i].Freq/1e3, f/1e3)
		}
	}
	// The core regulator (332.5 kHz) must not appear under LDM/LDL1.
	for _, d := range res.Detections {
		if math.Abs(d.Freq-332.5e3) < 2e3 {
			t.Error("core regulator falsely reported")
		}
	}
}

func TestEndToEndClassification(t *testing.T) {
	sys, err := fase.LookupSystem("i7-desktop")
	if err != nil {
		t.Fatal(err)
	}
	runner := fase.NewRunner(sys.Scene(2, false))
	base := fase.Campaign{
		F1: 280e3, F2: 540e3, Fres: 100,
		FAlt1: 43.3e3, FDelta: 1e3, Seed: 5,
	}
	mem := base
	mem.X, mem.Y = fase.LDM, fase.LDL1
	memRes := runner.Run(mem)
	chip := base
	chip.X, chip.Y = fase.LDL2, fase.LDL1
	chipRes := runner.Run(chip)
	classes := map[float64]fase.ModulationClass{}
	for _, cc := range fase.Classify(memRes, chipRes, 0) {
		classes[math.Round(cc.Freq/1e3)] = cc.Class
	}
	if classes[315] != fase.MemoryRelated {
		t.Errorf("315 kHz class %v", classes[315])
	}
	if classes[333] != fase.OnChipRelated && classes[332] != fase.OnChipRelated {
		t.Errorf("core regulator class missing: %v", classes)
	}
}

func TestGroupHarmonicsFacade(t *testing.T) {
	dets := []fase.Detection{{Freq: 100e3}, {Freq: 200e3}, {Freq: 300e3}}
	sets := fase.GroupHarmonics(dets, 0)
	if len(sets) != 1 || math.Abs(sets[0].Fundamental-100e3) > 100 {
		t.Errorf("sets: %+v", sets)
	}
}

func TestPaperCampaignsFacade(t *testing.T) {
	cs := fase.PaperCampaigns(fase.LDM, fase.LDL1)
	if len(cs) != 3 || cs[0].Fres != 50 {
		t.Errorf("paper campaigns wrong: %+v", cs)
	}
}

func TestCaptureAndDemod(t *testing.T) {
	sys, err := fase.LookupSystem("i7-desktop")
	if err != nil {
		t.Fatal(err)
	}
	scene := sys.Scene(3, false)
	clk := sys.DRAMClock
	fs := 8e6
	x := fase.CaptureBaseband(scene, clk.F0-0.5e6, fs, 1<<15, fase.ConstantActivity(fase.LDM), 4)
	if len(x) != 1<<15 {
		t.Fatalf("capture length %d", len(x))
	}
	// The SSC sweep must be visible to the FM meter: a ±500 kHz sine
	// sweep has ~354 kHz RMS deviation (peak-to-peak is noise-fragile).
	st := fase.MeasureFM(x, fs, 32)
	if st.DeviationHz < 200e3 || st.DeviationHz > 600e3 {
		t.Errorf("SSC RMS deviation %.0f kHz, want ~354 kHz", st.DeviationHz/1e3)
	}
	// And to the spectrogram tracker.
	sg := fase.STFT(x, fs, clk.F0-0.5e6, 2048, 1024)
	track := sg.PeakTrack()
	lo, hi := track[0], track[0]
	for _, f := range track {
		lo = math.Min(lo, f)
		hi = math.Max(hi, f)
	}
	if lo < clk.F0-clk.SpreadHz-100e3 || hi > clk.F0+100e3 {
		t.Errorf("tracked sweep [%.3f, %.3f] MHz outside configured spread", lo/1e6, hi/1e6)
	}
	if hi-lo < 0.5e6 {
		t.Errorf("tracker saw only %.0f kHz of the 1 MHz sweep", (hi-lo)/1e3)
	}
	// AM envelope demodulation runs and returns magnitudes.
	env := fase.EnvelopeAM(x)
	for _, v := range env[:10] {
		if v < 0 {
			t.Fatal("negative envelope")
		}
	}
}

func TestLeakageFacade(t *testing.T) {
	sys, err := fase.LookupSystem("i7-desktop")
	if err != nil {
		t.Fatal(err)
	}
	scene := sys.Scene(4, false)
	bits := []byte{1, 0, 0, 1, 1, 0, 1, 0, 1, 1, 0, 0, 1, 0, 1, 1,
		0, 1, 0, 0, 1, 1, 0, 1, 0, 1, 1, 0, 0, 1, 0, 1}
	rx := &fase.Receiver{Carrier: sys.MemRegulator.FSw, Bandwidth: 15e3}
	lk := fase.QuantifyLeakage(rx, scene, bits, fase.LDM, fase.LDL1, 250e-6, 5)
	if lk.BER > 0.05 {
		t.Errorf("facade attack BER %.3f", lk.BER)
	}
	// The low-level pieces compose the same way.
	tr := fase.SecretTrace(bits, fase.LDM, fase.LDL1, 250e-6)
	env := rx.Recover(scene, float64(len(bits))*250e-6, tr, 5)
	got := fase.RecoverBits(env, rx.SampleRate(), len(bits), 250e-6)
	if ber := fase.BitErrorRate(got, bits); ber > 0.05 {
		t.Errorf("manual chain BER %.3f", ber)
	}
}

func TestFMFaseFacade(t *testing.T) {
	sys, err := fase.LookupSystem("turion-laptop")
	if err != nil {
		t.Fatal(err)
	}
	runner := fase.NewRunner(sys.Scene(5, false))
	dets := runner.RunFM(fase.FMCampaign{
		F1: 0.3e6, F2: 0.5e6, FAlt1: 400, FDelta: 60,
		X: fase.LDL2, Y: fase.LDL1, Seed: 6,
	})
	if len(dets) == 0 {
		t.Error("FM-FASE facade found nothing")
	}
}

func TestAlternationTrace(t *testing.T) {
	tr := fase.Alternation(fase.LDM, fase.LDL1, 10e3, 0.01, 1)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(tr.Segments) < 150 {
		t.Errorf("segments: %d", len(tr.Segments))
	}
}
