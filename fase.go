// Package fase reproduces FASE — Finding Amplitude-modulated Side-channel
// Emanations (Callan, Zajić, Prvulović; ISCA 2015) — as a library.
//
// FASE finds the EM carrier signals of a computer system that are
// amplitude-modulated by specific program activity. It runs a
// micro-benchmark that alternates two activities (say, LLC-missing loads
// and L1 hits) at a controlled frequency f_alt, records the spectrum at
// five slightly different f_alt values, and scores every frequency by
// whether side-bands *move with* f_alt — the unique fingerprint of
// activity modulation that radio stations, unmodulated clocks, and noise
// cannot fake.
//
// Because the original work is gated on lab hardware (a loop antenna, a
// spectrum analyzer, and four real machines), this package pairs the
// unchanged FASE algorithm with a physics-based emanation simulator:
// switching voltage regulators (duty-cycle AM), DRAM refresh combs
// (activity-disrupted timing), spread-spectrum clocks, a metropolitan AM
// broadcast environment, and noise. See DESIGN.md for the substitution
// map and EXPERIMENTS.md for the per-figure reproduction record.
//
// Quick start:
//
//	sys, _ := fase.LookupSystem("i7-desktop")
//	runner := fase.NewRunner(sys.Scene(1, true))
//	res := runner.Run(fase.Campaign{
//	        F1: 100e3, F2: 4e6, Fres: 50,
//	        FAlt1: 43.3e3, FDelta: 500,
//	        X: fase.LDM, Y: fase.LDL1,
//	})
//	for _, d := range res.Detections {
//	        fmt.Printf("%.1f kHz (score %.0f)\n", d.Freq/1e3, d.Score)
//	}
package fase

import (
	"fase/internal/activity"
	"fase/internal/attack"
	"fase/internal/core"
	"fase/internal/dsp/demod"
	"fase/internal/dsp/spectral"
	"fase/internal/dsp/window"
	"fase/internal/emsim"
	"fase/internal/machine"
	"fase/internal/microbench"
	"fase/internal/obs"
	"fase/internal/specan"
)

// Activity kinds for the X/Y alternation micro-benchmark (§2.2, Fig. 6).
const (
	// Idle is the quiescent system.
	Idle = activity.Idle
	// LDM is a load missing the LLC (main-memory access).
	LDM = activity.LDM
	// STM is a store producing write-back traffic to main memory.
	STM = activity.STM
	// LDL1 is an L1-hit load.
	LDL1 = activity.LDL1
	// LDL2 is an L2-hit load.
	LDL2 = activity.LDL2
	// ADD, SUB, MUL, DIV are dependent integer ALU activities.
	ADD = activity.ADD
	SUB = activity.SUB
	MUL = activity.MUL
	DIV = activity.DIV
)

// Kind identifies a micro-benchmark activity.
type Kind = activity.Kind

// Load is an activity's demand on the system's power domains.
type Load = activity.Load

// Trace is a time-varying activity envelope.
type Trace = activity.Trace

// Campaign configures a FASE measurement campaign (Figure 10 row).
type Campaign = core.Campaign

// AdaptivePlan tunes the budgeted coarse-to-fine scan planner; set it
// (with Campaign.Budget) to replace the exhaustive raster. The zero
// value resolves every knob to its documented default.
type AdaptivePlan = core.AdaptivePlan

// Detection is one activity-modulated carrier FASE found.
type Detection = core.Detection

// Result is a completed campaign with measurements, heuristic score
// traces, and detections.
type Result = core.Result

// Runner executes campaigns against a scene.
type Runner = core.Runner

// MinScoreZero is the Campaign.MinScore sentinel requesting a literal 0
// detection threshold (a zero MinScore means "use the default").
const MinScoreZero = core.MinScoreZero

// ObsRun collects one campaign's observability — stage timings, planner
// and cache statistics, detection provenance — into a run manifest.
// Attach one to Runner.Obs before RunE; read the result with Manifest().
// The Chrome trace is laid out from a run's event journal (fase
// -trace-out writes one).
type ObsRun = obs.Run

// RunManifest is the per-run record an instrumented campaign produces.
type RunManifest = obs.Manifest

// NewObsRun starts an observability run (its clock and empty records).
func NewObsRun() *ObsRun { return obs.NewRun() }

// HarmonicSet groups detections at multiples of a common fundamental.
type HarmonicSet = core.HarmonicSet

// ClassifiedCarrier is a detection annotated with the system aspect that
// modulates it (memory-related vs on-chip, §2.2).
type ClassifiedCarrier = core.ClassifiedCarrier

// ModulationClass is the cross-activity classification verdict.
type ModulationClass = core.ModulationClass

// Modulation classes.
const (
	MemoryRelated = core.MemoryRelated
	OnChipRelated = core.OnChipRelated
	BothRelated   = core.BothRelated
)

// System is a modeled computer (emitters plus role handles).
type System = machine.System

// Scene is a measurement setup: system emitters plus RF environment.
type Scene = emsim.Scene

// Spectrum is a measured power spectrum (linear mW bins; DBm helpers).
type Spectrum = spectral.Spectrum

// Analyzer is the swept spectrum analyzer.
type Analyzer = specan.Analyzer

// AnalyzerConfig tunes the analyzer (RBW, averaging, window).
type AnalyzerConfig = specan.Config

// SweepRequest is one spectrum measurement request.
type SweepRequest = specan.Request

// Spectrogram is a time-frequency map whose PeakTrack method follows a
// swept carrier (§4.3 carrier tracking, §4.4 FM confirmation).
type Spectrogram = demod.Spectrogram

// FMStats summarizes an instantaneous-frequency trace.
type FMStats = demod.FMStats

// SystemNames lists the built-in system models, sorted.
func SystemNames() []string { return machine.Names() }

// LookupSystem returns a built-in system model by name
// ("i7-desktop", "i3-laptop", "turion-laptop", "p3m-laptop").
func LookupSystem(name string) (*System, error) { return machine.Lookup(name) }

// NewRunner creates a campaign runner for a scene.
func NewRunner(scene *Scene) *Runner { return &Runner{Scene: scene} }

// NewAnalyzer creates a spectrum analyzer.
func NewAnalyzer(cfg AnalyzerConfig) *Analyzer { return specan.New(cfg) }

// PaperCampaigns returns the paper's three measurement campaigns
// (Figure 10) for an activity pair.
func PaperCampaigns(x, y Kind) []Campaign { return core.PaperCampaigns(x, y) }

// GroupHarmonics clusters detections into harmonic sets (§4). tol is the
// relative frequency tolerance; 0 selects the default (0.004).
func GroupHarmonics(dets []Detection, tol float64) []HarmonicSet {
	return core.GroupHarmonics(dets, tol)
}

// Classify cross-references a memory-alternation campaign and an on-chip
// alternation campaign to attribute each carrier (§2.2). tolHz 0 selects
// the default (1 kHz).
func Classify(memory, onchip *Result, tolHz float64) []ClassifiedCarrier {
	return core.Classify(memory, onchip, tolHz)
}

// Alternation generates the Figure 6 X/Y alternation activity trace at
// fAlt for the given duration, with the default contention-jitter model.
func Alternation(x, y Kind, fAlt, duration float64, seed int64) *Trace {
	return microbench.Generate(microbench.Config{
		X: x, Y: y, FAlt: fAlt,
		Jitter: microbench.DefaultJitter(), Seed: seed,
	}, duration)
}

// ConstantActivity returns a trace running one activity continuously
// (the LDM/LDM and LDL1/LDL1 controls of Figures 7, 12 and 14).
func ConstantActivity(k Kind) *Trace { return microbench.Constant(k) }

// STFT computes a spectrogram of a complex-baseband capture — the tool
// the paper uses to confirm frequency modulation (§4.4) and to track
// spread-spectrum carriers (§4.3).
func STFT(x []complex128, fs, fc float64, frameLen, hop int) *Spectrogram {
	return demod.STFT(x, fs, fc, frameLen, hop, window.Hann)
}

// MeasureFM computes FM statistics of a complex-baseband capture.
func MeasureFM(x []complex128, fs float64, smooth int) FMStats {
	return demod.MeasureFM(x, fs, smooth)
}

// EnvelopeAM demodulates the AM envelope of a complex-baseband capture
// centered on a carrier — what an attacker does with a FASE-found carrier.
func EnvelopeAM(x []complex128) []float64 { return demod.EnvelopeComplex(x) }

// CaptureBaseband renders n complex-baseband samples of the scene's
// emanations in the band center ± fs/2 while the given activity runs —
// the raw antenna feed used for demodulation and carrier tracking.
func CaptureBaseband(scene *Scene, center, fs float64, n int, act *Trace, seed int64) []complex128 {
	return scene.Render(emsim.Capture{
		Band:     emsim.Band{Center: center, SampleRate: fs},
		N:        n,
		Activity: act,
		Seed:     seed,
	})
}

// FMCampaign configures the §4.4 extension: a FASE-like search for
// carriers whose *frequency* is modulated by activity (constant-on-time
// regulators), which AM-FASE correctly does not report. Run with
// Runner.RunFM.
type FMCampaign = core.FMCampaign

// FMDetection is a frequency-modulated carrier found by Runner.RunFM.
type FMDetection = core.FMDetection

// Receiver is the attacker's demodulation chain for a FASE-found carrier
// (tune, band-limit, AM-demodulate) — see package internal/attack.
type Receiver = attack.Receiver

// Leakage quantifies the information a carrier leaks about activity.
type Leakage = attack.Leakage

// SecretTrace encodes a bit string as victim activity (1 → x, 0 → y),
// each bit lasting tBit seconds.
func SecretTrace(bits []byte, x, y Kind, tBit float64) *Trace {
	return attack.SecretTrace(bits, x, y, tBit)
}

// RecoverBits decodes a demodulated envelope back into bits.
func RecoverBits(env []float64, fs float64, nBits int, tBit float64) []byte {
	return attack.RecoverBits(env, fs, nBits, tBit)
}

// BitErrorRate compares recovered bits to the truth (polarity-agnostic).
func BitErrorRate(got, want []byte) float64 { return attack.BitErrorRate(got, want) }

// QuantifyLeakage measures a carrier's leakage for a secret bit pattern:
// bit error rate, class-separation SNR, and implied channel capacity.
func QuantifyLeakage(r *Receiver, scene *Scene, bits []byte, x, y Kind, tBit float64, seed int64) Leakage {
	return attack.Quantify(r, scene, bits, x, y, tBit, seed)
}
