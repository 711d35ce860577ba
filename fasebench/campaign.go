package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"fase/internal/activity"
	"fase/internal/core"
	"fase/internal/emsim"
	"fase/internal/machine"
	"fase/internal/obs"
	"fase/internal/specan"
)

// campaignRotationSeconds is one rotation — a campaign on each of the
// five built-in systems — on the reference host.
const campaignRotationSeconds = 0.5

// campaignWL is the operator's scan: exhaustive core.Runner.RunE
// campaigns at default parallelism over 200–900 kHz (100 Hz RBW, f_alt
// 43.3 kHz, f_Δ 1 kHz, LDM/LDL1), rotating over the built-in systems with
// the RF environment, a fresh campaign seed per op. Obs, disk and HTTP
// stay off, so the run measures render, FFT, the cross-sweep static
// cache and smooth/score/detect.
type campaignWL struct {
	seed    int64
	names   []string
	scenes  []*emsim.Scene
	truth   [][]emsim.GroundTruthCarrier
	runners []*core.Runner
	want    int64 // captures per campaign
}

func systemNames() []string {
	var names []string
	for name := range machine.Registry() {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func (w *campaignWL) setup() error {
	w.names = systemNames()
	for i, name := range w.names {
		sys, err := machine.Lookup(name)
		if err != nil {
			return err
		}
		sc := sys.Scene(deriveSeed(w.seed, streamEnv, i), true)
		w.scenes = append(w.scenes, sc)
		w.truth = append(w.truth, sc.GroundTruth(corpusF1, corpusF2, activity.LDM, activity.LDL1, minDelta))
		w.runners = append(w.runners, &core.Runner{Scene: sc})
	}
	c := corpusCampaign(deriveSeed(w.seed, streamWarm, 0))
	w.want = int64(len(c.FAlts())) * specan.New(specan.Config{Fres: c.Fres}).SweepCaptures(c.F1, c.F2)
	// Every op shares one geometry, so one warm-up campaign fills the
	// process-wide FFT plan and window caches and the buffer pools.
	res, err := w.runners[0].RunE(c)
	return checkExhaustive(res, err, c, w.want)
}

func (w *campaignWL) close() {}

// checkExhaustive is the output check of an exhaustive campaign: no
// error, one measurement per ladder step, the priced capture count, and
// frequency-sorted detections inside the band with finite scores.
func checkExhaustive(res *core.Result, err error, c core.Campaign, want int64) error {
	if err != nil {
		return err
	}
	if len(res.Measurements) != len(c.FAlts()) || res.Captures != want {
		return fmt.Errorf("campaign: %d measurements, %d captures; want %d, %d",
			len(res.Measurements), res.Captures, len(c.FAlts()), want)
	}
	return checkDetections(res.Detections, c)
}

func checkDetections(ds []core.Detection, c core.Campaign) error {
	for i, d := range ds {
		if d.Freq < c.F1 || d.Freq > c.F2 || math.IsNaN(d.Score) || math.IsInf(d.Score, 0) ||
			(i > 0 && d.Freq < ds[i-1].Freq) {
			return fmt.Errorf("campaign: malformed detection %d at %g Hz, score %g", i, d.Freq, d.Score)
		}
	}
	return nil
}

func sameDetections(a, b []core.Detection) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Freq != y.Freq || x.Bin != y.Bin || x.Score != y.Score || x.BestHarmonic != y.BestHarmonic ||
			x.MagnitudeDBm != y.MagnitudeDBm || x.DepthDB != y.DepthDB {
			return false
		}
	}
	return true
}

func (w *campaignWL) measure(b *bench) error {
	n := len(w.names) * b.units(campaignRotationSeconds)
	var tracedCaptures int64
	for i := 0; i < n; i++ {
		s := i % len(w.names)
		c := corpusCampaign(deriveSeed(b.seed, streamOp, i))
		b.note(int64(s), c.Seed)
		var res, tres *core.Result
		var err, terr error
		// The traced twin runs through the shard API RunE itself uses and
		// must reproduce its detections bit for bit.
		b.twins(i, func() {
			b.lat = append(b.lat, b.timed(func() { res, err = w.runners[s].RunE(c) }))
		}, func() {
			t0 := time.Now()
			tres, terr = w.tracedOp(b.tr, i, s, c)
			b.tlat = append(b.tlat, time.Since(t0).Seconds())
		})
		err = checkExhaustive(res, err, c, w.want)
		if b.tr != nil && err == nil {
			if terr == nil && !sameDetections(res.Detections, tres.Detections) {
				terr = fmt.Errorf("campaign %d: shard-API detections differ from RunE", i)
			}
			if terr == nil {
				tracedCaptures += tres.Captures
			}
			err = terr
		}
		if err != nil {
			fmt.Printf("failed op %d: %v\n", i, err)
		}
		b.record(err == nil)
		if res != nil {
			b.q.add(w.truth[s], detectionFreqs(res.Detections), 24*c.Fres, res.Captures)
		}
		b.idle()
	}
	if b.tr == nil {
		return nil
	}
	b.layer["core.plan.ms"] = b.spanMS("core.plan", "")
	b.layer["specan.sweep.ms"] = b.spanMS("specan.sweep", "")
	busy, _ := b.tr.total("specan.shard", "")
	b.layer["specan.sweep.busy_ms"] = b.ms(busy / float64(n))
	for _, name := range w.names {
		b.layer["specan.sweep."+name+".ms"] = b.spanMS("specan.sweep", name)
	}
	b.layer["specan.captures"] = float64(tracedCaptures) / float64(n)
	b.layer["core.reduce.ms"] = b.spanMS("core.reduce", "")
	b.layer["trace.op.ms"] = b.spanMS("op", "")
	b.layer["trace.unattributed_frac"] = b.tr.selfFrac("op")
	probeLayers(b, w.scenes, corpusF1, corpusF2, corpusFres, 0)
	return nil
}

// tracedOp runs campaign c through the public shard API — PlanShards,
// an analyzer from AnalyzerConfig, Begin, the concurrent RenderShard
// calls and ReduceShards — with a span around each call.
func (w *campaignWL) tracedOp(tr *tracer, op, s int, c core.Campaign) (*core.Result, error) {
	r := w.runners[s]
	root := tr.begin("op", w.names[s], op, -1)
	defer tr.end(root)
	sp := tr.begin("core.plan", "", op, root)
	p, err := core.PlanShards(c)
	if err != nil {
		return nil, err
	}
	an := specan.New(p.AnalyzerConfig(nil))
	p.Begin(an, nil)
	tr.end(sp)
	sw := tr.begin("specan.sweep", w.names[s], op, root)
	ms := make([]core.Measurement, len(p.FAlts))
	var wg sync.WaitGroup
	for k := range p.FAlts {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			sh := tr.begin("specan.shard", w.names[s], op, sw)
			ms[k] = r.RenderShard(nil, an, p, k, nil, obs.Span{})
			tr.end(sh)
		}(k)
	}
	wg.Wait()
	tr.end(sw)
	rd := tr.begin("core.reduce", "", op, root)
	defer tr.end(rd)
	return r.ReduceShards(p, ms, nil, obs.Span{})
}
