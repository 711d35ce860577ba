package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"fase/internal/activity"
	"fase/internal/core"
	"fase/internal/emsim"
	"fase/internal/machine"
	"fase/internal/obs"
	"fase/internal/runstore"
	"fase/internal/service"
)

// A round's cost grows with the rounds already run: every submission
// that misses the run store's cache falls through runstore.Resolve to
// Store.List, which reads and parses every archived manifest. On the
// reference host r rounds take about roundA·r + roundB·r² seconds;
// serviceRounds inverts that, so a run lasts about as long as asked
// there while its op count depends on the arguments alone.
const (
	roundA = 0.174
	roundB = 0.00486
)

func serviceRounds(seconds int) int {
	s := float64(seconds)
	return max(1, int(math.Round((math.Sqrt(roundA*roundA+4*roundB*s)-roundA)/(2*roundB))))
}

// Load shape: each round, every tenant submits one batch over its own
// connection and polls it to done; the next round starts when all
// batches have finished.
const (
	tenants   = 2
	batchSize = 6
	// pollInterval paces status polls: short against a job's run time,
	// long enough that polling does not compete with the workers for
	// the CPUs.
	pollInterval = 500 * time.Microsecond
)

// The job kinds of a batch: three one-segment scans (kinds 0–2), one
// wider scan, one adaptive job and one exact resubmit of an earlier
// completed job.
const (
	kindMedium   = 3
	kindAdaptive = 4
	kindResubmit = 5
)

// jobSpec is one job of a batch.
type jobSpec struct {
	kind int
	req  service.ScanRequest
}

// serviceWL drives `fase serve` over loopback HTTP: service.New with the
// default configuration and a fresh on-disk run store. Per-job fixed
// costs dominate here — admission, queue wait behind MaxActive, the
// per-job obs run and journal, manifest JSON, run store writes beside
// cached reads.
type serviceWL struct {
	traced bool
	// tmp is the scratch directory the run store is created under.
	tmp     string
	dir     string
	srv     *service.Server
	base    string
	clients [tenants]*http.Client
	names   []string
	// truth is each (system, band)'s ground truth; it does not depend on
	// the environment seed.
	truth map[string][]emsim.GroundTruthCarrier
	// direct holds, by result id, the detections of a direct RunE.
	direct map[string][]core.Detection
	// targets are the completed jobs each tenant resubmits next round.
	targets [tenants]*jobRun
	// sceneTr records machine.scene spans while a traced round runs.
	sceneTr atomic.Pointer[tracer]
}

// scanRequest returns tenant's request for a job kind.
func scanRequest(tenant int, system string, kind int, seed int64) service.ScanRequest {
	sp := service.ScanSpec{F1: 300e3, F2: 360e3, Fres: 500, FAlt1: corpusFAlt1, FDelta: corpusFDelta, Seed: seed}
	switch kind {
	case kindMedium:
		sp.F1, sp.F2, sp.Fres = 250e3, 550e3, 200
	case kindAdaptive:
		sp.F1, sp.F2, sp.Fres = corpusF1, corpusF2, corpusFres
		sp.MaxFFT, sp.Adaptive, sp.Budget = corpusMaxFFT, true, corpusBudget
	}
	return service.ScanRequest{Tenant: fmt.Sprintf("tenant-%d", tenant), System: system,
		Environment: true, Scan: sp}
}

func truthKey(system string, sp service.ScanSpec) string {
	return fmt.Sprintf("%s/%g-%g", system, sp.F1, sp.F2)
}

func (w *serviceWL) setup() error {
	w.names = systemNames()
	w.truth = map[string][]emsim.GroundTruthCarrier{}
	w.direct = map[string][]core.Detection{}
	for _, name := range w.names {
		sys, err := machine.Lookup(name)
		if err != nil {
			return err
		}
		sc := sys.Scene(0, false)
		for kind := 0; kind <= kindAdaptive; kind++ {
			sp := scanRequest(0, name, kind, 0).Scan
			w.truth[truthKey(name, sp)] = sc.GroundTruth(sp.F1, sp.F2, activity.LDM, activity.LDL1, minDelta)
		}
	}
	var err error
	if w.dir, err = os.MkdirTemp(w.tmp, "service-"); err != nil {
		return err
	}
	cfg := service.Config{StoreDir: filepath.Join(w.dir, "runs")}
	if w.traced {
		cfg.SceneFor = w.sceneFor
	}
	if w.srv, err = service.New(cfg); err != nil {
		return err
	}
	addr, err := w.srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	w.base = "http://" + addr
	for t := range w.clients {
		w.clients[t] = &http.Client{Timeout: time.Minute, Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
	}
	// Warm-up: one job per geometry (tenant 0) and a small scan on the
	// second connection. Each tenant's first round resubmits its warm-up
	// small scan. Like the rounds' jobs, these are the same for every
	// workload seed.
	var warm [tenants][]jobSpec
	for i, kind := range []int{0, kindMedium, kindAdaptive} {
		warm[0] = append(warm[0], jobSpec{kind, scanRequest(0, w.names[i], kind, deriveSeed(0, streamWarm, i))})
	}
	warm[1] = []jobSpec{{0, scanRequest(1, w.names[3], 0, deriveSeed(0, streamWarm, 3))}}
	jobs := w.round(warm, nil, -1)
	for t := range jobs {
		for _, j := range jobs[t] {
			if j.err != nil {
				return fmt.Errorf("service warm-up: %w", j.err)
			}
		}
		w.targets[t] = jobs[t][0]
	}
	return nil
}

// sceneFor is the default scene resolver (machine.Registry plus the RF
// environment seeded by the scan seed), timed while a traced round runs.
func (w *serviceWL) sceneFor(system string, seed int64, env bool) (*emsim.Scene, error) {
	t0 := time.Now()
	sys, err := machine.Lookup(system)
	if err != nil {
		return nil, err
	}
	sc := sys.Scene(seed, env)
	if tr := w.sceneTr.Load(); tr != nil {
		tr.add("machine.scene", system, -1, -1, t0, time.Now())
	}
	return sc, nil
}

func (w *serviceWL) close() {
	for _, cl := range w.clients {
		if cl != nil {
			cl.CloseIdleConnections()
		}
	}
	if w.srv != nil {
		_ = w.srv.Close()
	}
	if w.dir != "" {
		_ = os.RemoveAll(w.dir)
	}
}

// jobRun is one submitted job as its tenant saw it.
type jobRun struct {
	kind     int
	req      service.ScanRequest
	id       string
	resultID string
	cached   bool
	captures int64
	// submitted → accepted → first seen running → seen done.
	submitted, accepted, running, done time.Time
	manifest                           *obs.Manifest
	resultBytes                        int
	err                                error
}

// call performs one HTTP round trip and decodes a 2xx JSON body into
// out. It returns the body size; any other status is an error.
func call(cl *http.Client, method, url string, in, out any) (int, error) {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return 0, err
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		return 0, err
	}
	resp, err := cl.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode/100 != 2 {
		return len(data), fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(data))
	}
	return len(data), json.Unmarshal(data, out)
}

// round runs one batch per tenant concurrently and returns each
// tenant's jobs in submission order. tr, when set, records the round's
// spans; op numbers the round's jobs.
func (w *serviceWL) round(batches [tenants][]jobSpec, tr *tracer, op int) [tenants][]*jobRun {
	var out [tenants][]*jobRun
	var wg sync.WaitGroup
	for t := range batches {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			out[t] = w.tenant(w.clients[t], batches[t], tr, op+t*batchSize)
		}(t)
	}
	wg.Wait()
	return out
}

// tenant submits a batch, then polls its jobs in submission order until
// each is terminal, fetching every completed job's result. The queue
// dispatches equal-priority jobs first in, first out, so once one job is
// still queued the later ones are too and need no poll this cycle.
func (w *serviceWL) tenant(cl *http.Client, batch []jobSpec, tr *tracer, op int) []*jobRun {
	jobs := make([]*jobRun, len(batch))
	for k, spec := range batch {
		j := &jobRun{kind: spec.kind, req: spec.req, submitted: time.Now()}
		var st service.ScanStatus
		_, j.err = call(cl, http.MethodPost, w.base+"/v1/scans", spec.req, &st)
		j.accepted = time.Now()
		j.id, j.resultID, j.cached = st.ID, st.ResultID, st.Cached
		w.observe(cl, j, st, j.accepted, tr, op+k)
		jobs[k] = j
	}
	for {
		pending := false
		for k, j := range jobs {
			if !j.done.IsZero() || j.err != nil {
				continue
			}
			pending = true
			var st service.ScanStatus
			t0 := time.Now()
			_, j.err = call(cl, http.MethodGet, w.base+"/v1/scans/"+j.id, nil, &st)
			at := time.Now()
			if tr != nil {
				tr.add("service.poll", "", op+k, -1, t0, at)
			}
			if j.err == nil && st.State == service.StateQueued {
				break
			}
			w.observe(cl, j, st, at, tr, op+k)
		}
		if !pending {
			break
		}
		time.Sleep(pollInterval)
	}
	if tr != nil {
		for k, j := range jobs {
			if j.err == nil {
				root := tr.add("op", j.req.System, op+k, -1, j.submitted, j.done)
				tr.add("service.submit", "", op+k, root, j.submitted, j.accepted)
				tr.add("service.queue_wait", "", op+k, root, j.accepted, j.running)
				tr.add("service.run", "", op+k, root, j.running, j.done)
			}
		}
	}
	return jobs
}

// observe applies one status observation made at time at; a job seen
// done has its result fetched.
func (w *serviceWL) observe(cl *http.Client, j *jobRun, st service.ScanStatus, at time.Time, tr *tracer, op int) {
	if j.err != nil {
		return
	}
	switch st.State {
	case service.StateQueued:
		return
	case service.StateRunning:
		if j.running.IsZero() {
			j.running = at
		}
		return
	case service.StateDone:
	default:
		j.err = fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
		return
	}
	if j.running.IsZero() {
		j.running = at
	}
	j.done = at
	if !st.Cached {
		j.captures = st.Captures
	}
	t0 := time.Now()
	var m obs.Manifest
	j.resultBytes, j.err = call(cl, http.MethodGet, w.base+"/v1/scans/"+j.id+"/result", nil, &m)
	if tr != nil {
		tr.add("service.result", "", op, -1, t0, time.Now())
	}
	j.manifest = &m
}

// batch builds tenant t's batch for round r. The jobs themselves are the
// same for every workload seed, and the seed draws the order they are
// submitted in. Render cost varies several-fold between scan seeds (an
// adaptive job takes 5–100 ms), and with fresh scan seeds that op mix
// moved the latency median by ±10% between seeds.
func (w *serviceWL) batch(seed int64, r, t int) []jobSpec {
	out := make([]jobSpec, 0, batchSize)
	for kind := 0; kind < kindResubmit; kind++ {
		sys := w.names[(r*7+t*3+kind)%len(w.names)]
		out = append(out, jobSpec{kind, scanRequest(t, sys, kind, deriveSeed(0, streamJob, (r*tenants+t)*batchSize+kind))})
	}
	resub := w.targets[t].req
	resub.Tenant = out[0].req.Tenant
	out = append(out, jobSpec{kindResubmit, resub})
	rng := rand.New(rand.NewSource(deriveSeed(seed, streamPerm, r*tenants+t)))
	rng.Shuffle(len(out), func(i, k int) { out[i], out[k] = out[k], out[i] })
	return out
}

// directRun is the reference for the service's bit-identity contract: a
// direct RunE of the same system, environment, configuration and seed.
func directRun(req service.ScanRequest) ([]core.Detection, error) {
	c, err := req.Campaign()
	if err != nil {
		return nil, err
	}
	sys, err := machine.Lookup(req.System)
	if err != nil {
		return nil, err
	}
	res, err := (&core.Runner{Scene: sys.Scene(c.Seed, req.Environment)}).RunE(c)
	if err != nil {
		return nil, err
	}
	return res.Detections, nil
}

func sameRecords(ms []obs.DetectionRecord, ds []core.Detection) bool {
	if len(ms) != len(ds) {
		return false
	}
	for i, d := range ds {
		m := ms[i]
		if m.FreqHz != d.Freq || m.Score != d.Score || m.BestHarmonic != d.BestHarmonic ||
			m.MagnitudeDBm != d.MagnitudeDBm || m.DepthDB != d.DepthDB {
			return false
		}
	}
	return true
}

// reference returns the direct-run detections for a result id,
// computing them on first use.
func (w *serviceWL) reference(resultID string, req service.ScanRequest) ([]core.Detection, error) {
	if ds, ok := w.direct[resultID]; ok {
		return ds, nil
	}
	ds, err := directRun(req)
	if err == nil {
		w.direct[resultID] = ds
	}
	return ds, err
}

// check is a completed job's output check. Sampled jobs and every
// cached resubmit must return the detections of a direct RunE.
func (w *serviceWL) check(j *jobRun, sampled bool) error {
	if j.err != nil {
		return j.err
	}
	if j.kind == kindResubmit && !j.cached {
		return fmt.Errorf("resubmit %s was not served from the run store", j.id)
	}
	if c, _ := j.req.Campaign(); c.Adaptive != nil && j.manifest.Captures > int64(c.Budget) {
		return fmt.Errorf("adaptive job %s spent %d captures over budget %d", j.id, j.manifest.Captures, c.Budget)
	}
	if !sampled && j.kind != kindResubmit {
		return nil
	}
	ds, err := w.reference(j.resultID, j.req)
	if err != nil {
		return err
	}
	if !sameRecords(j.manifest.Detections, ds) {
		return fmt.Errorf("job %s (%s) detections differ from a direct RunE", j.id, j.req.System)
	}
	return nil
}

func (w *serviceWL) stats() (service.Stats, error) {
	var st service.Stats
	_, err := call(w.clients[0], http.MethodGet, w.base+"/v1/stats", nil, &st)
	return st, err
}

func (w *serviceWL) measure(b *bench) error {
	rounds := serviceRounds(b.seconds)
	before, err := w.stats()
	if err != nil {
		return err
	}
	// The references for the first resubmits are computed before timing.
	for _, j := range w.targets {
		if _, err := w.reference(j.resultID, j.req); err != nil {
			return err
		}
	}
	b.idle()
	var traced []*jobRun
	var untracedLat []float64
	for r := 0; r < rounds; r++ {
		var batches [tenants][]jobSpec
		for t := range batches {
			batches[t] = w.batch(b.seed, r, t)
			for _, spec := range batches[t] {
				b.inputs.Write([]byte(spec.req.System))
				b.note(int64(spec.kind), spec.req.Scan.Seed)
			}
		}
		var tr *tracer
		if b.tr != nil && r%2 == 1 {
			tr = b.tr
			w.sceneTr.Store(tr)
		}
		var jobs [tenants][]*jobRun
		b.timed(func() { jobs = w.round(batches, tr, r*tenants*batchSize) })
		w.sceneTr.Store(nil)
		sampled := r % kindResubmit
		for t := range jobs {
			for _, j := range jobs[t] {
				err := w.check(j, j.kind == sampled)
				if err != nil {
					fmt.Printf("failed job round %d tenant %d kind %d: %v\n", r, t, j.kind, err)
				}
				if j.kind == sampled {
					w.targets[t] = j
				}
				b.record(err == nil)
				if j.err != nil {
					continue
				}
				lat := j.done.Sub(j.submitted).Seconds()
				switch {
				case b.tr == nil:
					b.lat = append(b.lat, lat)
				case tr != nil:
					b.tlat = append(b.tlat, lat)
					traced = append(traced, j)
				default:
					untracedLat = append(untracedLat, lat)
				}
				sp := j.req.Scan
				freqs := make([]float64, len(j.manifest.Detections))
				for k, d := range j.manifest.Detections {
					freqs[k] = d.FreqHz
				}
				b.q.add(w.truth[truthKey(j.req.System, sp)], freqs, 24*sp.Fres, j.captures)
			}
		}
		b.idle()
	}
	if b.tr == nil {
		return nil
	}
	b.lat = untracedLat
	after, err := w.stats()
	if err != nil {
		return err
	}
	jobs := float64(b.attempted)
	b.layer["service.shards_per_job"] = float64(after.Shards-before.Shards) / jobs
	b.layer["service.cached_frac"] = float64(after.Cached-before.Cached) / jobs
	b.layer["service.rejected"] = float64(after.Rejected - before.Rejected)
	b.layer["specan.captures"] = float64(b.q.captures) / jobs
	b.layer["service.max_queue_depth"] = float64(after.MaxQueueDepth)
	for _, name := range []string{"service.submit", "service.queue_wait", "service.run",
		"service.poll", "service.result", "machine.scene"} {
		b.layer[name+".ms"] = b.spanMS(name, "")
	}
	b.layer["trace.op.ms"] = b.spanMS("op", "")
	b.layer["trace.unattributed_frac"] = b.tr.selfFrac("op")
	var kb []float64
	for _, j := range traced {
		kb = append(kb, float64(j.resultBytes)/1024)
	}
	b.layer["service.result.kb"] = mean(kb)
	if err := w.probeStore(b, traced); err != nil {
		return err
	}
	var scenes []*emsim.Scene
	for _, name := range w.names {
		sys, _ := machine.Lookup(name)
		scenes = append(scenes, sys.Scene(b.seed, true))
	}
	probeLayers(b, scenes, 300e3, 360e3, 500, 0)
	return nil
}

// probeStore re-archives the traced rounds' fetched manifests into a
// scratch store and resolves each by path: runstore.Add and
// runstore.Resolve in isolation, without the service around them.
func (w *serviceWL) probeStore(b *bench, jobs []*jobRun) error {
	st, err := runstore.Open(filepath.Join(w.dir, "probe"))
	if err != nil {
		return err
	}
	var add, resolve []float64
	var paths []string
	for _, j := range jobs {
		if j.cached {
			continue
		}
		t0 := time.Now()
		e, err := st.Add(j.manifest)
		if err != nil {
			return err
		}
		add = append(add, time.Since(t0).Seconds())
		paths = append(paths, e.Path)
	}
	b.idle()
	for _, p := range paths {
		t0 := time.Now()
		if _, _, err := st.Resolve(p); err != nil {
			return err
		}
		resolve = append(resolve, time.Since(t0).Seconds())
	}
	b.layer["runstore.add.ms"] = b.ms(mean(add))
	b.layer["runstore.resolve.ms"] = b.ms(mean(resolve))
	return nil
}
