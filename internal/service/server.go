package service

import (
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fase/internal/core"
	"fase/internal/emsim"
	"fase/internal/machine"
	"fase/internal/obs"
	"fase/internal/par"
	"fase/internal/runstore"
	"fase/internal/specan"
)

// Process-wide service counters, exposed at /metrics alongside the rest
// of the fase_* catalogue. Per-server numbers live in Server.Stats.
var (
	svcSubmittedTotal = obs.Default.Counter("fase_service_submitted_total")
	svcRejectedTotal  = obs.Default.Counter("fase_service_rejected_total")
	svcCompletedTotal = obs.Default.Counter("fase_service_completed_total")
	svcFailedTotal    = obs.Default.Counter("fase_service_failed_total")
	svcCancelledTotal = obs.Default.Counter("fase_service_cancelled_total")
	svcCachedTotal    = obs.Default.Counter("fase_service_cached_total")
	svcShardsTotal    = obs.Default.Counter("fase_service_shards_total")
)

// Config parameterizes a campaign server. The zero value of every field
// takes a sensible default (see New).
type Config struct {
	// Workers is the shard-rendering fleet size — the service's true
	// concurrency bound, since every shard renders single-threaded.
	// Default: GOMAXPROCS.
	Workers int
	// MaxActive bounds how many jobs execute (hold coordinators) at
	// once; queued jobs beyond it wait. Default: 2.
	MaxActive int
	// QueueCapacity bounds queued (not yet running) jobs; admission
	// beyond it answers 429. Default: 64.
	QueueCapacity int
	// TenantQuota bounds one tenant's queued+running jobs; negative
	// disables the quota. Default: 8.
	TenantQuota int
	// StoreDir is the content-addressed run archive. Default: "runs".
	StoreDir string
	// SceneFor resolves a submission's scene. The default looks the
	// system up in machine.Registry and seeds the optional RF
	// environment with the scan seed, exactly like the CLI.
	SceneFor func(system string, seed int64, environment bool) (*emsim.Scene, error)
	// MaxCapturesPerJob and MaxSimSeconds are admission guards: a
	// submission whose exhaustive plan prices above either — or an
	// adaptive budget above the capture limit — is rejected with 400
	// before any rendering. They keep one tenant's giant scan from
	// wedging the fleet. Defaults: 4096 captures, 600 simulated
	// seconds.
	MaxCapturesPerJob int64
	MaxSimSeconds     float64
}

func defaultSceneFor(system string, seed int64, environment bool) (*emsim.Scene, error) {
	sys, err := machine.Lookup(system)
	if err != nil {
		return nil, err
	}
	return sys.Scene(seed, environment), nil
}

// Server is a running campaign service: an admission queue, a dispatcher
// feeding a bounded worker fleet, a job registry, and the run store.
// Create with New, expose with Handler or Listen, stop with Close.
type Server struct {
	cfg   Config
	store *runstore.Store

	base       context.Context
	cancelBase context.CancelFunc

	q      *queue
	tasks  chan func()
	active chan struct{} // MaxActive semaphore

	seq atomic.Int64

	mu    sync.Mutex
	jobs  map[string]*Job
	order []*Job // submission order, for listing

	running    atomic.Int64
	submitted  atomic.Int64
	rejected   atomic.Int64
	completed  atomic.Int64
	failed     atomic.Int64
	cancelled  atomic.Int64
	cachedHits atomic.Int64
	shardsRun  atomic.Int64

	dispatchWG sync.WaitGroup
	workerWG   sync.WaitGroup
	jobWG      sync.WaitGroup

	// done closes at shutdown, unblocking SSE streams (obs.ServeSSE).
	done      chan struct{}
	closeOnce sync.Once
	closeErr  error

	httpSrv *http.Server
	lis     net.Listener
	// Addr is the bound listen address after Listen (useful with ":0").
	Addr string
}

// New starts a campaign server: the worker fleet and dispatcher run
// immediately; no listener is opened until Listen (Handler serves
// in-process).
func New(cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxActive <= 0 {
		cfg.MaxActive = 2
	}
	if cfg.QueueCapacity <= 0 {
		cfg.QueueCapacity = 64
	}
	if cfg.TenantQuota == 0 {
		cfg.TenantQuota = 8
	}
	if cfg.TenantQuota < 0 {
		cfg.TenantQuota = 0 // unlimited
	}
	if cfg.StoreDir == "" {
		cfg.StoreDir = "runs"
	}
	if cfg.SceneFor == nil {
		cfg.SceneFor = defaultSceneFor
	}
	if cfg.MaxCapturesPerJob <= 0 {
		cfg.MaxCapturesPerJob = 4096
	}
	if cfg.MaxSimSeconds <= 0 {
		cfg.MaxSimSeconds = 600
	}
	store, err := runstore.Open(cfg.StoreDir)
	if err != nil {
		return nil, err
	}
	// Reclaim the temporary files of archive writes a crash interrupted,
	// before any job of this server starts writing its own.
	if _, err := store.Recover(); err != nil {
		return nil, err
	}
	s := &Server{
		cfg:    cfg,
		store:  store,
		q:      newQueue(cfg.QueueCapacity, cfg.TenantQuota),
		tasks:  make(chan func()),
		active: make(chan struct{}, cfg.MaxActive),
		jobs:   make(map[string]*Job),
		done:   make(chan struct{}),
	}
	s.base, s.cancelBase = context.WithCancel(context.Background())
	for i := 0; i < cfg.Workers; i++ {
		s.workerWG.Add(1)
		go func() {
			defer s.workerWG.Done()
			for task := range s.tasks {
				task()
			}
		}()
	}
	s.dispatchWG.Add(1)
	go s.dispatch()
	return s, nil
}

// dispatch moves jobs from the queue to coordinators: it waits for an
// active slot first and pops second, so the priority decision is made as
// late as possible — a high-priority job admitted while all slots were
// busy still jumps every waiting lower-priority job.
func (s *Server) dispatch() {
	defer s.dispatchWG.Done()
	for {
		select {
		case s.active <- struct{}{}:
		case <-s.base.Done():
			return
		}
		for {
			j := s.q.pop()
			if j != nil {
				s.jobWG.Add(1)
				go s.runJob(j)
				break
			}
			select {
			case <-s.q.signal:
			case <-s.base.Done():
				<-s.active
				return
			}
		}
	}
}

// Submit admits one scan: validated, priced, content-addressed, then
// queued (or served straight from the run store when an identical
// (config, seed) already completed). Returns the job, or an *httpError
// with the HTTP status a handler should answer.
func (s *Server) Submit(req *ScanRequest, c core.Campaign) (*Job, *httpError) {
	if s.base.Err() != nil {
		return nil, &httpError{status: http.StatusServiceUnavailable, msg: "service: shutting down"}
	}
	scene, err := s.cfg.SceneFor(req.System, c.Seed, req.Environment)
	if err != nil {
		return nil, errBadRequest("%v", err)
	}
	if herr := s.price(c); herr != nil {
		return nil, herr
	}
	rc, err := c.ResolvedConfig()
	if err != nil {
		return nil, errBadRequest("%v", err)
	}
	resultID, err := runstore.ConfigID(resultConfig{
		System: req.System, Environment: req.Environment, Scan: rc})
	if err != nil {
		return nil, &httpError{status: http.StatusInternalServerError, msg: err.Error()}
	}
	seq := s.seq.Add(1)
	j := &Job{
		ID: fmt.Sprintf("j%06d", seq), ResultID: resultID,
		Tenant: req.Tenant, Priority: req.priority(), seq: seq, heapIndex: -1,
		campaign: c, scene: scene, system: req.System, envOn: req.Environment,
		submitted: time.Now(), state: StateQueued,
	}
	j.ctx, j.cancel = context.WithCancel(s.base)
	// Content-addressed result reuse: look the archive entry up by id
	// (one file open, no store listing). A hit means this exact work —
	// same system, environment, resolved config, seed — already ran;
	// the job completes immediately without queueing, rendering, or
	// charging the tenant's quota. A missing or unparsable entry is a
	// miss: the job renders and its archive replaces the entry.
	if m, lerr := s.store.Lookup(resultID); lerr == nil {
		j.state = StateDone
		j.cached = true
		j.manifest = m
		j.detections = len(m.Detections)
		j.captures = m.Captures
		j.finished = time.Now()
		s.addJob(j)
		s.submitted.Add(1)
		s.cachedHits.Add(1)
		svcSubmittedTotal.Inc()
		svcCachedTotal.Inc()
		return j, nil
	}
	if aerr := s.q.admit(j); aerr != nil {
		s.rejected.Add(1)
		svcRejectedTotal.Inc()
		return nil, aerr.(*httpError)
	}
	s.addJob(j)
	s.submitted.Add(1)
	svcSubmittedTotal.Inc()
	return j, nil
}

// maxTraceSegments caps the activity segments of one sweep's alternation
// trace (core.Campaign.TraceSegments), which microbench.Generate
// preallocates at 32 bytes a segment before the sweep renders: 2^24 admits
// the paper's ladders at the simulated-time guard (a 45.3 kHz ladder over
// 600 s needs about 11 M) and keeps one trace near half a gigabyte. Go
// cannot recover from running out of memory, so a larger trace is refused
// at admission instead.
const maxTraceSegments = 1 << 24

// price rejects submissions whose measurement cost exceeds the per-job
// admission guards, using the same O(1) sweep pricing the adaptive
// planner budgets with — no rendering happens.
func (s *Server) price(c core.Campaign) *httpError {
	if err := c.Validate(); err != nil {
		return errBadRequest("%v", err)
	}
	if n := c.TraceSegments(); n > maxTraceSegments {
		return errBadRequest("service: campaign's alternation trace holds %.3g segments per sweep, above the limit %d",
			n, maxTraceSegments)
	}
	if c.Adaptive != nil {
		if int64(c.Budget) > s.cfg.MaxCapturesPerJob {
			return errBadRequest("service: budget %d exceeds the per-job capture limit %d",
				c.Budget, s.cfg.MaxCapturesPerJob)
		}
		return nil
	}
	plan, err := core.PlanShards(c)
	if err != nil {
		return errBadRequest("%v", err)
	}
	an := specan.New(plan.AnalyzerConfig(nil))
	caps := int64(len(plan.FAlts)) * an.SweepCaptures(c.F1, c.F2)
	sim := float64(len(plan.FAlts)) * an.TotalDuration(c.F1, c.F2)
	if caps <= 0 {
		return errBadRequest("service: campaign renders no captures")
	}
	if caps > s.cfg.MaxCapturesPerJob {
		return errBadRequest("service: campaign costs %d captures, above the per-job limit %d",
			caps, s.cfg.MaxCapturesPerJob)
	}
	if math.IsNaN(sim) || sim > s.cfg.MaxSimSeconds {
		return errBadRequest("service: campaign simulates %.3g s of analyzer time, above the per-job limit %g s",
			sim, s.cfg.MaxSimSeconds)
	}
	return nil
}

func (s *Server) addJob(j *Job) {
	s.mu.Lock()
	s.jobs[j.ID] = j
	s.order = append(s.order, j)
	s.mu.Unlock()
}

// Job returns a submitted job by id.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs lists jobs in submission order, optionally filtered by tenant.
func (s *Server) Jobs(tenant string) []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, j := range s.order {
		if tenant == "" || j.Tenant == tenant {
			out = append(out, j)
		}
	}
	return out
}

// Cancel cancels a job. Queued jobs never start (their quota slot frees
// immediately); running jobs observe context cancellation mid-shard and
// discard partial work. Cancelling a terminal job is a no-op. Returns
// false if the id is unknown.
func (s *Server) Cancel(id string) (*Job, bool) {
	j, ok := s.Job(id)
	if !ok {
		return nil, false
	}
	j.cancel()
	if s.q.remove(j) {
		// Still queued: this call owns the terminal transition.
		s.terminate(j, StateCancelled, "cancelled while queued")
	}
	// Otherwise the dispatcher owns the job; its coordinator observes
	// the cancelled context and terminates it.
	return j, true
}

// terminate performs a job's terminal transition exactly once: state,
// journal close (ending SSE streams), quota release, counters.
func (s *Server) terminate(j *Job, state, errMsg string) {
	if !j.finish(state, errMsg) {
		return
	}
	if jr := j.journal(); jr != nil {
		jr.Close()
	}
	s.q.release(j.Tenant)
	switch state {
	case StateDone:
		s.completed.Add(1)
		svcCompletedTotal.Inc()
	case StateFailed:
		s.failed.Add(1)
		svcFailedTotal.Inc()
	case StateCancelled:
		s.cancelled.Add(1)
		svcCancelledTotal.Inc()
	}
}

// runJob is one job's coordinator: it drives the shard fan-out (or the
// unsharded adaptive run), reduces, archives, and terminates the job. A
// panic anywhere in the job — in the coordinator itself or re-raised from
// one of its tasks (see runTasks) — fails this job alone: the panic value
// goes into the job's error, the panicking goroutine's stack into its
// journal, and the deferred releases free its quota and active slot.
func (s *Server) runJob(j *Job) {
	defer s.jobWG.Done()
	defer func() { <-s.active }()
	defer func() {
		if v := recover(); v != nil {
			s.failPanicked(j, par.Recovered(v))
		}
	}()
	if j.ctx.Err() != nil {
		s.terminate(j, StateCancelled, "cancelled before start")
		return
	}
	run := obs.NewRun()
	run.Journal = obs.NewJournal()
	if !j.setRunning(run) {
		s.terminate(j, StateCancelled, "cancelled before start")
		return
	}
	s.running.Add(1)
	defer s.running.Add(-1)
	var res *core.Result
	var err error
	if j.campaign.Adaptive != nil {
		res, err = s.runAdaptiveJob(j, run)
	} else {
		res, err = s.runShardedJob(j, run)
	}
	switch {
	case j.ctx.Err() != nil:
		// Partial work — shards, spectra, any manifest — is discarded
		// wholesale; nothing reaches the run store.
		s.terminate(j, StateCancelled, "cancelled while running")
	case err != nil:
		s.terminate(j, StateFailed, err.Error())
	default:
		m := run.Manifest()
		if m == nil || res == nil {
			s.terminate(j, StateFailed, "service: run produced no manifest")
			return
		}
		// Rewrap the manifest config with the scene parameters so the
		// archive entry lands at the job's content address (ResultID).
		m.Config = resultConfig{System: j.system, Environment: j.envOn, Scan: m.Config}
		if _, aerr := s.store.Add(m); aerr != nil {
			s.terminate(j, StateFailed, aerr.Error())
			return
		}
		j.setResult(m)
		s.terminate(j, StateDone, "")
	}
}

// runShardedJob fans an exhaustive campaign's ladder sweeps out to the
// worker fleet as independent shard tasks and reduces them in fixed
// ladder order. Each shard gets its own single-threaded analyzer — the
// fleet is the concurrency bound — while one shared StaticCache keeps
// the cross-sweep static-layer reuse the serial path enjoys. Bit-
// identity with the serial path holds because both execute the same
// core.ShardPlan methods with the same seeds.
func (s *Server) runShardedJob(j *Job, run *obs.Run) (*core.Result, error) {
	plan, err := core.PlanShards(j.campaign)
	if err != nil {
		return nil, err
	}
	runner := &core.Runner{Scene: j.scene, Obs: run}
	// Every shard analyzer shares acfg's static cache.
	acfg := plan.AnalyzerConfig(run)
	acfg.Parallelism = 1
	plan.Begin(specan.New(acfg), run)
	ms := make([]core.Measurement, len(plan.FAlts))
	sweeps := run.Begin("sweeps")
	s.runTasks(j, len(plan.FAlts), func(i int) {
		if j.ctx.Err() != nil {
			return
		}
		s.shardsRun.Add(1)
		svcShardsTotal.Inc()
		ms[i] = runner.RenderShard(j.ctx, specan.New(acfg), plan, i, run, sweeps)
	})
	sweeps.End()
	if j.ctx.Err() != nil {
		return nil, nil
	}
	return runner.ReduceShards(plan, ms, run, obs.Span{})
}

// runAdaptiveJob runs an adaptive campaign as a single unsharded task on
// the fleet: its capture schedule is decided at run time by the budget
// planner, so there is no static shard decomposition to distribute.
func (s *Server) runAdaptiveJob(j *Job, run *obs.Run) (*core.Result, error) {
	runner := &core.Runner{Scene: j.scene, Obs: run}
	var res *core.Result
	var err error
	s.runTasks(j, 1, func(int) { res, err = runner.RunE(j.campaign) })
	if j.ctx.Err() != nil {
		return nil, nil
	}
	return res, err
}

// runTasks runs fn(0), …, fn(n-1) as tasks on the worker fleet and waits
// for them; tasks not yet handed to a worker when j is cancelled are
// dropped. A task that panics is recovered on its worker, which keeps
// serving; once every task has finished, the lowest-indexed panic is
// re-raised here, on j's coordinator, where runJob fails the job.
func (s *Server) runTasks(j *Job, n int, fn func(i int)) {
	panics := make([]*par.Panic, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		task := func() {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					panics[i] = par.Recovered(v)
				}
			}()
			fn(i)
		}
		select {
		case s.tasks <- task:
		case <-j.ctx.Done():
			wg.Done() // task never enqueued
		}
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
}

// failPanicked terminates a job whose coordinator recovered p: the panic
// value becomes the job's error and the stack goes into its journal.
func (s *Server) failPanicked(j *Job, p *par.Panic) {
	if run := j.runNow(); run != nil {
		run.Track(0).Emit(obs.Event{Kind: obs.EventPanic,
			Name: fmt.Sprint(p.Value), Stack: string(p.Stack)})
	}
	s.terminate(j, StateFailed, fmt.Sprintf("service: job panicked: %v", p.Value))
}

// Stats is the /v1/stats snapshot.
type Stats struct {
	Workers       int   `json:"workers"`
	MaxActive     int   `json:"max_active"`
	QueueCapacity int   `json:"queue_capacity"`
	TenantQuota   int   `json:"tenant_quota"`
	QueueDepth    int   `json:"queue_depth"`
	MaxQueueDepth int   `json:"max_queue_depth"`
	Running       int64 `json:"running"`
	Submitted     int64 `json:"submitted_total"`
	Rejected      int64 `json:"rejected_total"`
	Completed     int64 `json:"completed_total"`
	Failed        int64 `json:"failed_total"`
	Cancelled     int64 `json:"cancelled_total"`
	Cached        int64 `json:"cached_total"`
	Shards        int64 `json:"shards_total"`
}

// Stats snapshots the server.
func (s *Server) Stats() Stats {
	depth, maxDepth := s.q.depth()
	return Stats{
		Workers: s.cfg.Workers, MaxActive: s.cfg.MaxActive,
		QueueCapacity: s.cfg.QueueCapacity, TenantQuota: s.cfg.TenantQuota,
		QueueDepth: depth, MaxQueueDepth: maxDepth,
		Running:   s.running.Load(),
		Submitted: s.submitted.Load(), Rejected: s.rejected.Load(),
		Completed: s.completed.Load(), Failed: s.failed.Load(),
		Cancelled: s.cancelled.Load(), Cached: s.cachedHits.Load(),
		Shards: s.shardsRun.Load(),
	}
}

// Listen opens addr and serves Handler on it in a background goroutine,
// returning the bound address (useful with ":0").
func (s *Server) Listen(addr string) (string, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("service: listen %s: %w", addr, err)
	}
	s.lis = lis
	s.Addr = lis.Addr().String()
	s.httpSrv = &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = s.httpSrv.Serve(lis) }()
	return s.Addr, nil
}

// Close shuts the service down: admission stops (503), queued jobs are
// cancelled without starting, running jobs observe context cancellation
// and discard partial work, the worker fleet drains, SSE streams end,
// and the HTTP listener (if any) shuts down gracefully. Safe to call
// more than once.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		s.cancelBase()
		for _, j := range s.q.close() {
			j.cancel()
			s.terminate(j, StateCancelled, "service shutting down")
		}
		s.dispatchWG.Wait()
		s.jobWG.Wait()
		close(s.tasks)
		s.workerWG.Wait()
		close(s.done)
		if s.httpSrv != nil {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := s.httpSrv.Shutdown(ctx); err != nil {
				s.closeErr = s.httpSrv.Close()
			}
		}
	})
	return s.closeErr
}
