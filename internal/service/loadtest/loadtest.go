// Package loadtest is the campaign service's in-process load-test
// harness: it drives a running server over real HTTP with N concurrent
// tenants submitting seeded campaigns, records submit-to-complete
// latency percentiles and saturation throughput, and reports the
// deterministic job accounting (jobs, shards, detections) that
// TestServiceLoad pins exactly. BenchmarkServiceLoad reports the p99
// latency and throughput that `make ab` compares against a base revision.
package loadtest

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fase/internal/service"
)

// Options configures one load run against a service at BaseURL.
type Options struct {
	BaseURL string
	// Tenants × JobsPerTenant concurrent clients each submit one job
	// (retrying on 429 until admitted) and poll it to completion.
	Tenants       int
	JobsPerTenant int
	// System and Spec template every submission; each job's seed is
	// BaseSeed + tenant*1000 + job, so the seed set — and with it the
	// run's total detections — is a pure function of the options.
	System   string
	Spec     service.ScanSpec
	BaseSeed int64
	// RetryDelay paces 429 retries (default 10ms); JobTimeout bounds one
	// job's submit-to-complete wait (default 120s).
	RetryDelay time.Duration
	JobTimeout time.Duration
}

// Report is one load run's outcome. The job, shard and detection counts
// are deterministic for a given Options and fresh store; the latencies
// and throughput are the measured performance.
type Report struct {
	JobsTotal     int64
	JobsCompleted int64
	JobsCached    int64
	Retries429    int64
	ShardsTotal   int64
	Detections    int64
	MaxQueueDepth int

	// P50, P95 and P99 are submit-to-complete latency percentiles.
	P50, P95, P99 time.Duration
	Throughput    float64 // completed jobs per second
}

// Run executes the load test and aggregates the report. It fails on the
// first unexpected HTTP status or a job that does not complete — the
// harness asserts full completion, so the deterministic counters are
// meaningful.
func Run(opts Options) (*Report, error) {
	if opts.RetryDelay <= 0 {
		opts.RetryDelay = 10 * time.Millisecond
	}
	if opts.JobTimeout <= 0 {
		opts.JobTimeout = 120 * time.Second
	}
	n := opts.Tenants * opts.JobsPerTenant
	if n <= 0 {
		return nil, fmt.Errorf("loadtest: no jobs to run")
	}
	client := &http.Client{Timeout: 10 * time.Second}
	latencies := make([]time.Duration, n)
	var detections, cached, retries atomic.Int64
	errs := make(chan error, n)
	start := time.Now()
	var wg sync.WaitGroup
	for tn := 0; tn < opts.Tenants; tn++ {
		for i := 0; i < opts.JobsPerTenant; i++ {
			wg.Add(1)
			go func(tn, i int) {
				defer wg.Done()
				req := &service.ScanRequest{
					Tenant: fmt.Sprintf("load-%d", tn),
					System: opts.System,
					Scan:   opts.Spec,
				}
				req.Scan.Seed = opts.BaseSeed + int64(tn)*1000 + int64(i)
				t0 := time.Now()
				st, err := submit(client, opts, req, &retries)
				if err != nil {
					errs <- fmt.Errorf("tenant %d job %d: %w", tn, i, err)
					return
				}
				fin, err := awaitDone(client, opts, st)
				if err != nil {
					errs <- fmt.Errorf("tenant %d job %d: %w", tn, i, err)
					return
				}
				latencies[tn*opts.JobsPerTenant+i] = time.Since(t0)
				detections.Add(int64(fin.Detections))
				if fin.Cached {
					cached.Add(1)
				}
			}(tn, i)
		}
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errs)
	if err := <-errs; err != nil {
		return nil, err
	}

	var stats service.Stats
	if err := getJSON(client, opts.BaseURL+"/v1/stats", &stats); err != nil {
		return nil, fmt.Errorf("loadtest: stats: %w", err)
	}
	sorted := make([]time.Duration, n)
	copy(sorted, latencies)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	return &Report{
		JobsTotal:     int64(n),
		JobsCompleted: stats.Completed,
		JobsCached:    cached.Load(),
		Retries429:    retries.Load(),
		ShardsTotal:   stats.Shards,
		Detections:    detections.Load(),
		MaxQueueDepth: stats.MaxQueueDepth,
		P50:           percentile(sorted, 50),
		P95:           percentile(sorted, 95),
		P99:           percentile(sorted, 99),
		Throughput:    float64(n) / elapsed.Seconds(),
	}, nil
}

// submit POSTs one job, retrying fair-admission rejections (429) until
// the queue or the tenant's quota frees a slot.
func submit(client *http.Client, opts Options, req *service.ScanRequest, retries *atomic.Int64) (service.ScanStatus, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return service.ScanStatus{}, err
	}
	deadline := time.Now().Add(opts.JobTimeout)
	for {
		resp, err := client.Post(opts.BaseURL+"/v1/scans", "application/json",
			strings.NewReader(string(body)))
		if err != nil {
			return service.ScanStatus{}, err
		}
		switch resp.StatusCode {
		case http.StatusOK, http.StatusAccepted:
			var st service.ScanStatus
			err := json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			return st, err
		case http.StatusTooManyRequests:
			resp.Body.Close()
			retries.Add(1)
			if time.Now().After(deadline) {
				return service.ScanStatus{}, fmt.Errorf("still rejected at deadline")
			}
			time.Sleep(opts.RetryDelay)
		default:
			resp.Body.Close()
			return service.ScanStatus{}, fmt.Errorf("submit status %d", resp.StatusCode)
		}
	}
}

// awaitDone polls a job until it completes (any other terminal state is
// a harness failure).
func awaitDone(client *http.Client, opts Options, st service.ScanStatus) (service.ScanStatus, error) {
	deadline := time.Now().Add(opts.JobTimeout)
	for {
		if st.State == service.StateDone {
			return st, nil
		}
		if st.State == service.StateFailed || st.State == service.StateCancelled {
			return st, fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("job %s still %s at deadline", st.ID, st.State)
		}
		time.Sleep(2 * time.Millisecond)
		if err := getJSON(client, opts.BaseURL+"/v1/scans/"+st.ID, &st); err != nil {
			return st, err
		}
	}
}

func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// percentile returns the p-th percentile of sorted latencies
// (nearest-rank).
func percentile(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := (p*len(sorted) + 99) / 100
	if idx < 1 {
		idx = 1
	}
	if idx > len(sorted) {
		idx = len(sorted)
	}
	return sorted[idx-1]
}
