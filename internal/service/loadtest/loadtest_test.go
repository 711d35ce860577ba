package loadtest

import (
	"testing"
	"time"

	"fase/internal/service"
)

// tinySpec is the shared fast campaign: one 256-point segment per sweep,
// 4 averages × 5 ladder sweeps = 20 captures per job.
func tinySpec() service.ScanSpec {
	return service.ScanSpec{
		F1: 300e3, F2: 360e3, Fres: 500,
		FAlt1: 43.3e3, FDelta: 500,
	}
}

// startLoad starts a server with a fresh store, closed when tb ends, and
// returns the full load against it: 10 tenants × 6 jobs. The server is
// deliberately small, so the 60 concurrent campaigns saturate the queue
// and the per-tenant quotas, and the run measures fair admission under
// pressure, not an idle fast path.
func startLoad(tb testing.TB) Options {
	tb.Helper()
	s, err := service.New(service.Config{
		Workers: 4, MaxActive: 3, QueueCapacity: 16, TenantQuota: 4,
		StoreDir: tb.TempDir(),
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() })
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	return Options{
		BaseURL: "http://" + addr,
		Tenants: 10, JobsPerTenant: 6,
		System: "i7-desktop", Spec: tinySpec(), BaseSeed: 100,
	}
}

// TestServiceLoad runs the full load and pins its job accounting exactly:
// every job completes, each renders one shard per ladder sweep, unique
// seeds never hit the cache, and seeded campaigns are bit-identical, so
// the detection total is reproducible.
func TestServiceLoad(t *testing.T) {
	rep, err := Run(startLoad(t))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("load: %d jobs, p50 %v p95 %v p99 %v, %.1f jobs/s, %d retries, max depth %d, %d detections",
		rep.JobsTotal, rep.P50, rep.P95, rep.P99,
		rep.Throughput, rep.Retries429, rep.MaxQueueDepth, rep.Detections)
	got := [5]int64{rep.JobsTotal, rep.JobsCompleted, rep.ShardsTotal, rep.Detections, rep.JobsCached}
	if want := [5]int64{60, 60, 300, 53, 0}; got != want {
		t.Errorf("jobs, completed, shards, detections, cached = %v, want %v", got, want)
	}
	if rep.P50 > rep.P95 || rep.P95 > rep.P99 {
		t.Errorf("latency percentiles out of order: %v/%v/%v", rep.P50, rep.P95, rep.P99)
	}
}

// BenchmarkServiceLoad runs the full load once per iteration, each on a
// fresh server and store, and reports the mean p99 submit-to-complete
// latency and throughput, and the bytes allocated per run: the service
// rows of `make ab`.
func BenchmarkServiceLoad(b *testing.B) {
	b.ReportAllocs()
	var p99, jobsPerSec float64
	for i := 0; i < b.N; i++ {
		rep, err := Run(startLoad(b))
		if err != nil {
			b.Fatal(err)
		}
		p99 += float64(rep.P99) / float64(time.Millisecond)
		jobsPerSec += rep.Throughput
	}
	b.ReportMetric(p99/float64(b.N), "p99-ms")
	b.ReportMetric(jobsPerSec/float64(b.N), "jobs/s")
}
