package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fase/internal/emsim"
	"fase/internal/obs"
)

// submitJob submits req in-process.
func submitJob(t *testing.T, s *Server, req *ScanRequest) *Job {
	t.Helper()
	c, err := req.Campaign()
	if err != nil {
		t.Fatal(err)
	}
	j, herr := s.Submit(req, c)
	if herr != nil {
		t.Fatalf("submit: %d %s", herr.status, herr.msg)
	}
	return j
}

// waitJob polls a job until it reaches a terminal state.
func waitJob(t *testing.T, j *Job) ScanStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !terminal(j.stateNow()) {
		if time.Now().After(deadline) {
			t.Fatalf("job %s did not finish", j.ID)
		}
		time.Sleep(time.Millisecond)
	}
	return j.status()
}

// submitDone submits req in-process and waits for the job to complete.
func submitDone(t *testing.T, s *Server, req *ScanRequest) *Job {
	t.Helper()
	j := submitJob(t, s, req)
	if st := waitJob(t, j); st.State != StateDone {
		t.Fatalf("job %s finished %s: %s", j.ID, st.State, st.Error)
	}
	return j
}

// TestJobContextsReleased: a job's terminal transition cancels its
// context, so a finished job leaves nothing registered in the server's
// base context, and a cached hit, which finishes inside Submit, carries
// an already cancelled one.
func TestJobContextsReleased(t *testing.T) {
	s := newServer(t, Config{Workers: 2})
	done := submitDone(t, s, tinyRequest("acme", 71))
	if err := done.ctx.Err(); err != context.Canceled {
		t.Errorf("done job's context: %v, want context.Canceled", err)
	}
	cached := submitDone(t, s, tinyRequest("acme", 71))
	if !cached.cached {
		t.Fatal("resubmit was not a cache hit")
	}
	if err := cached.ctx.Err(); err != context.Canceled {
		t.Errorf("cached hit's context: %v, want context.Canceled", err)
	}
}

// TestCachedSubmitBuildsNoScene: Submit looks the result up before it
// resolves a scene, so a cached resubmit builds none, a finished job
// drops the scene it rendered, and an unknown system is still rejected
// before admission.
func TestCachedSubmitBuildsNoScene(t *testing.T) {
	var scenes atomic.Int64
	s := newServer(t, Config{Workers: 2,
		SceneFor: func(system string, seed int64, env bool) (*emsim.Scene, error) {
			scenes.Add(1)
			return defaultSceneFor(system, seed, env)
		}})
	first := submitDone(t, s, tinyRequest("acme", 72))
	if n := scenes.Load(); n != 1 {
		t.Fatalf("first submission built %d scenes, want 1", n)
	}
	again := submitDone(t, s, tinyRequest("other", 72))
	if !again.cached {
		t.Fatal("resubmit was not a cache hit")
	}
	if n := scenes.Load(); n != 1 {
		t.Errorf("cached resubmit built a scene: %d scenes in all, want 1", n)
	}
	for _, j := range []*Job{first, again} {
		j.mu.Lock()
		sc := j.scene
		j.mu.Unlock()
		if sc != nil {
			t.Errorf("finished job %s (cached %v) still holds its scene", j.ID, j.cached)
		}
	}
	bad := tinyRequest("acme", 72)
	bad.System = "nope"
	c, err := bad.Campaign()
	if err != nil {
		t.Fatal(err)
	}
	if _, herr := s.Submit(bad, c); herr == nil || herr.status != http.StatusBadRequest {
		t.Errorf("unknown system: %v, want a 400", herr)
	}
}

// TestJobTableBounded is the job table's retention gate: 10,000 cached
// resubmits of one rendered job leave at most FinishedJobsKept jobs in
// the table and the live heap where it was at 1,000; an unbounded table
// keeps every hit's manifest and grows by tens of megabytes here. The
// evicted ids answer 404 with a pointer to the results route, which
// still serves their manifest, and the counters balance.
func TestJobTableBounded(t *testing.T) {
	const (
		resubmits = 10000
		// heapSlack bounds the live heap's growth from 1,000 to 10,000
		// resubmits.
		heapSlack = 1 << 20
	)
	dir := t.TempDir()
	s := newServer(t, Config{Workers: 2, StoreDir: filepath.Join(dir, "runs")})
	base := listen(t, s)
	req := tinyRequest("acme", 73)
	first := submitDone(t, s, req)
	c, err := req.Campaign()
	if err != nil {
		t.Fatal(err)
	}
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	var oldest *Job
	var heap1k uint64
	for i := 1; i <= resubmits; i++ {
		j, herr := s.Submit(req, c)
		if herr != nil {
			t.Fatalf("resubmit %d: %d %s", i, herr.status, herr.msg)
		}
		if !j.cached {
			t.Fatalf("resubmit %d was not a cache hit", i)
		}
		if i == 1 {
			oldest = j
		}
		if i == 1000 {
			heap1k = liveHeap()
		}
	}
	heap10k := liveHeap()
	if n := len(s.Jobs("")); n > FinishedJobsKept {
		t.Errorf("job table holds %d jobs after %d resubmits, want at most %d", n, resubmits, FinishedJobsKept)
	}
	if heap10k > heap1k+heapSlack {
		t.Errorf("live heap grew from %d B at 1,000 resubmits to %d B at %d, more than %d B",
			heap1k, heap10k, resubmits, heapSlack)
	}
	t.Logf("live heap %d B at 1,000 resubmits, %d B at %d", heap1k, heap10k, resubmits)

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}
	for _, path := range []string{"/v1/scans/" + first.ID, "/v1/scans/" + oldest.ID + "/result"} {
		code, body := get(path)
		if code != http.StatusNotFound || !strings.Contains(string(body), "evicted") ||
			!strings.Contains(string(body), "/v1/results/{result_id}") {
			t.Errorf("GET %s: %d %s, want a 404 naming the eviction and the results route", path, code, body)
		}
	}
	if code, body := get("/v1/scans/j999999"); code != http.StatusNotFound || strings.Contains(string(body), "evicted") {
		t.Errorf("GET an id never admitted: %d %s, want a plain 404", code, body)
	}
	code, body := get("/v1/results/" + first.ResultID)
	if code != http.StatusOK {
		t.Fatalf("GET /v1/results/%s: %d %s", first.ResultID, code, body)
	}
	var m obs.Manifest
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	if want := first.result(); m.Captures != want.Captures || !reflect.DeepEqual(m.Detections, want.Detections) {
		t.Errorf("archived result: %d captures, %d detections; the job had %d and %d",
			m.Captures, len(m.Detections), want.Captures, len(want.Detections))
	}
	// A manifest beside the store, not in it, stays out of reach.
	if err := os.WriteFile(filepath.Join(dir, "outside.json"), body, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"000000000000", "..", "ABCDEF012345", "..%2Foutside"} {
		if code, _ := get("/v1/results/" + id); code != http.StatusNotFound {
			t.Errorf("GET /v1/results/%s: %d, want 404", id, code)
		}
	}

	st := s.Stats()
	if st.Submitted != resubmits+1 || st.Cached != resubmits || st.Completed != 1 {
		t.Errorf("stats %+v, want %d submitted, %d cached, 1 completed", st, resubmits+1, resubmits)
	}
	if got := st.Completed + st.Cached + st.Failed + st.Cancelled; got != st.Submitted {
		t.Errorf("job accounting: %d terminal + cached vs %d submitted", got, st.Submitted)
	}
}

// TestRetentionFollowsFinishOrder: the window evicts by finish order
// and never drops an unfinished job. A job held running while 100 cached
// hits finish stays listed, first, in submission order; once it
// finishes it is the newest entry of the window and stays while older
// cached hits go.
func TestRetentionFollowsFinishOrder(t *testing.T) {
	g := newGate()
	s := newServer(t, Config{Workers: 2,
		SceneFor: func(system string, seed int64, env bool) (*emsim.Scene, error) {
			sc, err := defaultSceneFor(system, seed, env)
			if err == nil && seed == 82 {
				sc.Add(g)
			}
			return sc, err
		}})
	// Registered after newServer's Close, so it runs first: a failure
	// while the job is held must not leave Close waiting on the gate.
	release := sync.OnceFunc(g.release)
	t.Cleanup(release)
	first := submitDone(t, s, tinyRequest("acme", 81))
	held := submitJob(t, s, tinyRequest("acme", 82))
	<-g.started
	for i := 0; i < 100; i++ {
		submitDone(t, s, tinyRequest("acme", 81))
	}
	listed := func() []*Job {
		jobs := s.Jobs("")
		for i := 1; i < len(jobs); i++ {
			if jobs[i-1].seq >= jobs[i].seq {
				t.Fatalf("listing out of submission order: %s before %s", jobs[i-1].ID, jobs[i].ID)
			}
		}
		return jobs
	}
	jobs := listed()
	if len(jobs) != FinishedJobsKept+1 || jobs[0] != held {
		t.Fatalf("listing holds %d jobs starting %s, want the running %s and %d finished ones",
			len(jobs), jobs[0].ID, held.ID, FinishedJobsKept)
	}
	if _, ok := s.Job(first.ID); ok {
		t.Errorf("the first finished job %s outlived %d later ones", first.ID, 100)
	}
	release()
	waitJob(t, held)
	jobs = listed()
	if len(jobs) != FinishedJobsKept || jobs[0] != held {
		t.Errorf("after it finished: %d jobs starting %s, want %d starting %s",
			len(jobs), jobs[0].ID, FinishedJobsKept, held.ID)
	}
}

// TestJobTableConcurrentEviction drives the job table from several
// goroutines at once: cached hits that evict on every submit, rendered
// jobs finishing through terminate, and listings, lookups and cancels of
// ids that may be gone. Afterwards the table holds at most the window,
// every job in it is finished, and the counters balance.
func TestJobTableConcurrentEviction(t *testing.T) {
	s := newServer(t, Config{Workers: 2, MaxActive: 2})
	for seed := int64(91); seed < 93; seed++ {
		submitDone(t, s, tinyRequest("acme", seed))
	}
	const goroutines, rounds = 4, 100
	var wg sync.WaitGroup
	var fresh []*Job
	var freshMu sync.Mutex
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				req := tinyRequest("acme", 91+int64(i%2))
				if i%40 == 0 {
					req = tinyRequest(fmt.Sprintf("fresh-%d", g), 100+int64(g*rounds+i))
				}
				c, err := req.Campaign()
				if err != nil {
					t.Error(err)
					return
				}
				j, herr := s.Submit(req, c)
				if herr != nil {
					t.Errorf("submit: %d %s", herr.status, herr.msg)
					return
				}
				if !j.cached {
					freshMu.Lock()
					fresh = append(fresh, j)
					freshMu.Unlock()
				}
				for _, listed := range s.Jobs("") {
					_ = listed.status()
				}
				earlier := jobID(max(1, j.seq-FinishedJobsKept))
				s.Job(earlier)
				s.Cancel(earlier)
				s.evicted(earlier)
			}
		}(g)
	}
	wg.Wait()
	for _, j := range fresh {
		waitJob(t, j)
	}
	jobs := s.Jobs("")
	if len(jobs) > FinishedJobsKept {
		t.Errorf("job table holds %d jobs, want at most %d", len(jobs), FinishedJobsKept)
	}
	for _, j := range jobs {
		if !terminal(j.stateNow()) {
			t.Errorf("job %s still %s", j.ID, j.stateNow())
		}
	}
	st := s.Stats()
	if got := st.Completed + st.Cached + st.Failed + st.Cancelled; got != st.Submitted || st.Submitted != goroutines*rounds+2 {
		t.Errorf("stats %+v: %d terminal + cached, want %d submitted", st, got, goroutines*rounds+2)
	}
}

// TestServiceLatencyLayers: every completed, rendered job observes its
// queue wait, run and archive write once each in /metrics, and the three
// sum to its submitted → finished interval within 5%. A cached hit
// observes none of them.
func TestServiceLatencyLayers(t *testing.T) {
	names := []string{"fase_service_queue_wait_seconds", "fase_service_run_seconds", "fase_service_archive_seconds"}
	before := obs.Default.Snapshot().Histograms
	s := newServer(t, Config{Workers: 2, MaxActive: 1})
	var jobs []*Job
	for seed := int64(74); seed < 78; seed++ {
		jobs = append(jobs, submitJob(t, s, tinyRequest("acme", seed)))
	}
	for _, j := range jobs {
		if st := waitJob(t, j); st.State != StateDone {
			t.Fatalf("job %s finished %s: %s", j.ID, st.State, st.Error)
		}
	}
	if again := submitDone(t, s, tinyRequest("acme", 74)); !again.cached {
		t.Fatal("resubmit was not a cache hit")
	}
	after := obs.Default.Snapshot().Histograms
	completed := s.Stats().Completed
	for _, name := range names {
		if n := after[name].Count - before[name].Count; n != completed {
			t.Errorf("%s observed %d jobs, want the %d completed", name, n, completed)
		}
	}
	for _, j := range jobs {
		wait, run, archive := j.layers()
		j.mu.Lock()
		total := j.finished.Sub(j.submitted)
		j.mu.Unlock()
		sum := wait + run + archive
		if wait < 0 || run <= 0 || archive <= 0 || math.Abs(float64(sum-total)) > 0.05*float64(total) {
			t.Errorf("job %s: queue wait %v + run %v + archive %v = %v, submitted → finished %v",
				j.ID, wait, run, archive, sum, total)
		}
	}
}
