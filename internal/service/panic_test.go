package service

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"fase/internal/core"
	"fase/internal/emsim"
	"fase/internal/machine"
	"fase/internal/obs"
)

// bomb is a deliberately faulty scene component: it panics in every
// capture it renders.
type bomb struct{}

func (bomb) Name() string                        { return "bomb" }
func (bomb) Render([]complex128, *emsim.Context) { panic("bomb: render failed") }

// TestServicePanicIsolation injects a replicable fault — a scene
// component that panics on render, planted on one system — and requires
// the service to contain it: a sharded and an adaptive job on that
// system both end failed with the panic value in their error and the
// stack in their journal; a concurrent job from another tenant completes
// with the same detections as a direct run; the failed jobs' quota slots
// and workers keep serving the tenant's next jobs; and Close leaves no
// goroutines behind.
func TestServicePanicIsolation(t *testing.T) {
	before := runtime.NumGoroutine()
	s, err := New(Config{
		Workers: 2, MaxActive: 3, TenantQuota: 2, StoreDir: t.TempDir(),
		SceneFor: func(system string, seed int64, env bool) (*emsim.Scene, error) {
			scene, err := defaultSceneFor(system, seed, env)
			if err == nil && system == "p3m-laptop" {
				scene.Add(bomb{})
			}
			return scene, err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	submit := func(req *ScanRequest) *Job {
		t.Helper()
		c, err := req.Campaign()
		if err != nil {
			t.Fatal(err)
		}
		j, herr := s.Submit(req, c)
		if herr != nil {
			t.Fatalf("submit %s/%s: %v", req.Tenant, req.System, herr.msg)
		}
		return j
	}
	wait := func(j *Job) ScanStatus {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for !terminal(j.stateNow()) {
			if time.Now().After(deadline) {
				t.Fatalf("job %s never finished", j.ID)
			}
			time.Sleep(2 * time.Millisecond)
		}
		return j.status()
	}

	sharded := tinyRequest("victim", 5)
	sharded.System = "p3m-laptop"
	adaptive := tinyRequest("victim", 6)
	adaptive.System = "p3m-laptop"
	adaptive.Scan.Adaptive, adaptive.Scan.Budget, adaptive.Scan.MaxFFT = true, 40, 256
	healthy := tinyRequest("bystander", 7)
	jobs := []*Job{submit(sharded), submit(adaptive), submit(healthy)}

	for _, j := range jobs[:2] {
		st := wait(j)
		if st.State != StateFailed || !strings.Contains(st.Error, "bomb: render failed") {
			t.Errorf("job %s on the faulty system ended %s (%q), want failed with the panic value",
				j.ID, st.State, st.Error)
		}
		var panics []obs.Event
		for _, e := range j.runNow().Journal.CanonicalEvents() {
			if e.Kind == obs.EventPanic {
				panics = append(panics, e)
			}
		}
		if len(panics) != 1 || !strings.Contains(panics[0].Stack, "bomb.Render") {
			t.Errorf("job %s journal holds %d panic events, want one whose stack reaches bomb.Render: %+v",
				j.ID, len(panics), panics)
		}
	}

	// The bystander's result is untouched by its neighbours' faults.
	if st := wait(jobs[2]); st.State != StateDone {
		t.Fatalf("bystander job ended %s: %s", st.State, st.Error)
	}
	c, err := healthy.Campaign()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := machine.Lookup(healthy.System)
	if err != nil {
		t.Fatal(err)
	}
	run := obs.NewRun()
	if _, err := (&core.Runner{Scene: sys.Scene(c.Seed, healthy.Environment), Obs: run}).RunE(c); err != nil {
		t.Fatal(err)
	}
	if got, want := jobs[2].result().Detections, run.Manifest().Detections; !reflect.DeepEqual(got, want) {
		t.Errorf("bystander detections differ from a direct run:\nservice %+v\ndirect  %+v", got, want)
	}

	// Both quota slots came back, and the workers that recovered the
	// panics still render.
	for _, seed := range []int64{8, 9} {
		if st := wait(submit(tinyRequest("victim", seed))); st.State != StateDone {
			t.Errorf("victim's follow-up job ended %s: %s", st.State, st.Error)
		}
	}
	if st := s.Stats(); st.Failed != 2 || st.Completed != 3 || st.Running != 0 {
		t.Errorf("stats %+v, want 2 failed, 3 completed, none running", st)
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		t.Fatalf("goroutine leak after Close: %d before, %d after\n%s", before, n, buf)
	}
}
