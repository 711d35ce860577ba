package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"
)

// TestMain lets the test binary act as the benchmark itself, so the
// determinism test can run it in fresh processes.
func TestMain(m *testing.M) {
	if os.Getenv("FASEBENCH_MAIN") == "1" {
		os.Exit(run(os.Args[1:], os.Stdout))
	}
	os.Exit(m.Run())
}

// runBench runs one short benchmark in a fresh process and returns the
// digest of its generated inputs and its result.
func runBench(t *testing.T, dir, wl string, seed int64, trace int) (string, result) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "--workload", wl, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", "1", "--trace", strconv.Itoa(trace))
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "FASEBENCH_MAIN=1")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("%s seed %d trace %d: %v\n%s", wl, seed, trace, err, out)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var digest string
	for _, l := range lines {
		if d, ok := strings.CutPrefix(l, "inputs "); ok {
			digest = d
		}
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not a result: %v", wl, err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("%s seed %d trace %d: %d of %d ops failed", wl, seed, trace, res.Failed, res.Attempted)
	}
	return digest, res
}

// Counts and quality are a pure function of the seed: two runs with one
// seed agree exactly, and another seed generates other inputs. The
// retained heap agrees to within a few KB only: it also holds runtime
// structures whose number depends on scheduling, such as a record per OS
// thread the runtime ever started (reserveGoroutines takes the largest,
// goroutine descriptors, out of play).
func TestDeterministicPerSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark fifteen times")
	}
	exact := []string{"success_frac", "recall", "precision", "captures_per_detection"}
	counts := []string{"specan.captures", "core.adaptive.recon_captures", "core.adaptive.refine_captures",
		"core.adaptive.windows_refined", "core.adaptive.windows_abandoned", "core.adaptive.windows_skipped",
		"core.adaptive.useful_capture_frac", "service.shards_per_job", "service.cached_frac", "service.rejected"}
	for _, wl := range workloads {
		t.Run(wl, func(t *testing.T) {
			dir := t.TempDir()
			same := func(a, b result, names []string) {
				for _, name := range names {
					if a.Metrics[name] != b.Metrics[name] {
						t.Errorf("%s differs between runs with one seed: %v vs %v", name, a.Metrics[name], b.Metrics[name])
					}
				}
				if a.Attempted != b.Attempted {
					t.Errorf("attempted %d vs %d", a.Attempted, b.Attempted)
				}
			}
			in1, r1 := runBench(t, dir, wl, 7, 0)
			in2, r2 := runBench(t, dir, wl, 7, 0)
			if in1 == "" || in1 != in2 {
				t.Errorf("one seed generated different inputs: %q vs %q", in1, in2)
			}
			same(r1, r2, exact)
			if h1, h2 := r1.Metrics["retained_heap_mb"].Value, r2.Metrics["retained_heap_mb"].Value; math.Abs(h1-h2) > 0.05*h1 {
				t.Errorf("retained_heap_mb differs by more than 5%% between runs with one seed: %v vs %v", h1, h2)
			}
			_, t1 := runBench(t, dir, wl, 7, 1)
			_, t2 := runBench(t, dir, wl, 7, 1)
			same(t1, t2, counts)
			if in3, _ := runBench(t, dir, wl, 8, 0); in3 == in1 {
				t.Errorf("seeds 7 and 8 generated the same inputs")
			}
		})
	}
}
