// Command fasebench is the repository's end-to-end benchmark. One run
// executes one workload against the public APIs of core, specan, service
// and runstore, checks every output, and prints its metrics as the last
// line of standard output:
//
//	bash fasebench/run.sh --workload campaign --seed 1 --seconds 20 --trace 0
//
// Workloads: campaign (exhaustive scans of the built-in systems),
// adaptive-corpus (budgeted adaptive scans of the accuracy corpus) and
// service (batches of jobs submitted to `fase serve` over loopback
// HTTP). --trace 0 reports the end-to-end metrics; --trace 1 runs the
// same inputs with spans around every layer call and reports per-layer
// metrics. Every wall-clock timing has the share of CPU time the
// hypervisor stole removed, is divided by the run's calibration-kernel
// median and is multiplied by calib.RefSeconds (see package calib), so
// runs on a host whose speed drifts stay comparable. README.md in this
// directory documents the workloads, metrics and layer map.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"fase/fasebench/calib"
)

// workload is one benchmark workload: setup builds its inputs and runs
// one warm-up op per distinct geometry, measure runs the measured ops.
type workload interface {
	setup() error
	measure(b *bench) error
	close()
}

var workloads = []string{"campaign", "adaptive-corpus", "service"}

func newWorkload(name string, seed int64, traced bool, tmp string) (workload, error) {
	switch name {
	case "campaign":
		return &campaignWL{seed: seed}, nil
	case "adaptive-corpus":
		return &corpusWL{seed: seed}, nil
	case "service":
		return &serviceWL{traced: traced, tmp: tmp}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloads, ", "))
}

type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, perLayer those of a
// traced run; BENCHMARK.json lists the same names and units.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"throughput_ops_per_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"alloc_mb_per_op", "MB"},
	{"retained_heap_mb", "MB"},
	{"success_frac", "1"},
	{"recall", "1"},
	{"precision", "1"},
	{"captures_per_detection", "1"},
}

var perLayer = func() []metricDef {
	defs := []metricDef{
		{"core.plan.ms", "ms"},
		{"specan.sweep.ms", "ms"},
		{"specan.sweep.busy_ms", "ms"},
	}
	for _, name := range systemNames() {
		defs = append(defs, metricDef{"specan.sweep." + name + ".ms", "ms"})
	}
	return append(defs, []metricDef{
		{"specan.captures", "count/op"},
		{"core.reduce.ms", "ms"},
		{"emsim.render.us", "us"},
		{"dsp.periodogram.us", "us"},
		{"microbench.generate.ms", "ms"},
		{"core.adaptive.ms", "ms"},
		{"core.adaptive.recon_captures", "count/op"},
		{"core.adaptive.refine_captures", "count/op"},
		{"core.adaptive.windows_refined", "count/op"},
		{"core.adaptive.windows_abandoned", "count/op"},
		{"core.adaptive.windows_skipped", "count/op"},
		{"core.adaptive.useful_capture_frac", "1"},
		{"service.submit.ms", "ms"},
		{"service.queue_wait.ms", "ms"},
		{"service.run.ms", "ms"},
		{"service.poll.ms", "ms"},
		{"service.result.ms", "ms"},
		{"service.result.kb", "KiB"},
		{"service.shards_per_job", "1"},
		{"service.cached_frac", "1"},
		{"service.rejected", "count"},
		{"service.max_queue_depth", "count"},
		{"machine.scene.ms", "ms"},
		{"runstore.add.ms", "ms"},
		{"runstore.resolve.ms", "ms"},
		{"trace.op.ms", "ms"},
		{"trace.unattributed_frac", "1"},
		{"trace.overhead_frac", "1"},
	}...)
}()

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("fasebench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloads, ", "))
	seed := fs.Int64("seed", 1, "workload seed: the same seed generates the same inputs")
	seconds := fs.Int("seconds", 10, "run length on the reference host, seconds")
	trace := fs.Int("trace", 0, "1 runs traced and reports per-layer metrics")
	child := fs.Bool("setup-child", false, "time one cold set-up, print it and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "fasebench: need --seconds ≥ 1 and --trace 0|1")
		return 2
	}
	if _, err := newWorkload(*name, 0, false, ""); err != nil {
		fmt.Fprintln(os.Stderr, "fasebench:", err)
		return 2
	}
	// Everything the run writes stays under the checkout's build dir.
	tmp := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "fasebench:", err)
		return 1
	}
	if *child {
		if err := setupChild(stdout, *name, *seed, tmp); err != nil {
			fmt.Fprintln(os.Stderr, "fasebench: set-up:", err)
			return 1
		}
		return 0
	}
	res, err := measureRun(stdout, *name, *seed, *seconds, *trace == 1, tmp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fasebench:", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fasebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

// measureRun is one benchmark run: cold set-ups in fresh processes, then
// this process's own set-up, the measured ops, and the metrics.
func measureRun(stdout io.Writer, name string, seed int64, seconds int, traced bool, tmp string) (*result, error) {
	var colds []coldSetup
	if !traced {
		var err error
		if colds, err = coldSetups(name, seed); err != nil {
			return nil, err
		}
	}
	reserveGoroutines()
	w, err := newWorkload(name, seed, traced, tmp)
	if err != nil {
		return nil, err
	}
	defer w.close()
	b := newBench(seed, seconds, traced)
	t0 := time.Now()
	if err := w.setup(); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	ownSetup := time.Since(t0).Seconds()
	for i := 0; i < 5; i++ {
		b.idle()
	}
	if err := w.measure(b); err != nil {
		return nil, err
	}
	for i := 0; i < 5; i++ {
		b.idle()
	}
	retained := retainedHeapMB()
	runtime.KeepAlive(w)
	if b.cal.Len() == 0 || b.attempted == 0 || len(b.lat) == 0 {
		return nil, fmt.Errorf("no clean calibration sample or no completed op")
	}

	fmt.Fprintf(stdout, "fasebench workload=%s seed=%d seconds=%d trace=%v\n", name, seed, seconds, traced)
	fmt.Fprintf(stdout, "ops %d (failed %d, p90 valid: %v); k_run %.4f ms over %d samples (%d retaken), k_ref %.4f ms, stolen %.4f, scale %.4f\n",
		b.attempted, b.failed, len(b.lat) >= 100, b.cal.Median()*1e3, b.cal.Len(), b.cal.Retaken,
		calib.RefSeconds*1e3, b.steal.Frac(), b.scale())
	fmt.Fprintf(stdout, "inputs %x\n", b.inputs.Sum(nil))
	m := map[string]float64{}
	var defs []metricDef
	if traced {
		defs = perLayer
		if err := b.tr.write(filepath.Join(tmp, fmt.Sprintf("spans-%s-%d.json", name, seed))); err != nil {
			return nil, err
		}
		m = b.layer
		m["trace.overhead_frac"] = median(b.tlat)/median(b.lat) - 1
	} else {
		defs = endToEnd
		ops := float64(len(b.lat))
		var setups, rawSetups []float64
		for _, cs := range colds {
			setups = append(setups, cs.Seconds*(1-cs.Stolen)*calib.RefSeconds/cs.Kernel)
			rawSetups = append(rawSetups, cs.Seconds)
		}
		raw := map[string]float64{
			"setup_s":              median(rawSetups),
			"latency_p50_ms":       percentile(b.lat, 0.5) * 1e3,
			"latency_p90_ms":       percentile(b.lat, 0.9) * 1e3,
			"throughput_ops_per_s": ops / b.busy,
			"cpu_ms_per_op":        b.cpu / ops * 1e3,
		}
		fmt.Fprintf(stdout, "raw (not normalized): setup_s %.4f (fresh processes %.4f, this process %.4f) latency_p50_ms %.3f latency_p90_ms %.3f throughput_ops_per_s %.3f cpu_ms_per_op %.3f\n",
			raw["setup_s"], rawSetups, ownSetup, raw["latency_p50_ms"], raw["latency_p90_ms"],
			raw["throughput_ops_per_s"], raw["cpu_ms_per_op"])
		m["setup_s"] = median(setups)
		m["latency_p50_ms"] = raw["latency_p50_ms"] * b.scale()
		m["latency_p90_ms"] = raw["latency_p90_ms"] * b.scale()
		m["throughput_ops_per_s"] = raw["throughput_ops_per_s"] / b.scale()
		m["cpu_ms_per_op"] = raw["cpu_ms_per_op"] * b.cal.Scale()
		m["alloc_mb_per_op"] = float64(b.alloc) / ops / 1e6
		m["retained_heap_mb"] = retained
		m["success_frac"] = float64(b.attempted-b.failed) / float64(b.attempted)
		m["recall"] = b.q.recall()
		m["precision"] = b.q.precision()
		m["captures_per_detection"] = b.q.capturesPerDetection()
	}
	res := &result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed,
		Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v := m[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return res, nil
}

// coldSetup is one fresh process's set-up time, with the stolen share
// of its window and its own kernel median, which normalize it.
type coldSetup struct {
	Seconds float64 `json:"setup_s"`
	Stolen  float64 `json:"stolen"`
	Kernel  float64 `json:"k_s"`
}

// setupChild times one cold set-up of the workload in this fresh
// process, bracketed by calibration samples.
func setupChild(stdout io.Writer, name string, seed int64, tmp string) error {
	cal := calib.NewSampler(16)
	for i := 0; i < 5; i++ {
		cal.Sample()
	}
	w, err := newWorkload(name, seed, false, tmp)
	if err != nil {
		return err
	}
	defer w.close()
	var steal calib.StealMeter
	steal.Start()
	t0 := time.Now()
	if err := w.setup(); err != nil {
		return err
	}
	d := time.Since(t0).Seconds()
	steal.Stop()
	for i := 0; i < 5; i++ {
		cal.Sample()
	}
	if cal.Len() == 0 {
		return fmt.Errorf("no clean calibration sample")
	}
	return json.NewEncoder(stdout).Encode(coldSetup{Seconds: d, Stolen: steal.Frac(), Kernel: cal.Median()})
}

// coldSetupReps is how many fresh processes time a cold set-up in an
// untraced run; setup_s is the median of their normalized times.
const coldSetupReps = 7

// coldSetups runs coldSetupReps set-ups, each in a fresh process of this
// binary, one after another. A set-up is one cold event per process —
// lazy caches, page faults, first-use allocation — so a single one does
// not repeat; the median of several does.
func coldSetups(name string, seed int64) ([]coldSetup, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []coldSetup
	for i := 0; i < coldSetupReps; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		cmd := exec.CommandContext(ctx, exe, "--setup-child", "--workload", name,
			"--seed", strconv.FormatInt(seed, 10))
		cmd.Stderr = os.Stderr
		data, err := cmd.Output()
		cancel()
		if err != nil {
			return nil, fmt.Errorf("cold set-up %d: %w", i, err)
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		var cs coldSetup
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &cs); err != nil || cs.Kernel <= 0 {
			return nil, fmt.Errorf("cold set-up %d: bad report %q", i, data)
		}
		out = append(out, cs)
	}
	return out, nil
}
