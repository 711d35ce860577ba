// Command fase runs the FASE methodology against a simulated computer
// system and reports the activity-modulated carriers it finds.
//
// Usage:
//
//	fase [-system NAME] [-pair X/Y] [-f1 Hz] [-f2 Hz] [-fres Hz]
//	     [-falt Hz] [-fdelta Hz] [-seed N] [-classify] [-environment=true]
//	     [-adaptive -budget N [-recon-fres Hz]]
//	     [-metrics-out FILE] [-trace-out FILE] [-manifest-out FILE]
//	     [-pprof ADDR]
//
// Examples:
//
//	fase -system i7-desktop -pair LDM/LDL1 -f1 100e3 -f2 4e6
//	fase -system turion-laptop -classify
//	fase -adaptive -budget 120 -manifest-out run.json
//	fase -manifest-out run.json -trace-out trace.json -pprof localhost:6060
//	fase -events-out events.jsonl -runs-dir runs/
//	fase -validate-manifest run.json
//	fase -validate-events events.jsonl
//	fase runs -dir runs/
//	fase diff -dir runs/ @1 @0
//	fase serve -addr 127.0.0.1:8631 -runs-dir runs/
//	fase -verify -verify-baseline VERIFY_baseline.json
//	fase -verify -verify-scenarios 10 -verify-out report.json -verify-roc-csv roc.csv
//	fase -verify -verify-budget -verify-out report.json
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"fase/internal/activity"
	"fase/internal/core"
	"fase/internal/machine"
	"fase/internal/obs"
	"fase/internal/runstore"
)

func main() {
	os.Exit(run())
}

func run() int {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "runs":
			return runRuns(os.Args[2:])
		case "diff":
			return runDiff(os.Args[2:])
		case "serve":
			return runServe(os.Args[2:])
		}
	}
	sysName := flag.String("system", "i7-desktop", "system model to measure (see -list)")
	list := flag.Bool("list", false, "list available system models and exit")
	pair := flag.String("pair", "LDM/LDL1", "X/Y activity pair for the alternation micro-benchmark")
	f1 := flag.Float64("f1", 100e3, "scan start frequency, Hz")
	f2 := flag.Float64("f2", 4e6, "scan stop frequency, Hz")
	fres := flag.Float64("fres", 50, "resolution bandwidth, Hz")
	falt := flag.Float64("falt", 43.3e3, "first alternation frequency, Hz")
	fdelta := flag.Float64("fdelta", 0.5e3, "alternation frequency step, Hz")
	seed := flag.Int64("seed", 1, "random seed")
	env := flag.Bool("environment", true, "include the metropolitan RF environment")
	adaptive := flag.Bool("adaptive", false, "use the budgeted coarse-to-fine scan planner (requires -budget)")
	budget := flag.Int("budget", 0, "capture budget for -adaptive (total analyzer captures the scan may spend)")
	reconFres := flag.Float64("recon-fres", 0, "recon-pass resolution bandwidth for -adaptive, Hz (0 = 8×fres)")
	classify := flag.Bool("classify", false, "also run the on-chip pair (LDL2/LDL1) and classify carriers")
	metricsOut := flag.String("metrics-out", "", "write a JSON snapshot of process metrics to FILE on exit")
	traceOut := flag.String("trace-out", "", "write a Chrome trace_event JSON of the campaign's stages, sweeps and captures, laid out from its event journal, to FILE (load in chrome://tracing or Perfetto)")
	manifestOut := flag.String("manifest-out", "", "write the primary campaign's run manifest (JSON) to FILE")
	pprofAddr := flag.String("pprof", "", "serve live pprof + /metrics + /progress + /events on ADDR (e.g. localhost:6060) while running")
	eventsOut := flag.String("events-out", "", "write the campaign's event journal (JSONL) to FILE")
	runsDir := flag.String("runs-dir", "", "archive the run manifest into the run-history store at DIR")
	linger := flag.Duration("linger", 0, "keep the -pprof debug server up for DURATION after the scan finishes")
	validateManifest := flag.String("validate-manifest", "", "validate a run-manifest FILE against the schema and exit")
	validateEvents := flag.String("validate-events", "", "validate an event-journal FILE against the schema and exit")
	verifyMode := flag.Bool("verify", false, "run the ground-truth accuracy harness instead of a scan")
	vf := verifyFlags{
		scenarios:   flag.Int("verify-scenarios", 0, "accuracy corpus size (0 = default 60)"),
		seed:        flag.Int64("verify-seed", 0, "accuracy corpus seed (0 = default 1)"),
		faults:      flag.Bool("verify-faults", true, "also run the fault-injected corpus pass"),
		budget:      flag.Bool("verify-budget", false, "also run the adaptive recall-vs-budget pass"),
		out:         flag.String("verify-out", "", "write the accuracy report (JSON) to FILE"),
		rocCSV:      flag.String("verify-roc-csv", "", "write the full ROC sweep (CSV) to FILE"),
		baseline:    flag.String("verify-baseline", "", "gate the run against a committed baseline FILE (exit 1 on regression)"),
		baselineOut: flag.String("verify-baseline-out", "", "write this run's metrics as a new baseline FILE"),
	}
	flag.Parse()
	vf.manifestOut = manifestOut

	if *verifyMode {
		return runVerify(vf)
	}
	if *validateManifest != "" {
		if err := obs.ValidateManifestFile(*validateManifest); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Printf("%s: valid %s\n", *validateManifest, obs.ManifestSchema)
		return 0
	}
	if *validateEvents != "" {
		if err := obs.ValidateJournalFile(*validateEvents); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Printf("%s: valid %s\n", *validateEvents, obs.JournalSchema)
		return 0
	}
	if *list {
		for _, n := range machine.Names() {
			sys, _ := machine.Lookup(n)
			fmt.Printf("%-15s %s (%d emitters)\n", n, sys.Name, len(sys.Emitters))
		}
		return 0
	}
	sys, err := machine.Lookup(*sysName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	x, y, err := activity.ParsePair(*pair)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	runner := &core.Runner{Scene: sys.Scene(*seed, *env)}
	// The primary campaign carries the observability run; the optional
	// classification pass runs uninstrumented.
	instrumented := *manifestOut != "" || *traceOut != "" ||
		*eventsOut != "" || *runsDir != "" || *pprofAddr != ""
	if instrumented {
		runner.Obs = obs.NewRun()
		// The trace is laid out from the journal.
		runner.Obs.Trace = *traceOut != ""
		if *eventsOut != "" || *traceOut != "" || *pprofAddr != "" {
			runner.Obs.Journal = obs.NewJournal()
		}
	}
	if *pprofAddr != "" {
		ds, err := obs.Serve(*pprofAddr, obs.Default, runner.Obs)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer ds.Close()
		fmt.Printf("pprof: http://%s/debug/pprof/  metrics: http://%s/metrics  progress: http://%s/progress  events: http://%s/events\n",
			ds.Addr, ds.Addr, ds.Addr, ds.Addr)
	}
	campaign := core.Campaign{
		F1: *f1, F2: *f2, Fres: *fres,
		FAlt1: *falt, FDelta: *fdelta,
		X: x, Y: y, Seed: *seed,
	}
	if *adaptive || *budget != 0 {
		campaign.Budget = *budget
		campaign.Adaptive = &core.AdaptivePlan{ReconFres: *reconFres}
	}
	fmt.Printf("FASE scan of %s, %v/%v, %.3g–%.3g MHz at %.0f Hz RBW\n",
		sys.Name, x, y, *f1/1e6, *f2/1e6, *fres)
	if campaign.Adaptive != nil {
		fmt.Printf("adaptive plan: budget %d captures\n", campaign.Budget)
	}
	start := time.Now()
	res, err := runner.RunE(campaign)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	printResult(res)

	if *classify {
		campaign2 := campaign
		campaign2.X, campaign2.Y = activity.LDL2, activity.LDL1
		fmt.Printf("\nClassification pass (%v/%v):\n", campaign2.X, campaign2.Y)
		// The manifest is finalized for the primary campaign; detach it so
		// the classification pass doesn't mix its timings in.
		classifier := &core.Runner{Scene: runner.Scene}
		res2, err := classifier.RunE(campaign2)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		printResult(res2)
		fmt.Println("\nCarrier classification:")
		for _, cc := range core.Classify(res, res2) {
			fmt.Printf("  %10.2f kHz  %-16s (pairs: %s)\n",
				cc.Freq/1e3, cc.Class, strings.Join(cc.Pairs, ", "))
		}
	}
	fmt.Printf("\nelapsed %.2fs wall; simulated analyzer time %.2fs\n",
		time.Since(start).Seconds(), res.SimulatedSeconds)

	ok := true
	if *manifestOut != "" {
		if m := runner.Obs.Manifest(); m != nil {
			if err := m.WriteFile(*manifestOut); err != nil {
				fmt.Fprintln(os.Stderr, err)
				ok = false
			}
		}
	}
	if *traceOut != "" {
		if err := writeTrace(*traceOut, runner.Obs); err != nil {
			fmt.Fprintln(os.Stderr, err)
			ok = false
		}
	}
	if *metricsOut != "" {
		if err := writeMetrics(*metricsOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
			ok = false
		}
	}
	if *eventsOut != "" {
		if err := runner.Obs.Journal.WriteJSONLFile(*eventsOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
			ok = false
		}
	}
	if *runsDir != "" {
		if err := archiveRun(*runsDir, runner.Obs); err != nil {
			fmt.Fprintln(os.Stderr, err)
			ok = false
		}
	}
	if *linger > 0 && *pprofAddr != "" {
		fmt.Printf("lingering %s for debug-server clients...\n", *linger)
		time.Sleep(*linger)
	}
	if !ok {
		return 1
	}
	return 0
}

// archiveRun stores the finished run's manifest in the history store.
func archiveRun(dir string, run *obs.Run) error {
	m := run.Manifest()
	if m == nil {
		return fmt.Errorf("runstore: no manifest to archive (campaign did not finish)")
	}
	store, err := runstore.Open(dir)
	if err != nil {
		return err
	}
	e, err := store.Add(m)
	if err != nil {
		return err
	}
	fmt.Printf("archived run %s -> %s\n", e.ID, e.Path)
	return nil
}

// runRuns implements `fase runs -dir DIR`: list the archived runs,
// newest first.
func runRuns(args []string) int {
	fs := flag.NewFlagSet("fase runs", flag.ExitOnError)
	dir := fs.String("dir", "runs", "run-history store directory")
	_ = fs.Parse(args)
	store, err := runstore.Open(*dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	entries, skipped, err := store.List()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	for _, path := range skipped {
		fmt.Fprintf(os.Stderr, "warning: skipped unreadable run manifest %s\n", path)
	}
	if len(entries) == 0 {
		fmt.Printf("no archived runs in %s\n", *dir)
		return 0
	}
	fmt.Printf("%-4s %-14s %-20s %s\n", "ref", "id", "created", "path")
	for i, e := range entries {
		fmt.Printf("@%-3d %-14s %-20s %s\n", i, e.ID,
			time.Unix(e.CreatedUnix, 0).UTC().Format("2006-01-02T15:04:05Z"), e.Path)
	}
	return 0
}

// runDiff implements `fase diff -dir DIR A B`: resolve two run
// references (file path, @N, or id prefix) and print their delta.
func runDiff(args []string) int {
	fs := flag.NewFlagSet("fase diff", flag.ExitOnError)
	dir := fs.String("dir", "runs", "run-history store directory")
	_ = fs.Parse(args)
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: fase diff [-dir DIR] <runA> <runB>")
		return 2
	}
	store, err := runstore.Open(*dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	a, aID, err := store.Resolve(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	b, bID, err := store.Resolve(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if err := runstore.Compare(a, b, aID, bID).WriteText(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}

func writeTrace(path string, run *obs.Run) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := run.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeMetrics(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.Default.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func printResult(res *core.Result) {
	if len(res.Detections) == 0 {
		fmt.Println("  no activity-modulated carriers detected")
		return
	}
	fmt.Printf("  %-12s %-12s %-10s %-10s %s\n", "carrier kHz", "score", "mag dBm", "depth dB", "harmonics")
	for _, d := range res.Detections {
		fmt.Printf("  %-12.2f %-12.1f %-10.1f %-10.1f %v\n",
			d.Freq/1e3, d.Score, d.MagnitudeDBm, d.DepthDB, d.Harmonics)
	}
	fmt.Println("  harmonic sets:")
	for _, set := range core.GroupHarmonics(res.Detections) {
		fmt.Printf("    fundamental %10.2f kHz, %d member(s), orders %v\n",
			set.Fundamental/1e3, len(set.Members), set.Orders)
	}
}
