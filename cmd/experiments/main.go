// Command experiments regenerates the paper's figures and tables from the
// simulator and prints each experiment's markdown record: its tables,
// series summaries, notes and the paper's claims with their verdicts.
//
// Usage:
//
//	experiments [-seed N] [-csv DIR] [id ...]
//
// With no ids, every registered experiment runs in paper order, and the
// output at -seed 1 is EXPERIMENTS.md's per-experiment record byte for
// byte. Only the record goes to stdout; per-experiment timings and the
// files written go to stderr. With -csv, each experiment's series are
// written as CSV files into DIR.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"fase/internal/experiments"
	"fase/internal/report"
)

func main() {
	seed := flag.Int64("seed", 1, "random seed (campaigns are deterministic per seed)")
	csvDir := flag.String("csv", "", "directory to write per-experiment series CSVs")
	list := flag.Bool("list", false, "list experiment ids and exit")
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}
	ids := flag.Args()
	if len(ids) == 0 {
		ids = experiments.IDs()
	}
	for _, id := range ids {
		start := time.Now()
		out, err := experiments.Run(id, experiments.Config{Seed: *seed})
		if err != nil {
			fail(err)
		}
		fmt.Print(report.Markdown(out))
		fmt.Fprintf(os.Stderr, "%s: %s\n", id, time.Since(start).Round(time.Millisecond))
		if *csvDir != "" && len(out.Series) > 0 {
			path := filepath.Join(*csvDir, out.ID+".csv")
			if err := writeCSV(path, out.Series); err != nil {
				fail(err)
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", path)
		}
	}
}

// writeCSV writes series to path, creating its directory.
func writeCSV(path string, series []report.Series) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := report.WriteCSV(f, series); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
