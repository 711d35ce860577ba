// Command emspec renders a simulated system's EM spectrum over a band and
// writes it as CSV (frequency, dBm) — the raw-material view behind the
// paper's figures.
//
// Usage:
//
//	emspec [-system NAME] [-f1 Hz] [-f2 Hz] [-fres Hz] [-pair X/Y]
//	       [-falt Hz] [-nearfield] [-o FILE]
//
// With -pair, the X/Y alternation micro-benchmark runs during the
// measurement; without it the machine idles.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"

	"fase/internal/activity"
	"fase/internal/dsp/spectral"
	"fase/internal/machine"
	"fase/internal/microbench"
	"fase/internal/specan"
)

func main() {
	sysName := flag.String("system", "i7-desktop", "system model")
	f1 := flag.Float64("f1", 100e3, "start frequency, Hz")
	f2 := flag.Float64("f2", 4e6, "stop frequency, Hz")
	fres := flag.Float64("fres", 50, "resolution bandwidth, Hz")
	pair := flag.String("pair", "", "optional X/Y alternation pair, e.g. LDM/LDL1")
	falt := flag.Float64("falt", 43.3e3, "alternation frequency when -pair is set, Hz")
	seed := flag.Int64("seed", 1, "random seed")
	env := flag.Bool("environment", true, "include the metropolitan RF environment")
	near := flag.Bool("nearfield", false, "use the near-field localization probe (+30 dB on system emitters)")
	outPath := flag.String("o", "", "output CSV path (default stdout)")
	flag.Parse()

	sys, err := machine.Lookup(*sysName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	an := specan.New(specan.Config{Fres: *fres})
	req := specan.Request{
		Scene: sys.Scene(*seed, *env),
		F1:    *f1, F2: *f2, Seed: *seed,
		NearField: *near,
	}
	if *pair != "" {
		x, y, err := activity.ParsePair(*pair)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		req.Activity = microbench.Generate(microbench.Config{
			X: x, Y: y, FAlt: *falt,
			Jitter: microbench.DefaultJitter(), Seed: *seed,
		}, an.TotalDuration(*f1, *f2)+0.05)
	}
	s := an.Sweep(req)

	var w *bufio.Writer
	if *outPath == "" {
		w = bufio.NewWriterSize(os.Stdout, 1<<16)
	} else {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		w = bufio.NewWriterSize(f, 1<<16)
	}
	defer w.Flush()
	if err := writeCSV(w, s); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// writeCSV streams the spectrum as freq_hz,dbm rows. The byte format is
// pinned by the golden-file test (testdata/*.csv): downstream tooling
// diffs recorded scans, so refactors must keep the output bit-identical.
// strconv.AppendFloat produces the same bytes fmt's %.1f/%.2f would (fmt
// formats floats through it) without the interface boxing and verb
// parsing, which matters at ~100k rows per scan.
func writeCSV(w io.Writer, s *spectral.Spectrum) error {
	if _, err := fmt.Fprintln(w, "freq_hz,dbm"); err != nil {
		return err
	}
	buf := make([]byte, 0, 64)
	for i := 0; i < s.Bins(); i++ {
		buf = strconv.AppendFloat(buf[:0], s.Freq(i), 'f', 1, 64)
		buf = append(buf, ',')
		buf = strconv.AppendFloat(buf, s.DBm(i), 'f', 2, 64)
		buf = append(buf, '\n')
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}
