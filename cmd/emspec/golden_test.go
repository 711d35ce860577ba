package main

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"fase/internal/activity"
	"fase/internal/machine"
	"fase/internal/specan"
)

// TestScanCSVGolden pins the recorded scan of every registry system to a
// committed golden CSV — until now the five scans were only byte-identical
// across refactors by convention. The goldens cover the whole chain the
// CLI exercises: scene construction, the planned sweep, amplitude
// calibration, and writeCSV's exact float formatting. The idle scans never
// read an activity trace, so one more golden scans the i7 desktop under
// the LDM/LDL1 alternation that -pair runs (the -falt default), through
// the trace main builds (alternation).
//
// The pinned bytes depend on the floating-point contract of the render
// path (the equivalence suites guarantee culled/unculled and parallel
// renders are bit-identical, and Go's math library is reproducible across
// platforms for these operations). A deliberate physics or calibration
// change regenerates them with:
//
//	UPDATE_GOLDEN=1 go test ./cmd/emspec
func TestScanCSVGolden(t *testing.T) {
	names := make([]string, 0, 5)
	for name := range machine.Registry() {
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) != 5 {
		t.Fatalf("registry has %d systems, want 5: %v", len(names), names)
	}
	type scan struct{ name, system, pair string }
	scans := make([]scan, 0, len(names)+1)
	for _, name := range names {
		scans = append(scans, scan{name: name, system: name})
	}
	scans = append(scans, scan{name: "i7-desktop-LDM-LDL1", system: "i7-desktop", pair: "LDM/LDL1"})
	for _, sc := range scans {
		t.Run(sc.name, func(t *testing.T) {
			sys, err := machine.Lookup(sc.system)
			if err != nil {
				t.Fatal(err)
			}
			// The regulator band at a coarse RBW keeps each golden small
			// (600 rows) while still crossing segment and calibration
			// logic; seed 1 and the full environment match the CLI
			// defaults.
			an := specan.New(specan.Config{Fres: 500})
			req := specan.Request{
				Scene: sys.Scene(1, true),
				F1:    250e3, F2: 550e3, Seed: 1,
			}
			if sc.pair != "" {
				x, y, err := activity.ParsePair(sc.pair)
				if err != nil {
					t.Fatal(err)
				}
				req.Activity = alternation(an, req.F1, req.F2, x, y, 43.3e3, req.Seed)
			}
			s := an.Sweep(req)
			var buf bytes.Buffer
			if err := writeCSV(&buf, s); err != nil {
				t.Fatal(err)
			}
			golden := filepath.Join("testdata", sc.name+".csv")
			if os.Getenv("UPDATE_GOLDEN") != "" {
				if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (regenerate with UPDATE_GOLDEN=1)", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				got := buf.Bytes()
				line, col := diffPos(got, want)
				t.Fatalf("scan CSV differs from %s at line %d, byte %d (got %d bytes, want %d); regenerate deliberately with UPDATE_GOLDEN=1",
					golden, line, col, len(got), len(want))
			}
		})
	}
}

// diffPos locates the first differing byte as a 1-based line and offset,
// so a golden mismatch reports where the scan diverged instead of dumping
// 600 rows.
func diffPos(got, want []byte) (line, off int) {
	n := len(got)
	if len(want) < n {
		n = len(want)
	}
	i := 0
	for i < n && got[i] == want[i] {
		i++
	}
	return bytes.Count(got[:i], []byte{'\n'}) + 1, i
}
