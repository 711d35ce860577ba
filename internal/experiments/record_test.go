//go:build !race

package experiments

import (
	"strings"
	"testing"

	"fase/internal/report"
)

// TestExperimentsRecord pins EXPERIMENTS.md's per-experiment record: every
// experiment at seed 1, rendered exactly as `go run ./cmd/experiments
// -seed 1` prints it. Any change to a table, note or claim verdict shows up
// as a failure naming the first differing line; review it, then regenerate
// the record with
//
//	UPDATE_GOLDEN=1 go test ./internal/experiments
//
// The test is left out of -race builds, where the 34 experiments take about
// a minute; the campaign runner and sweeps they drive are race-tested in
// their own packages.
func TestExperimentsRecord(t *testing.T) {
	var b strings.Builder
	for _, id := range IDs() {
		b.WriteString(report.Markdown(mustRun(t, id, Config{Seed: 1})))
	}
	checkRegion(t, "record", b.String())
}
