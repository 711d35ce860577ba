package main

import (
	"encoding/json"
	"os"
	"testing"
)

// BENCHMARK.json at the repository root declares the workloads and the
// metrics this program prints; the two lists must agree.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var bj struct {
		Workloads []def `json:"workloads"`
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i])
		}
	}
	for _, c := range []struct {
		what string
		json []def
		prog []metricDef
	}{{"end_to_end", bj.EndToEnd, endToEnd}, {"per_layer", bj.PerLayer, perLayer}} {
		if len(c.json) != len(c.prog) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", c.what, len(c.json), len(c.prog))
		}
		for i, d := range c.json {
			if d.Name != c.prog[i].name || d.Unit != c.prog[i].unit {
				t.Errorf("%s %d: %s [%s] in BENCHMARK.json, %s [%s] in the program",
					c.what, i, d.Name, d.Unit, c.prog[i].name, c.prog[i].unit)
			}
		}
	}
}
