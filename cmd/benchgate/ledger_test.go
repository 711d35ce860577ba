package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// ledger is BENCH_trajectory.json: one entry per performance change, each
// holding the interleaved base/change samples of every benchmark workload
// and end-to-end metric in benchgate's speed-row shape. It is a record,
// not a baseline: no gate reads a number from it.
type ledger struct {
	Schema  string        `json:"schema"`
	Entries []ledgerEntry `json:"entries"`
}

// ledgerEntry is one measured change. Commit is the measured commit, or
// "self" for the commit that adds the entry (git log of the file finds
// it); Parent is the commit it was measured against.
type ledgerEntry struct {
	Name   string     `json:"name"`
	Commit string     `json:"commit"`
	Parent string     `json:"parent"`
	Host   string     `json:"host"`
	Method string     `json:"method"`
	Claim  *claim     `json:"claim,omitempty"`
	Rows   []speedRow `json:"rows"`
}

// claim is the gain an entry claims on one row: the change is better in
// at least nine of ten pairs, and its median beats the base median by
// more than the base's interquartile range.
type claim struct {
	Row      string  `json:"row"`
	Metric   string  `json:"metric"`
	PairsWon int     `json:"pairs_won"`
	Gap      float64 `json:"median_gap"` // base median − change median, signed so that a gain is positive
	BaseIQR  float64 `json:"base_iqr"`   // base q3 − q1, metric units
	Holds    bool    `json:"holds"`
}

// benchmarkSpec is what the ledger test reads of BENCHMARK.json.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// TestTrajectoryLedger validates BENCH_trajectory.json against
// BENCHMARK.json: every entry names its commits and host, records every
// workload and end-to-end metric with paired samples, and each row's
// ratios, quartiles, base IQR and verdict are what benchgate's verdict
// computes from its samples at the metric's BENCHMARK.json bound. A
// claimed gain is recomputed and must hold.
func TestTrajectoryLedger(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_trajectory.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var l ledger
	if err := dec.Decode(&l); err != nil {
		t.Fatalf("BENCH_trajectory.json: %v", err)
	}
	specData, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(specData, &spec); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if l.Schema != "fase-bench-trajectory/1" || len(l.Entries) == 0 {
		t.Fatalf("schema %q with %d entries", l.Schema, len(l.Entries))
	}
	hash := regexp.MustCompile(`^[0-9a-f]{7,40}$`)
	names := map[string]bool{}
	for _, e := range l.Entries {
		if e.Name == "" || names[e.Name] {
			t.Errorf("entry name %q is empty or repeated", e.Name)
		}
		names[e.Name] = true
		if !hash.MatchString(e.Parent) || (e.Commit != "self" && !hash.MatchString(e.Commit)) {
			t.Errorf("%s: commit %q, parent %q", e.Name, e.Commit, e.Parent)
		}
		if e.Host == "" || e.Method == "" {
			t.Errorf("%s: no host or method note", e.Name)
		}
		rows := map[[2]string]speedRow{}
		for _, sr := range e.Rows {
			rows[[2]string{sr.Row, sr.Metric}] = sr
			if len(sr.Base) < 5 || len(sr.Base) != len(sr.Change) {
				t.Errorf("%s: %s %s has %d base and %d change samples, want at least 5 pairs",
					e.Name, sr.Row, sr.Metric, len(sr.Base), len(sr.Change))
				continue
			}
			if want := verdict(sr.Row, gate{sr.Metric, sr.Bound}, sr.Base, sr.Change); !reflect.DeepEqual(sr, want) {
				t.Errorf("%s: %s %s recorded %+v, recomputed %+v", e.Name, sr.Row, sr.Metric, sr, want)
			}
		}
		if len(rows) != len(e.Rows) {
			t.Errorf("%s: a row is recorded twice", e.Name)
		}
		for _, w := range spec.Workloads {
			for _, m := range spec.EndToEnd {
				sr, ok := rows[[2]string{w.Name, m.Name}]
				if !ok {
					t.Errorf("%s: no %s %s row", e.Name, w.Name, m.Name)
					continue
				}
				bound := 1 + m.Bound
				if m.Better == "higher" {
					bound = 1 - m.Bound
				}
				if sr.Bound != bound {
					t.Errorf("%s: %s %s bound %v, BENCHMARK.json gives %v", e.Name, w.Name, m.Name, sr.Bound, bound)
				}
			}
		}
		if e.Claim == nil {
			continue
		}
		sr, ok := rows[[2]string{e.Claim.Row, e.Claim.Metric}]
		if !ok {
			t.Errorf("%s: claim on %s %s, which has no row", e.Name, e.Claim.Row, e.Claim.Metric)
			continue
		}
		higher := sr.Bound < 1
		if got := claimOf(sr, higher); got != *e.Claim {
			t.Errorf("%s: claim recorded %+v, recomputed %+v", e.Name, *e.Claim, got)
		}
		if len(sr.Base) < pairs || !e.Claim.Holds {
			t.Errorf("%s: claimed gain on %s %s does not hold over %d pairs: %+v",
				e.Name, sr.Row, sr.Metric, len(sr.Base), *e.Claim)
		}
	}
}

// claimOf recomputes a claim on row sr: the pairs the change won, the gap
// between the medians, the base's interquartile range, and whether at
// least nine in ten pairs were won with a gap beyond that range.
func claimOf(sr speedRow, higher bool) claim {
	c := claim{Row: sr.Row, Metric: sr.Metric}
	for i := range sr.Base {
		if (!higher && sr.Change[i] < sr.Base[i]) || (higher && sr.Change[i] > sr.Base[i]) {
			c.PairsWon++
		}
	}
	c.Gap = quantile(sr.Base, 0.5) - quantile(sr.Change, 0.5)
	if higher {
		c.Gap = -c.Gap
	}
	c.BaseIQR = quantile(sr.Base, 0.75) - quantile(sr.Base, 0.25)
	c.Holds = 10*c.PairsWon >= 9*len(sr.Base) && c.Gap > c.BaseIQR
	return c
}
