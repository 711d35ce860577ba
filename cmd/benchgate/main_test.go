package main

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

func TestParse(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	name := func(b string) string {
		if procs == 1 {
			return b
		}
		return fmt.Sprintf("%s-%d", b, procs)
	}
	out := "goos: linux\n" +
		name("BenchmarkRenderSSC/idle") + "   \t1000\t    455337 ns/op\n" +
		name("BenchmarkServiceLoad") + " \t1\t 524098097 ns/op\t 114.9 jobs/s\t 521.7 p99-ms\n" +
		"PASS\n"
	if m := parse(out, "BenchmarkRenderSSC/idle"); len(m) != 1 || m["ns/op"] != 455337 {
		t.Errorf("kernel row parsed as %v", m)
	}
	m := parse(out, "BenchmarkServiceLoad")
	if m["ns/op"] != 524098097 || m["jobs/s"] != 114.9 || m["p99-ms"] != 521.7 {
		t.Errorf("service row parsed as %v", m)
	}
	if m := parse(out, "BenchmarkRenderSSC"); m != nil {
		t.Errorf("parent benchmark matched its sub-benchmark's line: %v", m)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.25, 1.75}, {0.5, 2.5}, {1, 4}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Error("quantile sorted its input in place")
	}
}

func TestVerdict(t *testing.T) {
	flat := []float64{100, 100, 100, 100}
	for _, c := range []struct {
		base, change []float64
		bound        float64
		pass         bool
	}{
		{flat, []float64{114, 115, 116, 130}, 1.15, false}, // pair median 1.155
		{flat, []float64{90, 114, 115, 200}, 1.15, true},   // pair median 1.145
		{flat, []float64{30, 24, 26, 20}, 0.25, true},      // higher is better: 0.25
		{flat, []float64{20, 24, 24, 30}, 0.25, false},     // 0.24
		// The host speeds up halfway: the medians' ratio is 170/150 =
		// 1.133, but the pairs read 1.5 and 0.95, median 1.225.
		{[]float64{100, 100, 200, 200}, []float64{150, 150, 190, 190}, 1.15, false},
	} {
		s, pass := verdict(c.base, c.change, c.bound)
		if pass != c.pass || strings.Contains(s, "FAIL") == pass {
			t.Errorf("verdict(%v, %v, bound %v) = %q, pass %v; want pass %v", c.base, c.change, c.bound, s, pass, c.pass)
		}
	}
}
