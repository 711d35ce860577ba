package activity

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestKindStrings(t *testing.T) {
	want := map[Kind]string{Idle: "IDLE", LDM: "LDM", STM: "STM", LDL1: "LDL1",
		LDL2: "LDL2", ADD: "ADD", SUB: "SUB", MUL: "MUL", DIV: "DIV"}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), s)
		}
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind should stringify")
	}
}

func TestParseKindRoundTrip(t *testing.T) {
	for k := Idle; k <= DIV; k++ {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	// Case-insensitive and whitespace-tolerant.
	if k, err := ParseKind(" ldm "); err != nil || k != LDM {
		t.Errorf("lenient parse failed: %v %v", k, err)
	}
	if _, err := ParseKind("LDL3"); err == nil {
		t.Error("unknown kind should error")
	}
}

func TestParsePair(t *testing.T) {
	x, y, err := ParsePair("LDM/LDL1")
	if err != nil || x != LDM || y != LDL1 {
		t.Errorf("ParsePair: %v %v %v", x, y, err)
	}
	for _, bad := range []string{"LDM", "LDM/LDL1/ADD", "FOO/LDL1", "LDM/BAR"} {
		if _, _, err := ParsePair(bad); err == nil {
			t.Errorf("ParsePair(%q) should error", bad)
		}
	}
}

func TestLoadRelationships(t *testing.T) {
	ldm, ldl1, ldl2 := LoadOf(LDM), LoadOf(LDL1), LoadOf(LDL2)
	// The paper's key calibration: LDM vs LDL1 differ on memory domains
	// but not the core; LDL2 vs LDL1 differ on the core only.
	if ldm.Core != ldl1.Core {
		t.Error("LDM and LDL1 must load the core equally (same loop code)")
	}
	if ldm.DRAM-ldl1.DRAM < 0.5 || ldm.MemCtl-ldl1.MemCtl < 0.5 {
		t.Error("LDM must load memory domains much more than LDL1")
	}
	if ldl2.Core-ldl1.Core < 0.1 {
		t.Error("LDL2 must load the core more than LDL1")
	}
	if ldl2.DRAM != ldl1.DRAM || ldl2.MemCtl != ldl1.MemCtl {
		t.Error("LDL2 and LDL1 must load memory domains equally")
	}
}

func TestAllLoadsInRange(t *testing.T) {
	for k := Idle; k <= DIV; k++ {
		l := LoadOf(k)
		for _, v := range []float64{l.Core, l.MemCtl, l.DRAM} {
			if v < 0 || v > 1 {
				t.Errorf("%v load %+v out of range", k, l)
			}
		}
	}
}

func TestDomainOf(t *testing.T) {
	l := Load{Core: 0.1, MemCtl: 0.2, DRAM: 0.3}
	if DomainNone.Of(l) != 0 || DomainCore.Of(l) != 0.1 || DomainMemCtl.Of(l) != 0.2 || DomainDRAM.Of(l) != 0.3 {
		t.Error("Domain.Of wrong")
	}
	names := map[Domain]string{DomainNone: "none", DomainCore: "core", DomainMemCtl: "memctl", DomainDRAM: "dram"}
	for d, s := range names {
		if d.String() != s {
			t.Errorf("%v name wrong", d)
		}
	}
	mustPanic(t, func() { Domain(9).Of(l) })
	mustPanic(t, func() { LoadOf(Kind(42)) })
}

func TestTraceAt(t *testing.T) {
	tr := New([]float64{0, 1, 2}, Load{Core: 0.1}, Load{Core: 0.2}, Load{Core: 0.3})
	cases := map[float64]float64{-1: 0.1, 0: 0.1, 0.5: 0.1, 1: 0.2, 1.99: 0.2, 2: 0.3, 100: 0.3}
	for at, want := range cases {
		if got := tr.At(at).Core; got != want {
			t.Errorf("At(%g).Core = %g, want %g", at, got, want)
		}
	}
	if tr.End() != 2 {
		t.Errorf("End = %g", tr.End())
	}
	if (&Trace{}).At(5) != (Load{}) {
		t.Error("empty trace should return zero load")
	}
}

func TestCursorMatchesAt(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(50)
		starts := make([]float64, n)
		loads := make([]Load, n)
		t0 := 0.0
		for i := range starts {
			starts[i], loads[i] = t0, Load{Core: r.Float64()}
			t0 += r.Float64()
		}
		tr := New(starts, loads...)
		// Monotone queries through the cursor must match binary search.
		c := tr.Cursor()
		times := make([]float64, 100)
		for i := range times {
			times[i] = r.Float64() * (t0 + 1)
		}
		sort.Float64s(times)
		for _, q := range times {
			if c.At(q) != tr.At(q) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCursorEmptyTrace(t *testing.T) {
	c := (&Trace{}).Cursor()
	if c.At(3) != (Load{}) {
		t.Error("empty trace cursor should return zero load")
	}
}

func TestNewConstant(t *testing.T) {
	tr := NewConstant(Load{DRAM: 1})
	if tr.At(0).DRAM != 1 || tr.At(1e9).DRAM != 1 {
		t.Error("constant trace wrong")
	}
	if err := tr.Validate(); err != nil {
		t.Error(err)
	}
}

func TestValidate(t *testing.T) {
	bad := New([]float64{1, 0}, Load{})
	if bad.Validate() == nil {
		t.Error("unsorted trace should fail validation")
	}
	bad2 := New([]float64{0}, Load{Core: 2})
	if bad2.Validate() == nil {
		t.Error("out-of-range load should fail validation")
	}
}

// TestCyclicLoadsMatchPerSegment: a trace that stores a cycle of loads
// reads, through every accessor, exactly what the same trace storing one
// load per segment reads: the same segments, the same loads at and
// between every switch, the same sample runs, domain runs and window
// constancy, and the same validation verdict.
func TestCyclicLoadsMatchPerSegment(t *testing.T) {
	r := rand.New(rand.NewSource(34))
	x, y := LoadOf(LDM), LoadOf(LDL1)
	for trial := 0; trial < 100; trial++ {
		n := 1 + r.Intn(60)
		starts := make([]float64, n)
		loads := make([]Load, n)
		t0 := -r.Float64() * 1e-4
		for i := range starts {
			starts[i], loads[i] = t0, x
			if i%2 == 1 {
				loads[i] = y
			}
			t0 += r.Float64() * 20e-6
		}
		cyc, flat := New(starts, x, y), New(starts, loads...)
		if cyc.Len() != n || cyc.End() != flat.End() {
			t.Fatalf("trial %d: %d segments ending %g, want %d ending %g", trial, cyc.Len(), cyc.End(), n, flat.End())
		}
		for i := 0; i < n; i++ {
			if cyc.Segment(i) != flat.Segment(i) {
				t.Fatalf("trial %d: segment %d is %+v, want %+v", trial, i, cyc.Segment(i), flat.Segment(i))
			}
			for _, at := range []float64{starts[i], math.Nextafter(starts[i], math.Inf(-1))} {
				if cyc.At(at) != flat.At(at) {
					t.Fatalf("trial %d: At(%g) = %+v, want %+v", trial, at, cyc.At(at), flat.At(at))
				}
			}
		}
		start, dt, m := starts[0]+r.Float64()*5e-6, 1/(200e3+r.Float64()*400e3), 1+r.Intn(512)
		cr, fr := cyc.SampleRuns(start, dt, m), flat.SampleRuns(start, dt, m)
		for {
			l1, a1, b1, ok1 := cr.Next()
			l2, a2, b2, ok2 := fr.Next()
			if l1 != l2 || a1 != a2 || b1 != b2 || ok1 != ok2 {
				t.Fatalf("trial %d: run %+v [%d,%d) %v, want %+v [%d,%d) %v", trial, l1, a1, b1, ok1, l2, a2, b2, ok2)
			}
			if !ok1 {
				break
			}
		}
		t1 := start + float64(m-1)*dt
		for _, dom := range []Domain{DomainCore, DomainMemCtl, DomainDRAM} {
			cd, fd := cyc.DomainRuns(dom, start, dt, m), flat.DomainRuns(dom, start, dt, m)
			for {
				l1, a1, b1, ok1 := cd.Next()
				l2, a2, b2, ok2 := fd.Next()
				if l1 != l2 || a1 != a2 || b1 != b2 || ok1 != ok2 {
					t.Fatalf("trial %d %v: domain run differs", trial, dom)
				}
				if !ok1 {
					break
				}
			}
			v1, c1 := cyc.DomainConstant(dom, start, t1)
			v2, c2 := flat.DomainConstant(dom, start, t1)
			if v1 != v2 || c1 != c2 {
				t.Fatalf("trial %d %v: DomainConstant %v %v, want %v %v", trial, dom, v1, c1, v2, c2)
			}
		}
		if (cyc.Validate() == nil) != (flat.Validate() == nil) {
			t.Fatalf("trial %d: Validate %v, want %v", trial, cyc.Validate(), flat.Validate())
		}
	}
	mustPanic(t, func() { New([]float64{0}) })
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}
