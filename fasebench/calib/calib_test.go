package calib

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"
)

// The kernel must cost the same whatever the program under test does,
// so neither it nor the guarded measurement may allocate.
func TestKernelAllocatesNothing(t *testing.T) {
	if n := testing.AllocsPerRun(20, func() { _ = Kernel(1000) }); n != 0 {
		t.Fatalf("Kernel allocates %v times per run", n)
	}
	s := NewSampler(0)
	if n := testing.AllocsPerRun(3, func() { _, _ = s.Measure() }); n != 0 {
		t.Fatalf("Sampler.Measure allocates %v times per run", n)
	}
}

// The kernel must not call repository code: a change to the program
// would otherwise move the yardstick it is measured against.
func TestNoRepositoryImports(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		af, err := parser.ParseFile(fset, f, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range af.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if p == "fase" || strings.HasPrefix(p, "fase/") {
				t.Errorf("%s imports repository package %s", f, p)
			}
		}
	}
}

func TestSamplerMedian(t *testing.T) {
	s := NewSampler(8)
	for i := 0; i < 5; i++ {
		s.Sample()
	}
	if s.Len() == 0 {
		t.Fatal("no clean sample in five tries")
	}
	if m := s.Median(); m <= 0 || s.Scale() <= 0 {
		t.Fatalf("median %v scale %v", m, s.Scale())
	}
}

// While another goroutine allocates fast enough to start collection after
// collection, no cycle may complete inside a sample's window, and the
// collector's setting is restored afterwards.
func TestMeasureHoldsOffGC(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(50))
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		var keep []byte
		for {
			select {
			case <-stop:
				runtime.KeepAlive(keep)
				return
			default:
				keep = make([]byte, 64<<10)
			}
		}
	}()
	s := NewSampler(0)
	start := s.gcCycles()
	for i := 0; i < 20; i++ {
		if _, ok := s.Measure(); !ok {
			t.Fatal("no clean sample")
		}
	}
	cycles := s.gcCycles() - start
	close(stop)
	<-done
	if s.Retaken != 0 {
		t.Errorf("%d samples saw a GC cycle complete", s.Retaken)
	}
	if cycles == 0 {
		t.Log("allocator triggered no GC cycle between samples")
	}
	if old := debug.SetGCPercent(50); old != 50 {
		t.Errorf("GC percent %d after Measure, want 50", old)
	}
}

func TestStealMeterFraction(t *testing.T) {
	var m StealMeter
	m.Start()
	_ = Kernel(Steps)
	m.Stop()
	if f := m.Frac(); f < 0 || f > 1 {
		t.Fatalf("stolen share %v outside [0, 1]", f)
	}
}
