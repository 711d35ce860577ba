package par

import (
	"strings"
	"sync/atomic"
	"testing"
)

func TestDoRunsEveryIndex(t *testing.T) {
	var seen [16]atomic.Int32
	Do(len(seen), func(i int) { seen[i].Add(1) })
	for i := range seen {
		if n := seen[i].Load(); n != 1 {
			t.Errorf("index %d ran %d times", i, n)
		}
	}
}

// TestDoReraisesOnCaller pins the contract the campaign service's panic
// isolation rests on: a worker panic surfaces on Do's caller as a *Panic
// carrying the worker's own stack, only after every other worker has
// finished, and nested Do calls pass the inner *Panic through unchanged.
func TestDoReraisesOnCaller(t *testing.T) {
	var finished atomic.Int32
	got := func() (p any) {
		defer func() { p = recover() }()
		Do(8, func(i int) {
			if i == 3 {
				Do(2, func(j int) {
					if j == 1 {
						panic("boom")
					}
				})
			}
			finished.Add(1)
		})
		return nil
	}()
	p, ok := got.(*Panic)
	if !ok {
		t.Fatalf("recovered %T %v, want *Panic", got, got)
	}
	if p.Value != "boom" {
		t.Errorf("panic value %v, want boom", p.Value)
	}
	if finished.Load() != 7 {
		t.Errorf("%d of 7 non-panicking workers finished before the re-raise", finished.Load())
	}
	if !strings.Contains(string(p.Stack), "TestDoReraisesOnCaller.func") {
		t.Errorf("stack does not reach the panicking worker:\n%s", p.Stack)
	}
	if !strings.HasPrefix(p.Error(), "boom\n") {
		t.Errorf("Error() = %q, want the panic value first", p.Error())
	}
}
