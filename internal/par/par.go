// Package par fans index-parallel work out to goroutines without losing
// panics. A panic can only be recovered on the goroutine that raised it,
// so a worker goroutine that panics takes the whole process down, however
// carefully its caller guards itself. Do recovers each worker's panic on
// the worker and re-raises it on the caller, where a long-lived process
// (the campaign service) can recover it and fail one job instead.
package par

import (
	"fmt"
	"runtime/debug"
	"sync"
)

// Panic is a recovered panic on its way to a caller that can handle it:
// the original panic value and the stack of the goroutine that raised it,
// which a re-raise on another goroutine would otherwise lose.
type Panic struct {
	Value any
	Stack []byte
}

// Error reports the panic value followed by the panicking goroutine's
// stack, so an unrecovered re-raise still prints where it started.
func (p *Panic) Error() string {
	return fmt.Sprintf("%v\n\npanicking goroutine:\n%s", p.Value, p.Stack)
}

// Recovered wraps a value returned by recover, capturing the current
// stack — call it from the deferred function that recovered v, while the
// panicking frames are still on the stack. A v that already is a *Panic
// (re-raised by a nested Do) is returned unchanged.
func Recovered(v any) *Panic {
	if p, ok := v.(*Panic); ok {
		return p
	}
	return &Panic{Value: v, Stack: debug.Stack()}
}

// Do runs fn(0), …, fn(n-1) on n goroutines and waits for all of them.
// If any panicked, Do re-raises the lowest-indexed panic, as a *Panic, on
// the caller's goroutine once every goroutine has finished.
func Do(n int, fn func(i int)) {
	panics := make([]*Panic, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					panics[i] = Recovered(v)
				}
			}()
			fn(i)
		}(i)
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
}
