// Package conc provides the one worker-pool primitive shared by the
// experiment sweeps and the fleet fan-outs of the benchmarks: run n
// independent tasks across GOMAXPROCS workers with first-error-wins
// cancellation and panic containment.
package conc

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// PanicError wraps a panic recovered from a ForEach worker goroutine so
// it can be re-raised on the caller's goroutine without losing the
// original panic value or stack. ForEach panics with a *PanicError;
// recovery layers above (e.g. the serving stack) unwrap Value to
// classify the fault and log Stack for the real crash site — the stack
// of the re-panic itself only shows ForEach.
type PanicError struct {
	// Value is the original panic value.
	Value any
	// Stack is the panicking goroutine's stack at recovery time.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("conc: task panicked: %v\n\noriginal stack:\n%s", e.Value, e.Stack)
}

// panicRecorded, when set, runs right after a worker records a task's
// panic and raises the cancellation flag — a seam that lets tests order
// other tasks after the cancellation without sleeping.
var panicRecorded func()

// ForEach runs fn(i) for every i in [0, n) across min(GOMAXPROCS, n)
// workers. Tasks must be independent; callers write results into
// pre-indexed slots so output order is deterministic. The first error
// (by scheduling order) wins and the remaining tasks are skipped.
//
// A panicking task does not crash the process from a worker goroutine:
// the panic is recovered, the remaining tasks are cancelled, and once
// every in-flight task has finished the panic is re-raised on the
// caller's goroutine as a *PanicError carrying the original value and
// stack. A panic outranks any error. The single-worker path raises the
// same *PanicError so callers see one contract regardless of
// GOMAXPROCS.
func ForEach(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := protect(fn, i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next      atomic.Int64
		failed    atomic.Bool
		errOnce   sync.Once
		firstErr  error
		panicOnce sync.Once
		panicked  *PanicError
		wg        sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				err := func() (err error) {
					defer func() {
						if r := recover(); r != nil {
							panicOnce.Do(func() {
								panicked = wrapPanic(r)
								failed.Store(true)
								if panicRecorded != nil {
									panicRecorded()
								}
							})
						}
					}()
					return fn(i)
				}()
				if err != nil {
					errOnce.Do(func() {
						firstErr = err
						failed.Store(true)
					})
					return
				}
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
	return firstErr
}

// wrapPanic turns a recovered value into a *PanicError, capturing the
// stack inside the recovering frame so it shows the actual crash site.
// An already-wrapped value (a nested ForEach re-panic) passes through,
// keeping the innermost stack.
func wrapPanic(r any) *PanicError {
	if pe, ok := r.(*PanicError); ok {
		return pe
	}
	return &PanicError{Value: r, Stack: debug.Stack()}
}

// protect runs fn(i) on the caller's goroutine, converting a panic into
// an immediate re-panic with a *PanicError so the sequential path obeys
// the same contract as the worker-pool path.
func protect(fn func(i int) error, i int) error {
	defer func() {
		if r := recover(); r != nil {
			panic(wrapPanic(r))
		}
	}()
	return fn(i)
}
