package conc

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

func TestForEachRunsAll(t *testing.T) {
	const n = 1000
	var ran [n]atomic.Bool
	if err := ForEach(n, func(i int) error {
		ran[i].Store(true)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range ran {
		if !ran[i].Load() {
			t.Fatalf("task %d never ran", i)
		}
	}
}

func TestForEachFirstErrorCancels(t *testing.T) {
	boom := errors.New("boom")
	var executed atomic.Int64
	err := ForEach(10000, func(i int) error {
		executed.Add(1)
		if i == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if got := executed.Load(); got == 10000 {
		t.Error("error did not cancel remaining tasks")
	}
}

// panicHere exists so the recovered stack has a recognizable frame.
func panicHere() {
	panic("kaboom-original")
}

// forceWorkers pins GOMAXPROCS so the test exercises the worker-pool
// path even on a single-CPU machine.
func forceWorkers(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestForEachPanicContained checks a panicking task is re-raised on the
// caller with its value and stack, and cancels the tasks not yet
// started. Tasks after the panicking one wait until ForEach has
// recorded the panic, so the remaining tasks cannot all finish first on
// a busy machine: each worker runs at most the one task it already
// claimed after the cancellation.
func TestForEachPanicContained(t *testing.T) {
	const workers, n, panicAt = 4, 100000, 5
	forceWorkers(t, workers)
	recorded := make(chan struct{})
	panicRecorded = func() { close(recorded) }
	t.Cleanup(func() { panicRecorded = nil })
	var executed atomic.Int64
	var pe *PanicError
	func() {
		defer func() {
			r := recover()
			var ok bool
			if pe, ok = r.(*PanicError); !ok {
				t.Fatalf("recovered %T (%v), want *PanicError", r, r)
			}
		}()
		ForEach(n, func(i int) error {
			executed.Add(1)
			if i == panicAt {
				panicHere()
			}
			if i > panicAt {
				<-recorded
			}
			return nil
		})
		t.Fatal("ForEach returned instead of re-panicking")
	}()
	if pe.Value != "kaboom-original" {
		t.Errorf("panic value %v, want kaboom-original", pe.Value)
	}
	if !strings.Contains(string(pe.Stack), "panicHere") {
		t.Errorf("re-panic lost the original stack:\n%s", pe.Stack)
	}
	if !strings.Contains(pe.Error(), "kaboom-original") {
		t.Errorf("Error() omits the panic value: %s", pe.Error())
	}
	// Tasks 0..panicAt, plus at most one claimed task per other worker.
	if got := executed.Load(); got > panicAt+workers {
		t.Errorf("%d of %d tasks ran: the panic did not cancel the remaining tasks", got, n)
	}
}

// TestForEachPanicDoesNotLeakWorkers checks every worker goroutine
// exits after a panic (wg.Wait semantics survive the recover path).
func TestForEachPanicDoesNotLeakWorkers(t *testing.T) {
	forceWorkers(t, 4)
	before := runtime.NumGoroutine()
	for round := 0; round < 20; round++ {
		func() {
			defer func() { recover() }()
			ForEach(64, func(i int) error {
				if i%7 == 0 {
					panic(fmt.Sprintf("round %d", round))
				}
				return nil
			})
		}()
	}
	// Allow stragglers to finish unwinding.
	for i := 0; i < 100 && runtime.NumGoroutine() > before+2; i++ {
		runtime.Gosched()
	}
	if after := runtime.NumGoroutine(); after > before+2 {
		t.Errorf("goroutines grew %d -> %d across panicking ForEach rounds", before, after)
	}
}

// TestForEachNestedPanic checks a panic crossing two ForEach layers
// keeps the innermost stack.
func TestForEachNestedPanic(t *testing.T) {
	forceWorkers(t, 4)
	defer func() {
		r := recover()
		pe, ok := r.(*PanicError)
		if !ok {
			t.Fatalf("recovered %T (%v), want *PanicError", r, r)
		}
		if !strings.Contains(string(pe.Stack), "panicHere") {
			t.Errorf("nested re-panic lost the original stack:\n%s", pe.Stack)
		}
	}()
	ForEach(8, func(i int) error {
		return func() error {
			ForEach(8, func(j int) error {
				if i == 2 && j == 3 {
					panicHere()
				}
				return nil
			})
			return nil
		}()
	})
	t.Fatal("nested ForEach did not re-panic")
}

// TestForEachSingleWorkerPanicWrapped checks the sequential path obeys
// the same *PanicError contract as the worker-pool path.
func TestForEachSingleWorkerPanicWrapped(t *testing.T) {
	forceWorkers(t, 1)
	defer func() {
		r := recover()
		pe, ok := r.(*PanicError)
		if !ok {
			t.Fatalf("recovered %T (%v), want *PanicError", r, r)
		}
		if pe.Value != "direct" {
			t.Errorf("panic value %v, want direct", pe.Value)
		}
		if !strings.Contains(string(pe.Stack), "TestForEachSingleWorkerPanicWrapped") {
			t.Errorf("sequential re-panic lost the original stack:\n%s", pe.Stack)
		}
	}()
	ForEach(4, func(i int) error {
		if i == 1 {
			panic("direct")
		}
		return nil
	})
	t.Fatal("sequential ForEach did not propagate the panic")
}
