package core

import (
	"math/rand/v2"
	"runtime"
	"testing"
)

// liveHeap returns the bytes of live heap objects. The second
// collection frees what the first moved into sync.Pool's victim cache,
// so pooled LP workspaces are not counted.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// sessionFootprint returns the live heap each of sessions idle warm
// Solvers holds, in bytes, after it primes on the first round of its
// own 8-round drift ring of paths×trans networks and re-solves 16
// rounds of it in ping-pong order: the heap with the Solvers held and
// their Solutions dropped, less the heap before they were made. A
// min-cost session's floor is 90% of the lowest quality optimum over
// its ring, so every round is feasible.
func sessionFootprint(t *testing.T, paths, trans, sessions int, minCost bool) float64 {
	t.Helper()
	const rounds, resolves = 8, 16
	rings := make([][]*Network, sessions)
	floors := make([]float64, sessions)
	for s := range rings {
		rings[s] = driftRing(rand.New(rand.NewPCG(uint64(s)+1, uint64(paths))), paths, trans, rounds)
		floors[s] = 1
		if minCost {
			for _, n := range rings[s] {
				opt, err := SolveQuality(n)
				if err != nil {
					t.Fatal(err)
				}
				floors[s] = min(floors[s], 0.9*opt.Quality)
			}
		}
	}
	solvers := make([]*Solver, sessions)
	before := liveHeap()
	for s := range solvers {
		sv := NewSolver()
		for k := range resolves + 1 {
			n := rings[s][pingpongRound(k, rounds)]
			var err error
			if minCost {
				_, err = sv.ResolveMinCost(n, floors[s])
			} else {
				_, err = sv.Resolve(n)
			}
			if err != nil {
				t.Fatalf("session %d step %d: %v", s, k, err)
			}
		}
		solvers[s] = sv
	}
	after := liveHeap()
	runtime.KeepAlive(solvers)
	runtime.KeepAlive(rings)
	runtime.KeepAlive(floors)
	return (float64(after) - float64(before)) / float64(sessions)
}

// TestSessionFootprint bounds what an idle warm session holds: a 40×4
// column-generation pool keeps trans digits and trans attempt weights
// per column, not a share per path, and a dense 3×2 table likewise.
// These sessions measure about 55 KB, 20 KB and 1.0 KB each. Each bound
// sits below what tables with a base-wide share row per column hold on
// the same sessions (183 KB, 60 KB and 1.65 KB), so such a layout
// fails.
func TestSessionFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory inflates the heap")
	}
	for _, tc := range []struct {
		name                   string
		paths, trans, sessions int
		minCost                bool
		maxKB                  float64
	}{
		{"quality 40×4", 40, 4, 16, false, 100},
		{"min-cost 40×4", 40, 4, 16, true, 35},
		{"dense 3×2", 3, 2, 256, false, 1.3},
	} {
		if testing.Short() && tc.paths > 3 {
			continue
		}
		kb := sessionFootprint(t, tc.paths, tc.trans, tc.sessions, tc.minCost) / 1000
		t.Logf("%s: %.2f KB per session", tc.name, kb)
		if kb > tc.maxKB {
			t.Errorf("%s: an idle warm session holds %.2f KB, want at most %g", tc.name, kb, tc.maxKB)
		}
	}
}
