package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"dmc/internal/conc"
)

// diffRandomNetwork draws a random valid network (mirroring the Figure 4
// instance generator, kept local to avoid a test-only dependency on
// internal/experiments).
func diffRandomNetwork(rng *rand.Rand, paths, transmissions int) *Network {
	ps := make([]Path, paths)
	var total float64
	for i := range ps {
		bw := (10 + rng.Float64()*90) * Mbps
		total += bw
		ps[i] = Path{
			Bandwidth: bw,
			Delay:     time.Duration(50+rng.IntN(450)) * time.Millisecond,
			Loss:      rng.Float64() * 0.3,
			Cost:      rng.Float64(),
		}
	}
	n := NewNetwork(0.8*total, time.Second, ps...)
	n.Transmissions = transmissions
	n.CostBound = total
	return n
}

// TestPooledSolverMatchesExact is the differential property test for the
// pooled float solve path: on ~200 randomized networks the reusable
// Solver must agree with the exact rational simplex (the paper's CGAL
// stand-in) on the optimal quality to 1e-6, and its solution must be
// primal-feasible under the exact model's constraints (quality equals
// the certified optimum, so feasibility + agreement pin the solution).
func TestPooledSolverMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewPCG(0xd1ff, 0x5eed))
	s := NewSolver()
	for trial := 0; trial < 200; trial++ {
		paths := 2 + rng.IntN(3)         // 2–4 paths
		transmissions := 2 + rng.IntN(2) // 2–3 transmissions
		if paths == 4 && transmissions == 3 {
			// 125 exact rational variables is disproportionately slow
			// under -race; the 4-path coverage stays at m = 2.
			transmissions = 2
		}
		net := diffRandomNetwork(rng, paths, transmissions)

		sol, err := s.SolveQuality(net)
		if err != nil {
			t.Fatalf("trial %d: pooled solve: %v", trial, err)
		}
		enet, err := ExactFromFloat(net)
		if err != nil {
			t.Fatalf("trial %d: exact conversion: %v", trial, err)
		}
		esol, err := SolveQualityExact(enet)
		if err != nil {
			t.Fatalf("trial %d: exact solve: %v", trial, err)
		}
		exact, _ := esol.Quality.Float64()
		if diff := math.Abs(sol.Quality - exact); diff > 1e-6 {
			t.Errorf("trial %d (paths=%d m=%d): pooled quality %v vs exact %v (diff %v)",
				trial, paths, transmissions, sol.Quality, exact, diff)
		}
		// The split must remain a distribution.
		var mass float64
		for _, x := range sol.X {
			if x < -1e-9 {
				t.Fatalf("trial %d: negative share %v", trial, x)
			}
			mass += x
		}
		if math.Abs(mass-1) > 1e-6 {
			t.Errorf("trial %d: split mass %v, want 1", trial, mass)
		}
	}
}

// TestScalableSolversMatchExact: the scalable solve path — column
// generation — must agree with the exact rational simplex (the paper's
// CGAL stand-in) to 1e-6 on ≥100 randomized networks, sizes where both
// are tractable.
func TestScalableSolversMatchExact(t *testing.T) {
	rng := rand.New(rand.NewPCG(0xabcd, 0xef01))
	cg := NewSolver()
	cg.DenseThreshold = -1 // force column generation at every size
	for trial := 0; trial < 120; trial++ {
		paths := 2 + rng.IntN(3)         // 2–4 paths
		transmissions := 2 + rng.IntN(2) // 2–3 transmissions
		if paths == 4 && transmissions == 3 {
			// 125 exact rational variables is disproportionately slow
			// under -race; the 4-path coverage stays at m = 2.
			transmissions = 2
		}
		net := diffRandomNetwork(rng, paths, transmissions)

		enet, err := ExactFromFloat(net)
		if err != nil {
			t.Fatalf("trial %d: exact conversion: %v", trial, err)
		}
		esol, err := SolveQualityExact(enet)
		if err != nil {
			t.Fatalf("trial %d: exact solve: %v", trial, err)
		}
		exact, _ := esol.Quality.Float64()

		csol, err := cg.SolveQuality(net)
		if err != nil {
			t.Fatalf("trial %d: cg solve: %v", trial, err)
		}
		if diff := math.Abs(csol.Quality - exact); diff > 1e-6 {
			t.Errorf("trial %d (paths=%d m=%d): cg quality %v vs exact %v (diff %v, %d iterations, %d columns)",
				trial, paths, transmissions, csol.Quality, exact, diff, csol.Stats.CGIterations, csol.Stats.Columns)
		}
	}
}

// TestSolverReuseIsDeterministic: reusing one Solver across differently
// shaped problems must give byte-identical results to fresh solves —
// stale workspace contents must never leak into a later solve.
func TestSolverReuseIsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	s := NewSolver()
	for trial := 0; trial < 40; trial++ {
		net := diffRandomNetwork(rng, 2+rng.IntN(5), 1+rng.IntN(3))
		reused, err := s.SolveQuality(net)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := NewSolver().SolveQuality(net)
		if err != nil {
			t.Fatal(err)
		}
		if reused.Quality != fresh.Quality {
			t.Fatalf("trial %d: reused solver quality %v != fresh %v", trial, reused.Quality, fresh.Quality)
		}
		for l := range reused.X {
			if reused.X[l] != fresh.X[l] {
				t.Fatalf("trial %d: X[%d] differs: %v vs %v", trial, l, reused.X[l], fresh.X[l])
			}
		}
	}
}

// TestSolveQualityConcurrent hammers the package-level SolveQuality
// from several goroutines at once, each fanning a fleet across
// GOMAXPROCS workers — run under -race (the CI test target does) this
// is the data-race check for the shared solver and LP workspace pools
// (solverPool, lpPool).
func TestSolveQualityConcurrent(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 42))
	nets := make([]*Network, 24)
	for i := range nets {
		nets[i] = diffRandomNetwork(rng, 2+rng.IntN(3), 2)
	}
	want := make([]float64, len(nets))
	for i, n := range nets {
		sol, err := SolveQuality(n)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = sol.Quality
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := conc.ForEach(len(nets), func(i int) error {
				sol, err := SolveQuality(nets[i])
				if err != nil {
					return err
				}
				if sol.Quality != want[i] {
					return fmt.Errorf("concurrent solve %d quality %v, want %v", i, sol.Quality, want[i])
				}
				return nil
			})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}
