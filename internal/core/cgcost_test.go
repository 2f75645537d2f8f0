package core

import (
	"errors"
	"math"
	"math/big"
	"math/rand/v2"
	"testing"
	"time"
)

// minCostSolvers returns one solver per min-cost dispatch: automatic
// (dense at test sizes) and forced column generation.
func minCostSolvers() (dense, cg *Solver) {
	return NewSolver(), forceCG()
}

// TestMinCostCGMatchesExact is the §VI-A differential property test: on
// ≥100 randomized networks — including cost-free, lossless, and m = 1
// edges — the dense and column-generation min-cost solves must
// agree with the exact rational simplex on the optimal cost to 1e-6
// relative, and their solutions must meet the quality floor.
func TestMinCostCGMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewPCG(0xc057, 0x1))
	dense, cg := minCostSolvers()
	for trial := 0; trial < 120; trial++ {
		paths := 2 + rng.IntN(3)         // 2–4 paths
		transmissions := 1 + rng.IntN(3) // 1–3 transmissions (m = 1 edge included)
		if paths == 4 && transmissions == 3 {
			transmissions = 2 // 125 exact rational variables is too slow under -race
		}
		net := diffRandomNetwork(rng, paths, transmissions)
		switch trial % 5 {
		case 3: // cost-free edge: the optimum is 0 by dropping nothing extra
			for i := range net.Paths {
				net.Paths[i].Cost = 0
			}
		case 4: // lossless edge: retransmissions never fire
			for i := range net.Paths {
				net.Paths[i].Loss = 0
			}
		}

		enet, err := ExactFromFloat(net)
		if err != nil {
			t.Fatalf("trial %d: exact conversion: %v", trial, err)
		}
		qsol, err := SolveQualityExact(enet)
		if err != nil {
			t.Fatalf("trial %d: exact quality solve: %v", trial, err)
		}
		qmax, _ := qsol.Quality.Float64()

		// Floors: zero, mid-range, and near the achievable optimum.
		for _, frac := range []float64{0, 0.5, 0.95} {
			floor := qmax * frac
			esol, err := SolveMinCostExact(enet, new(big.Rat).SetFloat64(floor))
			if err != nil {
				t.Fatalf("trial %d floor %v: exact min-cost: %v", trial, floor, err)
			}
			exactCost, _ := esol.Cost.Float64()

			for name, s := range map[string]*Solver{"dense": dense, "cg": cg} {
				sol, err := s.SolveMinCost(net, floor)
				if err != nil {
					t.Fatalf("trial %d floor %v: %s min-cost: %v", trial, floor, name, err)
				}
				if diff := math.Abs(sol.Cost() - exactCost); diff > 1e-6*(1+exactCost) {
					t.Errorf("trial %d (paths=%d m=%d floor=%v): %s cost %v vs exact %v (diff %v, dispatch %v)",
						trial, paths, transmissions, floor, name, sol.Cost(), exactCost, diff, sol.Stats.Dispatch)
				}
				if sol.Quality < floor-1e-6 {
					t.Errorf("trial %d floor %v: %s quality %v below floor", trial, floor, name, sol.Quality)
				}
				var mass float64
				for _, x := range sol.X {
					mass += x
				}
				if math.Abs(mass-1) > 1e-6 {
					t.Errorf("trial %d floor %v: %s split mass %v", trial, floor, name, mass)
				}
			}
		}

		// Infeasible floor: everything above the certified quality
		// optimum must report ErrInfeasible on every path.
		if qmax < 0.99 {
			floor := qmax + 0.5*(1-qmax)
			for name, s := range map[string]*Solver{"dense": dense, "cg": cg} {
				if _, err := s.SolveMinCost(net, floor); !errors.Is(err, ErrInfeasible) {
					t.Errorf("trial %d: %s accepted infeasible floor %v (qmax %v): %v",
						trial, name, floor, qmax, err)
				}
			}
		}
	}
}

// TestMinCostCGStats: the CG dispatch must populate SolveStats exactly
// like the quality path does.
func TestMinCostCGStats(t *testing.T) {
	rng := rand.New(rand.NewPCG(0xc057, 0x2))
	_, cg := minCostSolvers()
	net := diffRandomNetwork(rng, 4, 2)
	sol, err := cg.SolveMinCost(net, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Stats.Dispatch != DispatchCG {
		t.Errorf("dispatch %v, want %v", sol.Stats.Dispatch, DispatchCG)
	}
	if sol.Stats.Columns <= 0 || sol.Stats.CGIterations <= 0 {
		t.Errorf("stats not populated: %+v", sol.Stats)
	}
	dsol, err := NewSolver().SolveMinCost(net, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if dsol.Stats.Dispatch != DispatchDense || dsol.Stats.Columns != 25 {
		t.Errorf("dense stats not populated: %+v", dsol.Stats)
	}
}

// TestMinCostCGScale is the headline acceptance check: a 40 paths × 4
// transmissions network (2.8M combinations, beyond what the dense path
// used to reach for min-cost) solves via automatic CG dispatch, meets
// its floor, and its cost is consistent with the quality-max solve of
// the same network.
func TestMinCostCGScale(t *testing.T) {
	if testing.Short() {
		t.Skip("CG-scale min-cost solve is slow under -short")
	}
	rng := rand.New(rand.NewPCG(0xc057, 0x3))
	net := diffRandomNetwork(rng, 40, 4)
	qsol, err := SolveQuality(net)
	if err != nil {
		t.Fatal(err)
	}
	floor := qsol.Quality * 0.9
	sol, err := SolveMinCost(net, floor)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Stats.Dispatch != DispatchCG {
		t.Fatalf("dispatch %v, want %v (stats %+v)", sol.Stats.Dispatch, DispatchCG, sol.Stats)
	}
	if sol.Quality < floor-1e-6 {
		t.Fatalf("quality %v below floor %v", sol.Quality, floor)
	}
	// The min-cost optimum at a floor below the budgeted quality optimum
	// can never cost more than the quality-max strategy, which also
	// meets the floor.
	if sol.Cost() > qsol.Cost()*(1+1e-6)+1e-9 {
		t.Fatalf("min-cost %v exceeds the quality-max strategy's cost %v", sol.Cost(), qsol.Cost())
	}
}

// TestMinCostOverflowDispatchesToCG is the satellite regression for the
// 3001^6-style overflow path: a combination count far past DenseLimit
// (31^6 ≈ 888M here) used to stop SolveMinCost dead with the dense-cap
// error; it must now dispatch to column generation and solve.
func TestMinCostOverflowDispatchesToCG(t *testing.T) {
	rng := rand.New(rand.NewPCG(0xc057, 0x4))
	net := diffRandomNetwork(rng, 30, 6)
	sol, err := SolveMinCost(net, 0.5)
	if err != nil {
		t.Fatalf("SolveMinCost past DenseLimit: %v", err)
	}
	if sol.Stats.Dispatch != DispatchCG {
		t.Fatalf("dispatch %v, want %v", sol.Stats.Dispatch, DispatchCG)
	}
	if sol.Quality < 0.5-1e-6 {
		t.Fatalf("quality %v below floor", sol.Quality)
	}
}

// TestMinCostCGArgErrors mirrors the dense path's argument validation.
func TestMinCostCGArgErrors(t *testing.T) {
	_, cg := minCostSolvers()
	n := costedNetwork()
	for _, q := range []float64{-0.1, 1.1, math.NaN()} {
		if _, err := cg.SolveMinCost(n, q); err == nil {
			t.Errorf("quality %v accepted", q)
		}
	}
	bad := *n
	bad.Rate = 0
	if _, err := cg.SolveMinCost(&bad, 0.5); err == nil {
		t.Error("invalid network accepted")
	}
}

// TestMinCostCGQualityOne pins the boundary floor 1.0 on the costed
// two-path network whose exact answer is known in closed form (cost 4λ
// via cheap→pricey); the CG path must find it like the dense path does.
func TestMinCostCGQualityOne(t *testing.T) {
	_, cg := minCostSolvers()
	n := costedNetwork()
	s, err := cg.SolveMinCost(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.Quality < 1-1e-9 {
		t.Fatalf("quality %v < 1", s.Quality)
	}
	if want := 4.0 * 10 * Mbps; math.Abs(s.Cost()-want) > 1 {
		t.Errorf("cost = %v, want %v", s.Cost(), want)
	}
	if f := s.Fraction(Combo{1, 2}); math.Abs(f-1) > 1e-9 {
		t.Errorf("x_{cheap,pricey} = %v, want 1", f)
	}
}

// TestMinCostCGImpossibleFloorOnLossyNetwork: a network that cannot
// reach quality 1 must certify infeasibility through the CG feasibility
// stage, not loop or mis-certify.
func TestMinCostCGImpossibleFloorOnLossyNetwork(t *testing.T) {
	_, cg := minCostSolvers()
	n := NewNetwork(10*Mbps, 800*time.Millisecond,
		Path{Bandwidth: 50 * Mbps, Delay: 200 * time.Millisecond, Loss: 0.3, Cost: 1},
	)
	n.Transmissions = 2
	// Single lossy path: quality caps at 1 − 0.3² = 0.91.
	if _, err := cg.SolveMinCost(n, 0.95); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
	if s, err := cg.SolveMinCost(n, 0.90); err != nil || s.Quality < 0.90-1e-9 {
		t.Fatalf("feasible floor failed: %v (quality %v)", err, s.Quality)
	}
}
