package core

import (
	"math"
	"math/rand/v2"
	"sync"
	"testing"
	"time"
)

// driftNetwork returns a copy of n with every estimated characteristic
// (λ, µ, per-path loss/delay/bandwidth/cost) perturbed by up to ±maxRel
// relative, staying valid. This models the §VIII-A estimator drift that
// triggers adaptive re-solves.
func driftNetwork(rng *rand.Rand, n *Network, maxRel float64) *Network {
	rel := func() float64 { return 1 + (rng.Float64()*2-1)*maxRel }
	cp := *n
	cp.Paths = append([]Path(nil), n.Paths...)
	cp.Rate *= rel()
	if cp.CostBound > 0 && !math.IsInf(cp.CostBound, 1) {
		cp.CostBound *= rel()
	}
	for i := range cp.Paths {
		p := &cp.Paths[i]
		p.Bandwidth *= rel()
		p.Delay = time.Duration(float64(p.Delay) * rel())
		p.Loss *= rel()
		if p.Loss > 1 {
			p.Loss = 1
		}
		p.Cost *= rel()
	}
	return &cp
}

// resolveTrajectory replays one drift trajectory through a warm solver
// and checks every step against a cold solve. Returns how many steps
// warm-started the LP (Phase I skipped) and how many fell back.
func resolveTrajectory(t *testing.T, rng *rand.Rand, warm *Solver, base *Network, steps int, maxRel float64, wantDispatch Dispatch) (skipped, fellBack int) {
	t.Helper()
	cold := NewSolver()
	cold.DenseThreshold = warm.DenseThreshold

	first, err := warm.Resolve(base)
	if err != nil {
		t.Fatalf("prime resolve: %v", err)
	}
	if first.Stats.Warm {
		t.Fatal("first resolve reported warm")
	}
	if first.Stats.Dispatch != wantDispatch {
		t.Fatalf("prime dispatch %v, want %v", first.Stats.Dispatch, wantDispatch)
	}

	net := base
	for step := 0; step < steps; step++ {
		net = driftNetwork(rng, net, maxRel)
		wsol, err := warm.Resolve(net)
		if err != nil {
			t.Fatalf("step %d: warm resolve: %v", step, err)
		}
		csol, err := cold.SolveQuality(net)
		if err != nil {
			t.Fatalf("step %d: cold solve: %v", step, err)
		}
		if !wsol.Stats.Warm {
			t.Fatalf("step %d: resolve did not use warm state", step)
		}
		if gap := abs64(wsol.Quality - csol.Quality); gap > 1e-6 {
			t.Fatalf("step %d: warm quality %.12f vs cold %.12f (gap %.3e, dispatch %v)",
				step, wsol.Quality, csol.Quality, gap, wsol.Stats.Dispatch)
		}
		if wsol.Stats.PhaseISkipped {
			skipped++
		} else {
			fellBack++
		}
	}
	return skipped, fellBack
}

func abs64(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// TestResolveDifferentialDense replays drift trajectories through the
// dense dispatch: warm re-solves must match cold solves to 1e-6, and
// none may report a skipped Phase I, since the dense dispatch solves
// every master cold.
func TestResolveDifferentialDense(t *testing.T) {
	rng := rand.New(rand.NewPCG(0x0e50, 1))
	skipped := 0
	for traj := 0; traj < 40; traj++ {
		warm := NewSolver()
		base := diffRandomNetwork(rng, 2+rng.IntN(3), 2)
		s, _ := resolveTrajectory(t, rng, warm, base, 6, 0.08, DispatchDense)
		skipped += s
	}
	if skipped != 0 {
		t.Fatalf("%d dense re-solves skipped Phase I; the dense dispatch must solve cold", skipped)
	}
}

// TestResolveDifferentialCG forces column generation and replays drift
// trajectories through the persistent pool + warm basis path.
func TestResolveDifferentialCG(t *testing.T) {
	rng := rand.New(rand.NewPCG(0x0e50, 3))
	skipped, hits := 0, 0
	for traj := 0; traj < 30; traj++ {
		warm := NewSolver()
		warm.DenseThreshold = -1 // force CG at any size
		base := diffRandomNetwork(rng, 3+rng.IntN(4), 2+rng.IntN(2))
		cold := NewSolver()
		cold.DenseThreshold = -1

		first, err := warm.Resolve(base)
		if err != nil {
			t.Fatalf("prime: %v", err)
		}
		if first.Stats.Dispatch != DispatchCG || first.Stats.PoolAdded != first.Stats.Columns {
			t.Fatalf("prime stats %+v", first.Stats)
		}
		net := base
		for step := 0; step < 6; step++ {
			net = driftNetwork(rng, net, 0.08)
			wsol, err := warm.Resolve(net)
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			csol, err := cold.SolveQuality(net)
			if err != nil {
				t.Fatalf("step %d cold: %v", step, err)
			}
			if gap := abs64(wsol.Quality - csol.Quality); gap > 1e-6 {
				t.Fatalf("step %d: warm %.12f vs cold %.12f (gap %.3e)", step, wsol.Quality, csol.Quality, gap)
			}
			if !wsol.Stats.Warm || wsol.Stats.Dispatch != DispatchCG {
				t.Fatalf("step %d: stats %+v", step, wsol.Stats)
			}
			if wsol.Stats.PoolHits == 0 {
				t.Fatalf("step %d: warm CG solve reported no pool hits", step)
			}
			hits += wsol.Stats.PoolHits
			if wsol.Stats.PhaseISkipped {
				skipped++
			}
		}
	}
	if skipped == 0 {
		t.Fatal("no CG re-solve ever warm-started its first master")
	}
	if hits == 0 {
		t.Fatal("pool never hit")
	}
}

// TestResolveCGScale runs one realistic CG-scale trajectory (the
// ROADMAP's 40 paths × 4 transmissions target, 2.8M combinations) and
// checks agreement plus substantial pool reuse.
func TestResolveCGScale(t *testing.T) {
	if testing.Short() {
		t.Skip("CG-scale trajectory is slow under -short")
	}
	rng := rand.New(rand.NewPCG(0xcafe, 40))
	base := diffRandomNetwork(rng, 40, 4)
	warm, cold := NewSolver(), NewSolver()
	if _, err := warm.Resolve(base); err != nil {
		t.Fatal(err)
	}
	net := base
	for step := 0; step < 3; step++ {
		net = driftNetwork(rng, net, 0.05)
		wsol, err := warm.Resolve(net)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		csol, err := cold.SolveQuality(net)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if gap := abs64(wsol.Quality - csol.Quality); gap > 1e-6 {
			t.Fatalf("step %d: warm %.12f vs cold %.12f", step, wsol.Quality, csol.Quality)
		}
		if wsol.Stats.PoolHits < wsol.Stats.Columns/2 {
			t.Fatalf("step %d: pool hits %d of %d columns — pool retention broken",
				step, wsol.Stats.PoolHits, wsol.Stats.Columns)
		}
	}
}

// TestResolveBasisRepairFallback drifts violently enough that the prior
// basis cannot stay primal feasible, exercising the basis repair and the
// automatic cold fallback inside the warm path: the solve must still
// succeed and agree with a cold solve, just without the Phase-I skip.
// Column generation is forced, since only it re-installs a basis: a dense
// re-solve is cold by design and would count as a fallback every time.
func TestResolveBasisRepairFallback(t *testing.T) {
	rng := rand.New(rand.NewPCG(0xfa11, 7))
	fellBack := 0
	for traj := 0; traj < 25 && fellBack == 0; traj++ {
		warm := NewSolver()
		warm.DenseThreshold = -1
		base := diffRandomNetwork(rng, 3, 2)
		if _, err := warm.Resolve(base); err != nil {
			t.Fatal(err)
		}
		// Violent drift: collapse bandwidths to 3% and spike losses —
		// the previously binding rows change completely.
		cp := *base
		cp.Paths = append([]Path(nil), base.Paths...)
		cp.Rate *= 4
		for i := range cp.Paths {
			cp.Paths[i].Bandwidth *= 0.03
			cp.Paths[i].Loss = 0.9 * rng.Float64()
		}
		wsol, err := warm.Resolve(&cp)
		if err != nil {
			t.Fatalf("traj %d: warm resolve after violent drift: %v", traj, err)
		}
		csol, err := SolveQuality(&cp)
		if err != nil {
			t.Fatal(err)
		}
		if gap := abs64(wsol.Quality - csol.Quality); gap > 1e-6 {
			t.Fatalf("traj %d: warm %.12f vs cold %.12f after fallback", traj, wsol.Quality, csol.Quality)
		}
		if wsol.Stats.Warm && !wsol.Stats.PhaseISkipped {
			fellBack++
		}
	}
	if fellBack == 0 {
		t.Fatal("violent drift never forced a basis fallback; the repair path is untested")
	}
}

// TestResolveShapeChangeGoesCold verifies that changing the network
// shape (path count, transmissions, cost-boundedness) between Resolve
// calls transparently re-primes instead of reusing stale state.
func TestResolveShapeChangeGoesCold(t *testing.T) {
	rng := rand.New(rand.NewPCG(0x5a5e, 1))
	warm := NewSolver()
	a := diffRandomNetwork(rng, 3, 2)
	if _, err := warm.Resolve(a); err != nil {
		t.Fatal(err)
	}

	b := diffRandomNetwork(rng, 4, 2) // path count changed
	sol, err := warm.Resolve(b)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Stats.Warm {
		t.Fatal("shape change (paths) reused warm state")
	}

	c := diffRandomNetwork(rng, 4, 3) // transmissions changed
	if sol, err = warm.Resolve(c); err != nil {
		t.Fatal(err)
	}
	if sol.Stats.Warm {
		t.Fatal("shape change (transmissions) reused warm state")
	}

	d := *c // cost bound flips finite → infinite: row structure changes
	d.CostBound = inf()
	if sol, err = warm.Resolve(&d); err != nil {
		t.Fatal(err)
	}
	if sol.Stats.Warm {
		t.Fatal("cost-boundedness change reused warm state")
	}

	// Same shape again: warm.
	e := driftNetwork(rng, &d, 0.05)
	if sol, err = warm.Resolve(e); err != nil {
		t.Fatal(err)
	}
	if !sol.Stats.Warm {
		t.Fatal("same-shape re-solve did not reuse warm state")
	}
	ref, err := SolveQuality(e)
	if err != nil {
		t.Fatal(err)
	}
	if gap := abs64(sol.Quality - ref.Quality); gap > 1e-6 {
		t.Fatalf("warm %.12f vs cold %.12f after shape churn", sol.Quality, ref.Quality)
	}
}

func inf() float64 { return math.Inf(1) }

// TestResolveConcurrentSolvers runs independent warm solvers on
// concurrent drift trajectories — the race detector must stay quiet
// (solver state is strictly per-instance; nothing warm is shared).
func TestResolveConcurrentSolvers(t *testing.T) {
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, 99))
			warm := NewSolver()
			if seed%2 == 0 {
				warm.DenseThreshold = -1 // half the workers on the CG path
			}
			base := diffRandomNetwork(rng, 3, 2)
			net := base
			for step := 0; step < 8; step++ {
				sol, err := warm.Resolve(net)
				if err != nil {
					t.Errorf("worker %d step %d: %v", seed, step, err)
					return
				}
				if sol.Quality < 0 || sol.Quality > 1 {
					t.Errorf("worker %d step %d: quality %v", seed, step, sol.Quality)
					return
				}
				net = driftNetwork(rng, net, 0.08)
			}
		}(uint64(w))
	}
	wg.Wait()
}

// TestResolveTrimsPoolOnDriftRing replays a 120×2 drift ring — the same
// rounds revisited, as a served session's estimates wander — through
// warm quality and min-cost solvers until their pools pass
// cgTrimTrigger. The solve that grows a pool that large must trim it to
// cgTrimKeep columns before it returns, so the next re-solve starts from
// at most that many, and every re-solve must still match a cold solve to
// 1e-6.
func TestResolveTrimsPoolOnDriftRing(t *testing.T) {
	if testing.Short() {
		t.Skip("CG-scale trajectory is slow under -short")
	}
	rng := rand.New(rand.NewPCG(2, 40))
	ring := []*Network{diffRandomNetwork(rng, 120, 2)}
	for len(ring) < 4 {
		ring = append(ring, driftNetwork(rng, ring[len(ring)-1], 0.1))
	}
	// A min-cost floor within 0.1% of the ring's lowest quality optimum
	// keeps cost-reduced pricing growing the pool; fleet-cg's floors, at
	// 90% of it, leave 40×4 min-cost pools at a few hundred columns.
	floor := 1.0
	for _, n := range ring {
		sol, err := SolveQuality(n)
		if err != nil {
			t.Fatal(err)
		}
		floor = min(floor, 0.999*sol.Quality)
	}
	for _, tc := range []struct {
		name       string
		warm, cold func(*Solver, *Network) (*Solution, error)
		value      func(*Solution) float64
	}{
		{"quality", (*Solver).Resolve, (*Solver).SolveQuality, func(s *Solution) float64 { return s.Quality }},
		{"mincost",
			func(s *Solver, n *Network) (*Solution, error) { return s.ResolveMinCost(n, floor) },
			func(s *Solver, n *Network) (*Solution, error) { return s.SolveMinCost(n, floor) },
			func(s *Solution) float64 { return s.Cost() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			warm, cold := NewSolver(), NewSolver()
			pool, trims := 0, 0
			for step := 0; step < 6*len(ring) && trims < 3; step++ {
				n := ring[step%len(ring)]
				wsol, err := tc.warm(warm, n)
				if err != nil {
					t.Fatalf("step %d: warm: %v", step, err)
				}
				if pool > cgTrimTrigger {
					if !wsol.Stats.Warm || wsol.Stats.PoolHits > cgTrimKeep {
						t.Fatalf("step %d: a %d-column pool re-solved with %d pool hits (warm %v), want a trim to ≤ %d",
							step, pool, wsol.Stats.PoolHits, wsol.Stats.Warm, cgTrimKeep)
					}
					trims++
				}
				pool = wsol.Stats.Columns
				csol, err := tc.cold(cold, n)
				if err != nil {
					t.Fatalf("step %d: cold: %v", step, err)
				}
				w, c := tc.value(wsol), tc.value(csol)
				if gap := abs64(w - c); gap > 1e-6*(1+abs64(c)) {
					t.Fatalf("step %d: warm %.12g vs cold %.12g", step, w, c)
				}
			}
			if trims == 0 {
				t.Fatalf("pool never passed %d columns: nothing trimmed", cgTrimTrigger)
			}
		})
	}
}
