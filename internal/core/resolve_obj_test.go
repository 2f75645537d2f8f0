package core

import (
	"errors"
	"math/rand/v2"
	"slices"
	"testing"

	"dmc/internal/lp"
)

// minCostTrajectory replays one drift trajectory through ResolveMinCost
// and checks every step against a cold SolveMinCost of the identical
// instance: costs and achieved qualities must agree to 1e-6, and every
// re-solve after the prime must report warm.
func minCostTrajectory(t *testing.T, rng *rand.Rand, warm *Solver, base *Network, floor float64, steps int, wantDispatch Dispatch) (skipped int) {
	t.Helper()
	cold := NewSolver()
	cold.DenseThreshold = warm.DenseThreshold

	first, err := warm.ResolveMinCost(base, floor)
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
		net = driftNetwork(rng, net, 0.08)
		wsol, werr := warm.ResolveMinCost(net, floor)
		csol, cerr := cold.SolveMinCost(net, floor)
		if cerr != nil {
			// The drift can push the floor infeasible; the warm path
			// must reach the same verdict.
			if !errors.Is(cerr, ErrInfeasible) {
				t.Fatalf("step %d: cold: %v", step, cerr)
			}
			if !errors.Is(werr, ErrInfeasible) {
				t.Fatalf("step %d: cold infeasible but warm returned %v", step, werr)
			}
			// The state re-primes next call; keep drifting.
			continue
		}
		if werr != nil {
			t.Fatalf("step %d: warm resolve: %v", step, werr)
		}
		if gap := abs64(wsol.Cost() - csol.Cost()); gap > 1e-6*(1+csol.Cost()) {
			t.Fatalf("step %d: warm cost %v vs cold %v (gap %v, dispatch %v)",
				step, wsol.Cost(), csol.Cost(), gap, wsol.Stats.Dispatch)
		}
		if wsol.Quality < floor-1e-6 {
			t.Fatalf("step %d: warm quality %v below floor %v", step, wsol.Quality, floor)
		}
		if wsol.Stats.PhaseISkipped {
			skipped++
		}
	}
	return skipped
}

// TestResolveMinCostDifferentialDense replays min-cost drift
// trajectories through the dense dispatch.
func TestResolveMinCostDifferentialDense(t *testing.T) {
	rng := rand.New(rand.NewPCG(0x3c05, 1))
	skipped := 0
	for traj := 0; traj < 25; traj++ {
		warm := NewSolver()
		base := diffRandomNetwork(rng, 2+rng.IntN(3), 2)
		skipped += minCostTrajectory(t, rng, warm, base, 0.25, 6, DispatchDense)
	}
	if skipped == 0 {
		t.Fatal("no dense min-cost re-solve ever skipped Phase I; the warm basis path is dead")
	}
}

// TestResolveMinCostDifferentialCG forces column generation and replays
// min-cost drift trajectories through the persistent pool + warm basis
// + incremental append path.
func TestResolveMinCostDifferentialCG(t *testing.T) {
	rng := rand.New(rand.NewPCG(0x3c05, 2))
	warmed := 0
	for traj := 0; traj < 20; traj++ {
		warm := NewSolver()
		warm.DenseThreshold = -1
		base := diffRandomNetwork(rng, 3+rng.IntN(3), 2+rng.IntN(2))
		cold := NewSolver()
		cold.DenseThreshold = -1

		if _, err := warm.ResolveMinCost(base, 0.25); err != nil {
			t.Fatalf("prime: %v", err)
		}
		net := base
		for step := 0; step < 6; step++ {
			net = driftNetwork(rng, net, 0.08)
			wsol, err := warm.ResolveMinCost(net, 0.25)
			if err != nil {
				t.Fatalf("traj %d step %d: %v", traj, step, err)
			}
			csol, err := cold.SolveMinCost(net, 0.25)
			if err != nil {
				t.Fatalf("traj %d step %d cold: %v", traj, step, err)
			}
			if gap := abs64(wsol.Cost() - csol.Cost()); gap > 1e-6*(1+csol.Cost()) {
				t.Fatalf("traj %d step %d: warm cost %v vs cold %v (gap %v)",
					traj, step, wsol.Cost(), csol.Cost(), gap)
			}
			if !wsol.Stats.Warm || wsol.Stats.Dispatch != DispatchCG {
				t.Fatalf("traj %d step %d: stats %+v", traj, step, wsol.Stats)
			}
			if wsol.Stats.PoolHits == 0 {
				t.Fatalf("traj %d step %d: warm CG min-cost reported no pool hits", traj, step)
			}
			warmed++
		}
	}
	if warmed == 0 {
		t.Fatal("no warm CG min-cost step ever ran")
	}
}

// TestResolveMinCostInfeasibleDrift: a floor that drifts infeasible must
// report ErrInfeasible from the warm path (cold-certified), then
// re-prime transparently when it becomes feasible again.
func TestResolveMinCostInfeasibleDrift(t *testing.T) {
	warm := NewSolver()
	n := costedNetwork() // qmax = 1 at base rate
	if _, err := warm.ResolveMinCost(n, 0.99); err != nil {
		t.Fatal(err)
	}
	over := *n
	over.Rate = 200 * Mbps // capacity 100 Mbps: quality 1 impossible, 0.99 too
	if _, err := warm.ResolveMinCost(&over, 0.99); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("want ErrInfeasible after drift, got %v", err)
	}
	sol, err := warm.ResolveMinCost(n, 0.99)
	if err != nil {
		t.Fatalf("re-prime after infeasible: %v", err)
	}
	if sol.Quality < 0.99-1e-9 {
		t.Fatalf("re-primed quality %v", sol.Quality)
	}
}

// randomResolveTimeouts derives a deterministic-delay timeout table for
// the drifted network — timeouts re-derived each step, as an adaptive
// deployment would.
func randomResolveTimeouts(t *testing.T, n *Network) *Timeouts {
	t.Helper()
	to, err := DeterministicTimeouts(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	return to
}

// TestResolveQualityRandomDifferential replays random-delay drift
// trajectories through dense and CG dispatch: warm re-solves must match
// cold SolveQualityRandom to 1e-6 while delays, losses, and the timeout
// table drift together.
func TestResolveQualityRandomDifferential(t *testing.T) {
	rng := rand.New(rand.NewPCG(0x3c05, 3))
	for _, forceCG := range []bool{false, true} {
		warmed, skipped := 0, 0
		for traj := 0; traj < 15; traj++ {
			warm := NewSolver()
			cold := NewSolver()
			if forceCG {
				warm.DenseThreshold = -1
				cold.DenseThreshold = -1
			}
			base := diffRandomNetwork(rng, 2+rng.IntN(3), 2)
			if _, err := warm.ResolveQualityRandom(base, randomResolveTimeouts(t, base)); err != nil {
				t.Fatalf("prime: %v", err)
			}
			net := base
			for step := 0; step < 6; step++ {
				net = driftNetwork(rng, net, 0.08)
				to := randomResolveTimeouts(t, net)
				wsol, err := warm.ResolveQualityRandom(net, to)
				if err != nil {
					t.Fatalf("cg=%v traj %d step %d: %v", forceCG, traj, step, err)
				}
				csol, err := cold.SolveQualityRandom(net, to)
				if err != nil {
					t.Fatalf("cg=%v traj %d step %d cold: %v", forceCG, traj, step, err)
				}
				if gap := abs64(wsol.Quality - csol.Quality); gap > 1e-6 {
					t.Fatalf("cg=%v traj %d step %d: warm %.12f vs cold %.12f (gap %.3e)",
						forceCG, traj, step, wsol.Quality, csol.Quality, gap)
				}
				if !wsol.Stats.Warm {
					t.Fatalf("cg=%v traj %d step %d: not warm: %+v", forceCG, traj, step, wsol.Stats)
				}
				if forceCG && wsol.Stats.Dispatch != DispatchCG {
					t.Fatalf("traj %d: dispatch %v", traj, wsol.Stats.Dispatch)
				}
				warmed++
				if wsol.Stats.PhaseISkipped {
					skipped++
				}
			}
		}
		if warmed == 0 {
			t.Fatalf("cg=%v: no warm random re-solve ever ran", forceCG)
		}
		if skipped == 0 {
			t.Fatalf("cg=%v: no random re-solve ever warm-started its first master", forceCG)
		}
	}
}

// TestResolveObjectiveSwitchGoesCold: switching objectives on one
// Solver must never reuse the other objective's columns or basis.
func TestResolveObjectiveSwitchGoesCold(t *testing.T) {
	rng := rand.New(rand.NewPCG(0x3c05, 4))
	warm := NewSolver()
	n := diffRandomNetwork(rng, 3, 2)
	if _, err := warm.Resolve(n); err != nil {
		t.Fatal(err)
	}
	sol, err := warm.ResolveMinCost(n, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Stats.Warm {
		t.Fatal("objective switch (quality→min-cost) reused warm state")
	}
	rsol, err := warm.ResolveQualityRandom(n, randomResolveTimeouts(t, n))
	if err != nil {
		t.Fatal(err)
	}
	if rsol.Stats.Warm {
		t.Fatal("objective switch (min-cost→random) reused warm state")
	}
	// Same objective again: warm.
	d := driftNetwork(rng, n, 0.05)
	rsol2, err := warm.ResolveQualityRandom(d, randomResolveTimeouts(t, d))
	if err != nil {
		t.Fatal(err)
	}
	if !rsol2.Stats.Warm {
		t.Fatal("same-objective re-solve did not reuse warm state")
	}
	ref, err := SolveQualityRandom(d, randomResolveTimeouts(t, d))
	if err != nil {
		t.Fatal(err)
	}
	if gap := abs64(rsol2.Quality - ref.Quality); gap > 1e-6 {
		t.Fatalf("warm %.12f vs cold %.12f after objective churn", rsol2.Quality, ref.Quality)
	}
}

// TestResolveMinCostFloorDrift: the quality floor itself may drift
// between warm re-solves (it is an RHS, not network shape); results
// must keep matching cold solves.
func TestResolveMinCostFloorDrift(t *testing.T) {
	rng := rand.New(rand.NewPCG(0x3c05, 5))
	warm := NewSolver()
	cold := NewSolver()
	base := diffRandomNetwork(rng, 3, 2)
	if _, err := warm.ResolveMinCost(base, 0.2); err != nil {
		t.Fatal(err)
	}
	floors := []float64{0.25, 0.4, 0.1, 0.55, 0.3}
	net := base
	for step, floor := range floors {
		net = driftNetwork(rng, net, 0.05)
		wsol, err := warm.ResolveMinCost(net, floor)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if !wsol.Stats.Warm {
			t.Fatalf("step %d: floor drift lost the warm state", step)
		}
		csol, err := cold.SolveMinCost(net, floor)
		if err != nil {
			t.Fatalf("step %d cold: %v", step, err)
		}
		if gap := abs64(wsol.Cost() - csol.Cost()); gap > 1e-6*(1+csol.Cost()) {
			t.Fatalf("step %d: warm cost %v vs cold %v", step, wsol.Cost(), csol.Cost())
		}
	}
}

// TestResolveMinCostCGScale runs one realistic CG-scale min-cost
// trajectory (40 paths × 4 transmissions, 2.8M combinations): warm
// re-solves must agree with cold and reuse the pool.
func TestResolveMinCostCGScale(t *testing.T) {
	if testing.Short() {
		t.Skip("CG-scale trajectory is slow under -short")
	}
	rng := rand.New(rand.NewPCG(0x3c05, 6))
	base := diffRandomNetwork(rng, 40, 4)
	warm, cold := NewSolver(), NewSolver()
	if _, err := warm.ResolveMinCost(base, 0.3); err != nil {
		t.Fatal(err)
	}
	net := base
	for step := 0; step < 3; step++ {
		net = driftNetwork(rng, net, 0.05)
		wsol, err := warm.ResolveMinCost(net, 0.3)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		csol, err := cold.SolveMinCost(net, 0.3)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if gap := abs64(wsol.Cost() - csol.Cost()); gap > 1e-6*(1+csol.Cost()) {
			t.Fatalf("step %d: warm %v vs cold %v", step, wsol.Cost(), csol.Cost())
		}
		if wsol.Stats.PoolHits == 0 {
			t.Fatalf("step %d: pool never hit", step)
		}
	}
}

// oneShotBetweenResolves runs resolve(a), a one-shot solve of b (a
// different shape), then resolve(drift(a)) on one Solver. The one-shot
// must leave the warm state alone — the last re-solve still runs warm —
// and its own answer must not move when that re-solve rewrites the
// Solver's buffers: a one-shot Solution owns its storage.
func oneShotBetweenResolves(t *testing.T, rng *rand.Rand, a, b *Network, want Dispatch,
	resolve, oneShot func(*Network) (*Solution, error)) {
	t.Helper()
	if _, err := resolve(a); err != nil {
		t.Fatalf("prime: %v", err)
	}
	one, err := oneShot(b)
	if err != nil {
		t.Fatalf("one-shot: %v", err)
	}
	if one.Stats.Dispatch != want {
		t.Fatalf("one-shot dispatch %v, want %v", one.Stats.Dispatch, want)
	}
	x, q := append([]float64(nil), one.X...), one.Quality
	combos := make([]Combo, len(one.Combos()))
	for l, c := range one.Combos() {
		combos[l] = append(Combo(nil), c...)
	}
	lpRows := problemValues(one.Problem())

	sol, err := resolve(driftNetwork(rng, a, 0.05))
	if err != nil {
		t.Fatalf("re-solve: %v", err)
	}
	if !sol.Stats.Warm || sol.Stats.Dispatch != want {
		t.Fatalf("re-solve after a one-shot: stats %+v, want warm %v", sol.Stats, want)
	}
	if one.Quality != q || len(one.X) != len(x) || len(one.Combos()) != len(combos) {
		t.Fatalf("one-shot answer changed under a later re-solve: quality %v → %v, %d → %d columns",
			q, one.Quality, len(x), len(one.X))
	}
	for l := range x {
		if one.X[l] != x[l] || !one.Combos()[l].Equal(combos[l]) {
			t.Fatalf("one-shot column %d changed under a later re-solve: %v=%v → %v=%v",
				l, combos[l], x[l], one.Combos()[l], one.X[l])
		}
	}
	if !slices.Equal(problemValues(one.Problem()), lpRows) {
		t.Fatal("one-shot LP changed under a later re-solve")
	}
}

// problemValues flattens an LP's objective, coefficients and right-hand
// sides into one fresh slice.
func problemValues(p *lp.Problem) []float64 {
	out := append([]float64(nil), p.Objective...)
	for _, c := range p.Constraints {
		out = append(out, c.Coeffs...)
		out = append(out, c.RHS)
	}
	return out
}

// TestOneShotBetweenResolvesQuality pins the engine's storage contract
// for the quality objective on both dispatches.
func TestOneShotBetweenResolvesQuality(t *testing.T) {
	rng := rand.New(rand.NewPCG(0x3c05, 7))
	for _, tc := range []struct {
		paths, trans int
		want         Dispatch
	}{{4, 3, DispatchDense}, {12, 3, DispatchCG}} {
		s := NewSolver()
		a := diffRandomNetwork(rng, tc.paths, tc.trans)
		b := diffRandomNetwork(rng, tc.paths+1, tc.trans)
		oneShotBetweenResolves(t, rng, a, b, tc.want, s.Resolve, s.SolveQuality)
	}
}

// TestOneShotBetweenResolvesMinCost pins the engine's storage contract
// for the §VI-A objective on both dispatches.
func TestOneShotBetweenResolvesMinCost(t *testing.T) {
	rng := rand.New(rand.NewPCG(0x3c05, 8))
	for _, tc := range []struct {
		paths, trans int
		want         Dispatch
	}{{4, 3, DispatchDense}, {12, 3, DispatchCG}} {
		s := NewSolver()
		a := diffRandomNetwork(rng, tc.paths, tc.trans)
		b := diffRandomNetwork(rng, tc.paths+1, tc.trans)
		resolve := func(n *Network) (*Solution, error) { return s.ResolveMinCost(n, 0.25) }
		oneShot := func(n *Network) (*Solution, error) { return s.SolveMinCost(n, 0.25) }
		oneShotBetweenResolves(t, rng, a, b, tc.want, resolve, oneShot)
	}
}

// TestOneShotBetweenResolvesRandom pins the engine's storage contract
// for the §VI-B objective on both dispatches.
func TestOneShotBetweenResolvesRandom(t *testing.T) {
	rng := rand.New(rand.NewPCG(0x3c05, 9))
	for _, tc := range []struct {
		paths int
		want  Dispatch
	}{{4, DispatchDense}, {46, DispatchCG}} {
		s := NewSolver()
		a := diffRandomNetwork(rng, tc.paths, 2)
		b := diffRandomNetwork(rng, tc.paths+1, 2)
		resolve := func(n *Network) (*Solution, error) {
			return s.ResolveQualityRandom(n, randomResolveTimeouts(t, n))
		}
		oneShot := func(n *Network) (*Solution, error) {
			return s.SolveQualityRandom(n, randomResolveTimeouts(t, n))
		}
		oneShotBetweenResolves(t, rng, a, b, tc.want, resolve, oneShot)
	}
}
