package core

import (
	"math"
	"math/big"
	"math/rand/v2"
	"testing"
	"time"

	"dmc/internal/dist"
	"dmc/internal/lp"
	"dmc/internal/ratlp"
)

// randomDelayNetwork draws a random m = 2 network mixing shifted-gamma
// and deterministic (nil RandDelay) path delays.
func randomDelayNetwork(rng *rand.Rand, paths int) *Network {
	ps := make([]Path, paths)
	var total float64
	for i := range ps {
		bw := (10 + rng.Float64()*90) * Mbps
		total += bw
		ps[i] = Path{
			Bandwidth: bw,
			Delay:     time.Duration(50+rng.IntN(350)) * time.Millisecond,
			Loss:      rng.Float64() * 0.3,
			Cost:      rng.Float64(),
		}
		if rng.IntN(2) == 0 {
			ps[i].RandDelay = dist.ShiftedGamma{
				Loc:   ps[i].Delay,
				Shape: 3 + rng.Float64()*10,
				Scale: time.Duration(1+rng.IntN(5)) * time.Millisecond,
			}
		}
	}
	n := NewNetwork(0.8*total, time.Second, ps...)
	n.Transmissions = 2
	if rng.IntN(2) == 0 {
		n.CostBound = total // finite budget half the time: exercises the cost row
	}
	return n
}

// randomTimeouts builds a deterministic-delay timeout table with a
// random subset of pairs left undefined (the Eq. 35 t₁,₁ situation).
func randomTimeouts(rng *rand.Rand, n *Network) *Timeouts {
	to, err := DeterministicTimeouts(n, 50*time.Millisecond)
	if err != nil {
		panic(err)
	}
	for i := range n.Paths {
		for j := range n.Paths {
			if rng.IntN(4) == 0 {
				to.Set(i, j, -1)
			}
		}
	}
	return to
}

// exactRandomQuality solves the dense random-delay LP with exact
// rational arithmetic over the float-derived coefficients — the ratlp
// reference the CG solve must match (it certifies the LP machinery;
// the Eq. 27–30 coefficient evaluation itself is shared bit-for-bit
// between the dense and CG paths).
func exactRandomQuality(t *testing.T, n *Network, to *Timeouts) float64 {
	t.Helper()
	m, err := newModel(n)
	if err != nil {
		t.Fatal(err)
	}
	var ro randomObjective
	ro.load(m, to)
	cols := m.computeColumns(&ro)
	nVars, base := cols.len(), m.base
	λ := new(big.Rat).SetFloat64(n.Rate)

	obj := make([]*big.Rat, nVars)
	for l, p := range cols.delivery {
		obj[l] = new(big.Rat).SetFloat64(p)
	}
	prob := ratlp.NewProblem(lp.Maximize, obj)
	bw := make([][]*big.Rat, base)
	for i := 1; i < base; i++ {
		bw[i] = make([]*big.Rat, nVars)
		for l := range bw[i] {
			bw[i][l] = new(big.Rat)
		}
	}
	for l := 0; l < nVars; l++ {
		for _, ps := range cols.pathShares(l, nil) {
			bw[ps.path][l].Mul(λ, new(big.Rat).SetFloat64(ps.share))
		}
	}
	for i := 1; i < base; i++ {
		prob.AddConstraint(bw[i], lp.LE, new(big.Rat).SetFloat64(m.paths[i].Bandwidth))
	}
	if !math.IsInf(n.CostBound, 1) {
		row := make([]*big.Rat, nVars)
		for l, c := range cols.costs {
			row[l] = new(big.Rat).Mul(λ, new(big.Rat).SetFloat64(c))
		}
		prob.AddConstraint(row, lp.LE, new(big.Rat).SetFloat64(n.CostBound))
	}
	ones := make([]*big.Rat, nVars)
	for l := range ones {
		ones[l] = big.NewRat(1, 1)
	}
	prob.AddConstraint(ones, lp.EQ, big.NewRat(1, 1))

	sol, err := ratlp.Solve(prob)
	if err != nil || sol.Status != lp.Optimal {
		t.Fatalf("exact random LP: %v / %v", err, sol.Status)
	}
	q, _ := sol.Objective.Float64()
	return q
}

// TestRandomCGMatchesExact is the §VI-B differential property test: on
// ≥100 randomized networks the column-generation solve must agree with
// both the dense float solve and the exact rational solver to 1e-6,
// including undefined-timeout pairs and finite cost budgets.
func TestRandomCGMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewPCG(0x4a7d, 0x1))
	cg := forceCG() // force column generation at every size
	for trial := 0; trial < 110; trial++ {
		n := randomDelayNetwork(rng, 2+rng.IntN(3)) // 2–4 paths: 9–25 pairs
		to := randomTimeouts(rng, n)

		exact := exactRandomQuality(t, n, to)
		dsol, err := SolveQualityRandom(n, to)
		if err != nil {
			t.Fatalf("trial %d: dense: %v", trial, err)
		}
		csol, err := cg.SolveQualityRandom(n, to)
		if err != nil {
			t.Fatalf("trial %d: cg: %v", trial, err)
		}
		if csol.Stats.Dispatch != DispatchCG || dsol.Stats.Dispatch != DispatchDense {
			t.Fatalf("trial %d: dispatches %v / %v", trial, csol.Stats.Dispatch, dsol.Stats.Dispatch)
		}
		if diff := math.Abs(csol.Quality - exact); diff > 1e-6 {
			t.Errorf("trial %d: cg quality %v vs exact %v (diff %v, %d iters, %d columns)",
				trial, csol.Quality, exact, diff, csol.Stats.CGIterations, csol.Stats.Columns)
		}
		if diff := math.Abs(dsol.Quality - exact); diff > 1e-6 {
			t.Errorf("trial %d: dense quality %v vs exact %v", trial, dsol.Quality, exact)
		}
		// CG must respect bandwidth caps like the dense path.
		for i, p := range n.Paths {
			if r := csol.SentRate(i); r > p.Bandwidth*(1+1e-6) {
				t.Errorf("trial %d: cg oversubscribed path %d: %v > %v", trial, i, r, p.Bandwidth)
			}
		}
	}
}

// TestRandomCGDispatchAtScale: a path count whose pair space exceeds
// the dense threshold must dispatch SolveQualityRandom to column
// generation automatically and agree with a forced dense solve of the
// same instance.
func TestRandomCGDispatchAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("large random-delay differential is slow under -short")
	}
	rng := rand.New(rand.NewPCG(0x4a7d, 0x2))
	paths := 120 // (121)² = 14641 pairs > denseThreshold
	n := randomDelayNetwork(rng, paths)
	to := randomTimeouts(rng, n)

	sol, err := SolveQualityRandom(n, to)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Stats.Dispatch != DispatchCG {
		t.Fatalf("dispatch %v, want %v", sol.Stats.Dispatch, DispatchCG)
	}
	if sol.Stats.Columns <= 0 || sol.Stats.CGIterations <= 0 {
		t.Fatalf("stats not populated: %+v", sol.Stats)
	}

	dsol, err := forceDense().SolveQualityRandom(n, to)
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(sol.Quality - dsol.Quality); diff > 1e-6 {
		t.Fatalf("cg quality %v vs dense %v (diff %v)", sol.Quality, dsol.Quality, diff)
	}
	// Degenerate instances (binding budget near quality 1) can need a
	// sizeable pool; the win is never materializing the whole space.
	if sol.Stats.Columns >= dsol.Stats.Columns/3 {
		t.Errorf("cg master held %d of %d dense columns; generation is not sparse",
			sol.Stats.Columns, dsol.Stats.Columns)
	}
}

// TestRandomCGErrors mirrors the dense path's argument validation on
// the forced-CG solver.
func TestRandomCGErrors(t *testing.T) {
	cg := forceCG()
	n := tableVNetwork()
	to, err := DeterministicTimeouts(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	n3 := *n
	n3.Transmissions = 3
	if _, err := cg.SolveQualityRandom(&n3, to); err != ErrRandomNeedsTwoTransmissions {
		t.Errorf("want ErrRandomNeedsTwoTransmissions, got %v", err)
	}
	if _, err := cg.SolveQualityRandom(n, nil); err == nil {
		t.Error("nil timeouts accepted")
	}
	if _, err := cg.SolveQualityRandom(n, NewTimeouts(5)); err == nil {
		t.Error("mis-sized timeouts accepted")
	}
	bad := *n
	bad.Rate = -1
	if _, err := cg.SolveQualityRandom(&bad, to); err == nil {
		t.Error("invalid network accepted")
	}
}

// TestRandomCGExperiment2 pins the paper's Experiment 2 quality on the
// CG path: forcing column generation on the Table V network must
// reproduce Q ≈ 93.3 % exactly like the dense solve does.
func TestRandomCGExperiment2(t *testing.T) {
	n := tableVNetwork()
	to, err := OptimalTimeouts(n, TimeoutOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cg := forceCG()
	s, err := cg.SolveQualityRandom(n, to)
	if err != nil {
		t.Fatal(err)
	}
	if s.Quality < 0.930 || s.Quality > 0.9334 {
		t.Errorf("quality = %v, want ≈ 0.9333", s.Quality)
	}
	dense, err := SolveQualityRandom(n, to)
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(s.Quality - dense.Quality); diff > 1e-9 {
		t.Errorf("cg %v vs dense %v (diff %v)", s.Quality, dense.Quality, diff)
	}
}

// TestRandomLoadAllocsLinear: randomObjective.load takes each path's
// delay distribution once, so tabulating a 120-path network's 14,400
// pairs allocates in proportion to its paths, not to its pairs. Boxing
// one deterministic delay per pair made about 14,400 allocations here.
func TestRandomLoadAllocsLinear(t *testing.T) {
	const paths = 120
	n := diffRandomNetwork(rand.New(rand.NewPCG(7, paths)), paths, 2)
	to, err := DeterministicTimeouts(n, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	m, err := newSparseModel(n)
	if err != nil {
		t.Fatal(err)
	}
	var ro randomObjective
	allocs := testing.AllocsPerRun(3, func() { ro.load(m, to) })
	if allocs > 4*paths {
		t.Fatalf("load of %d paths made %.0f allocations, want at most %d", paths, allocs, 4*paths)
	}
	t.Logf("%d paths: %.0f allocations per load", paths, allocs)
}
