package core

import (
	"math"
	"math/rand/v2"
	"testing"
	"time"
)

// forceCG returns a Solver that dispatches every solve to column
// generation regardless of size.
func forceCG() *Solver {
	s := NewSolver()
	s.DenseThreshold = -1
	return s
}

// forceDense returns a Solver that never dispatches to CG below the
// dense hard limit.
func forceDense() *Solver {
	s := NewSolver()
	s.DenseThreshold = DenseLimit
	return s
}

// TestCGMatchesDense: column generation must reach the same optimum as
// dense enumeration on every tractable size, including cost-bounded
// instances, m = 1, and lossless paths.
func TestCGMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewPCG(0xc6, 0xd3))
	for trial := 0; trial < 150; trial++ {
		paths := 2 + rng.IntN(7)         // 2–8 paths
		transmissions := 1 + rng.IntN(3) // 1–3 transmissions
		n := diffRandomNetwork(rng, paths, transmissions)
		switch trial % 3 {
		case 1:
			n.CostBound = math.Inf(1) // no cost row
		case 2:
			n.Paths[0].Loss = 0 // zero-survival cutoff inside combos
		}

		dsol, err := forceDense().SolveQuality(n)
		if err != nil {
			t.Fatalf("trial %d: dense: %v", trial, err)
		}
		csol, err := forceCG().SolveQuality(n)
		if err != nil {
			t.Fatalf("trial %d: cg: %v", trial, err)
		}
		if csol.Stats.Dispatch != DispatchCG {
			t.Fatalf("trial %d: dispatch %v, want cg", trial, csol.Stats.Dispatch)
		}
		if diff := math.Abs(dsol.Quality - csol.Quality); diff > 1e-7 {
			t.Errorf("trial %d (paths=%d m=%d): dense %v vs cg %v (diff %v)",
				trial, paths, transmissions, dsol.Quality, csol.Quality, diff)
		}
		// The CG split must be a distribution over its generated columns.
		var mass float64
		for _, x := range csol.X {
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

// TestCGLargeNetwork is the scaling acceptance check: a 40-path,
// 4-transmission network (a 2.8M-combination space, beyond what dense
// enumeration can reasonably materialize) must solve through the
// automatic CG dispatch — and fast. The wall-clock bound is generous to
// absorb -race and loaded CI; the benchmark suite tracks the real time
// (~25ms on a dev machine).
func TestCGLargeNetwork(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 404))
	n := diffRandomNetwork(rng, 40, 4)
	start := time.Now()
	sol, err := NewSolver().SolveQuality(n)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if sol.Stats.Dispatch != DispatchCG {
		t.Errorf("dispatch = %v, want cg", sol.Stats.Dispatch)
	}
	if sol.Quality <= 0 || sol.Quality > 1 {
		t.Errorf("quality = %v outside (0,1]", sol.Quality)
	}
	if elapsed > 5*time.Second {
		t.Errorf("40-path 4-transmission solve took %v, want well under a second unloaded", elapsed)
	}
	t.Logf("40x4: quality=%.6f iterations=%d columns=%d in %v",
		sol.Quality, sol.Stats.CGIterations, sol.Stats.Columns, elapsed)
}

// TestCGConvergesAtScale: cold quality column generation must certify
// its optimum within cgMaxIterations on 450- and 500-path m = 2
// networks. An oracle that returned the 32 best combinations of a round
// whatever their first attempt ran past the cap on exactly these
// instances, which /v1/solve, having no path-count limit, answered with
// a 500; one winner per first path converges in 70–90 rounds.
func TestCGConvergesAtScale(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("500-path masters are slow under -short and -race")
	}
	for _, tc := range []struct {
		paths int
		seed  uint64
	}{{450, 1}, {500, 1}, {500, 2}} {
		n := diffRandomNetwork(rand.New(rand.NewPCG(tc.seed, uint64(tc.paths))), tc.paths, 2)
		sol, err := SolveQuality(n)
		if err != nil {
			t.Fatalf("%d×2 seed %d: %v", tc.paths, tc.seed, err)
		}
		if sol.Stats.Dispatch != DispatchCG || sol.Quality <= 0 || sol.Quality > 1 {
			t.Fatalf("%d×2 seed %d: %v dispatch, quality %v", tc.paths, tc.seed, sol.Stats.Dispatch, sol.Quality)
		}
		t.Logf("%d×2 seed %d: quality %.9f in %d iterations over %d columns",
			tc.paths, tc.seed, sol.Quality, sol.Stats.CGIterations, sol.Stats.Columns)
	}
}

// TestCGWorstCaseInTimeTree: when every path is fast enough that every
// combination is in time, the pricing tree has no lateness pruning —
// the bound alone must keep the oracle tractable (the 41^5 ≈ 115M
// space must still solve quickly).
func TestCGWorstCaseInTimeTree(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	ps := make([]Path, 40)
	var total float64
	for i := range ps {
		bw := (10 + rng.Float64()*90) * Mbps
		total += bw
		ps[i] = Path{
			Bandwidth: bw,
			Delay:     time.Duration(1+rng.IntN(5)) * time.Millisecond,
			Loss:      rng.Float64() * 0.3,
			Cost:      rng.Float64(),
		}
	}
	n := NewNetwork(0.9*total, time.Second, ps...)
	n.Transmissions = 5
	n.CostBound = total
	sol, err := SolveQuality(n)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Stats.Dispatch != DispatchCG {
		t.Errorf("dispatch = %v, want cg", sol.Stats.Dispatch)
	}
	t.Logf("tiny-delay 40x5: quality=%.6f iterations=%d columns=%d",
		sol.Quality, sol.Stats.CGIterations, sol.Stats.Columns)
}

// TestCGSolutionAccessors: sparse solutions must answer Fraction,
// ActiveCombos, SentRate, Cost, and DropRate consistently with the
// dense solve.
func TestCGSolutionAccessors(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	n := diffRandomNetwork(rng, 4, 2)
	dsol, err := forceDense().SolveQuality(n)
	if err != nil {
		t.Fatal(err)
	}
	csol, err := forceCG().SolveQuality(n)
	if err != nil {
		t.Fatal(err)
	}
	var dCost, cCost = dsol.Cost(), csol.Cost()
	if math.Abs(dCost-cCost) > 1e-3*(1+math.Abs(dCost)) {
		t.Errorf("cost: dense %v vs cg %v", dCost, cCost)
	}
	// Every active dense combination must be queryable on the CG
	// solution (possibly at zero if the CG optimum uses different
	// columns of equal quality), and vice versa.
	for _, cs := range csol.ActiveCombos(1e-9) {
		if f := csol.Fraction(cs.Combo); f != cs.Fraction {
			t.Errorf("cg Fraction(%v) = %v, want %v", cs.Combo, f, cs.Fraction)
		}
	}
	if f := csol.Fraction(Combo{0, 0, 0}); f != 0 {
		t.Errorf("wrong-length combo fraction = %v, want 0", f)
	}
	var sent float64
	for i := range n.Paths {
		sent += csol.SentRate(i)
		if csol.SentRate(i) < -1e-9 {
			t.Errorf("negative sent rate on path %d", i)
		}
	}
	if csol.DropRate() < -1e-9 {
		t.Errorf("negative drop rate")
	}
}

// TestCGDeterministic: repeated CG solves of the same network must give
// identical results (the oracle and master are deterministic).
func TestCGDeterministic(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 19))
	n := diffRandomNetwork(rng, 12, 3)
	a, err := forceCG().SolveQuality(n)
	if err != nil {
		t.Fatal(err)
	}
	b, err := forceCG().SolveQuality(n)
	if err != nil {
		t.Fatal(err)
	}
	if a.Quality != b.Quality || len(a.X) != len(b.X) {
		t.Fatalf("CG not deterministic: %v/%d vs %v/%d", a.Quality, len(a.X), b.Quality, len(b.X))
	}
	for l := range a.X {
		if a.X[l] != b.X[l] {
			t.Fatalf("X[%d] differs: %v vs %v", l, a.X[l], b.X[l])
		}
	}
}

// TestDispatchThresholds: the automatic dispatch must pick the expected
// solve core per size.
func TestDispatchThresholds(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 29))
	cases := []struct {
		paths, m int
		want     Dispatch
	}{
		{4, 2, DispatchDense},  // 125 combos
		{10, 3, DispatchDense}, // 1331
		{44, 2, DispatchDense}, // 2025: the largest dense shape at m = 2
		{15, 3, DispatchCG},    // 4096: above the dense threshold
		{19, 3, DispatchCG},    // 8000
		{10, 4, DispatchCG},    // 14641
		{40, 4, DispatchCG},    // 2.8M
	}
	for _, tc := range cases {
		n := diffRandomNetwork(rng, tc.paths, tc.m)
		sol, err := SolveQuality(n)
		if err != nil {
			t.Fatalf("paths=%d m=%d: %v", tc.paths, tc.m, err)
		}
		if sol.Stats.Dispatch != tc.want {
			t.Errorf("paths=%d m=%d: dispatch %v, want %v", tc.paths, tc.m, sol.Stats.Dispatch, tc.want)
		}
	}
}

// TestCGPoolAllocatesCombosInChunks: a cold 80×4 quality solve pools
// 644–801 columns on these seeds, and the pool's flat tables, whose
// path digits hold every combination, grow by amortized appends, which
// keeps the whole solve under one allocation per four columns. The
// pooled combinations must stay distinct.
func TestCGPoolAllocatesCombosInChunks(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("CG-scale solves are slow under -short; -race pools drop at random")
	}
	for seed := uint64(1); seed <= 4; seed++ {
		n := diffRandomNetwork(rand.New(rand.NewPCG(seed, 40)), 80, 4)
		var sol *Solution
		allocs := testing.AllocsPerRun(2, func() {
			var err error
			if sol, err = SolveQuality(n); err != nil {
				t.Fatal(err)
			}
		})
		cols := sol.Stats.Columns
		if sol.Stats.Dispatch != DispatchCG || cols < 512 {
			t.Fatalf("seed %d: %v dispatch over %d columns, want CG over at least 512", seed, sol.Stats.Dispatch, cols)
		}
		if allocs > float64(cols)/4 {
			t.Errorf("seed %d: %.0f allocations for %d columns, want at most %d", seed, allocs, cols, cols/4)
		}
		seen := make(map[[4]int]bool, cols)
		for _, c := range sol.Combos() {
			k := [4]int(c)
			if seen[k] {
				t.Fatalf("seed %d: combination %v pooled twice", seed, c)
			}
			seen[k] = true
		}
	}
}
