package lp_test

import (
	"math"
	"math/rand/v2"
	"testing"

	"dmc/internal/core"
	"dmc/internal/experiments"
	"dmc/internal/lp"
)

// TestObjectiveScaleInvariance: the revised engine divides the objective
// by the power of two above its largest coefficient at load, so its
// optimality tolerance is relative and multiplying the objective by a
// power of two leaves the pivot path and the answer bit for bit
// unchanged. The LPs are 40×4 min-cost masters at 0.9 × the quality
// optimum, whose λ·cost objective (~1e9) puts an absolute 1e-9
// reduced-cost tolerance below float64 resolution.
func TestObjectiveScaleInvariance(t *testing.T) {
	for s := uint64(4010); s <= 4013; s++ {
		n := experiments.RandomNetwork(rand.New(rand.NewPCG(7, s)), 40, 4)
		q, err := core.SolveQuality(n)
		if err != nil {
			t.Fatal(err)
		}
		sol, err := core.SolveMinCost(n, 0.9*q.Quality)
		if err != nil {
			t.Fatal(err)
		}
		p := sol.Problem()
		scaled := *p
		scaled.Objective = make([]float64, len(p.Objective))
		for j, c := range p.Objective {
			scaled.Objective[j] = math.Ldexp(c, -30)
		}

		rev, err := lp.Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		revScaled, err := lp.Solve(&scaled)
		if err != nil {
			t.Fatal(err)
		}
		sameAnswer(t, s, "revised", rev, revScaled)
	}
}

func sameAnswer(t *testing.T, seed uint64, engine string, a, b *lp.Solution) {
	t.Helper()
	if a.Status != lp.Optimal || b.Status != lp.Optimal {
		t.Fatalf("seed %d %s: status %v / %v", seed, engine, a.Status, b.Status)
	}
	if a.Iterations != b.Iterations {
		t.Errorf("seed %d %s: %d pivots as posed, %d scaled by 2^-30", seed, engine, a.Iterations, b.Iterations)
	}
	for j := range a.X {
		if math.Float64bits(a.X[j]) != math.Float64bits(b.X[j]) {
			t.Errorf("seed %d %s: x[%d] %v as posed, %v scaled", seed, engine, j, a.X[j], b.X[j])
			return
		}
	}
}
