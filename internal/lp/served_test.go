package lp_test

import (
	"math"
	"math/rand/v2"
	"testing"

	"dmc/internal/core"
	"dmc/internal/experiments"
	"dmc/internal/lp"
)

// TestWarmStartServedMasters warm-starts the master shape the daemon
// serves: 40 paths × 4 transmissions, whose restricted masters have 42
// rows, hundreds of columns and heavy degeneracy. It takes 24 final
// column-generation masters — quality, and min-cost at 0.9 × the quality
// optimum, of 12 random networks — and re-solves each from its optimal
// basis on four copies with every coefficient drifted and four with only
// the right-hand sides drifted. Every leg must reach the cold solve's
// verdict and, when optimal, its objective to 1e-7 relative with an
// answer that passes Verify at 1e-7, warm-started rather than fallen
// back cold.
func TestWarmStartServedMasters(t *testing.T) {
	var optimal, repaired int
	for s := uint64(4020); s < 4032; s++ {
		n := experiments.RandomNetwork(rand.New(rand.NewPCG(7, s)), 40, 4)
		q, err := core.SolveQuality(n)
		if err != nil {
			t.Fatal(err)
		}
		mc, err := core.SolveMinCost(n, 0.9*q.Quality)
		if err != nil {
			t.Fatal(err)
		}
		for _, master := range []*core.Solution{q, mc} {
			sp := lp.SparseOf(master.Problem())
			base, err := lp.NewRevised().SolveWith(sp, lp.Options{CaptureBasis: true})
			if err != nil {
				t.Fatalf("seed %d: master: %v", s, err)
			}
			if base.Status != lp.Optimal {
				t.Fatalf("seed %d: master %v", s, base.Status)
			}
			for k := range int64(8) {
				what, drifted := "drifted", lp.DriftSparse(sp, int64(s)*8+k)
				if k >= 4 {
					what, drifted = "rhs-drifted", lp.DriftRHS(sp, int64(s)*8+k)
				}
				cold, err := lp.NewRevised().Solve(drifted)
				if err != nil {
					t.Fatalf("seed %d %s %d cold: %v", s, what, k, err)
				}
				warm, err := lp.NewRevised().SolveWith(drifted, lp.Options{WarmBasis: base.Basis})
				if err != nil {
					t.Fatalf("seed %d %s %d warm: %v", s, what, k, err)
				}
				if warm.Status != cold.Status {
					t.Fatalf("seed %d %s %d: warm %v, cold %v", s, what, k, warm.Status, cold.Status)
				}
				if warm.Status != lp.Optimal {
					continue
				}
				optimal++
				if !warm.WarmStarted {
					t.Errorf("seed %d %s %d: warm start fell back cold", s, what, k)
				} else if !warm.PhaseISkipped {
					repaired++
				}
				if math.Abs(warm.Objective-cold.Objective) > 1e-7*(1+math.Abs(cold.Objective)) {
					t.Errorf("seed %d %s %d: warm %v, cold %v", s, what, k, warm.Objective, cold.Objective)
				}
				if v := lp.Verify(drifted.Dense(), warm.X, 1e-7); len(v) != 0 {
					t.Errorf("seed %d %s %d: warm answer infeasible: %v", s, what, k, v)
				}
			}
		}
	}
	t.Logf("%d optimal legs, %d of them repaired", optimal, repaired)
	if repaired == 0 {
		t.Fatal("no leg repaired its re-installed basis")
	}
}
