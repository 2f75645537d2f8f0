package core

import (
	"math/rand/v2"
	"testing"
)

// denseShareRow is the reference for a combination's send shares: a
// base-wide row with one share per model path, accumulated attempt by
// attempt. The deterministic model adds each attempt's survival mass to
// its path, share[i] += surv in attempt order, and stops at the
// blackhole or when no mass is left; the random objective (ro non-nil)
// has two legs, the whole pair on the first path and the
// retransmission probability on the second.
func denseShareRow(m *model, ro *randomObjective, combo []int) []float64 {
	share := make([]float64, m.base)
	if ro != nil {
		i, j := combo[0], combo[1]
		if i == 0 {
			share[0] = 1
			return share
		}
		share[i] += 1
		if j == 0 {
			share[0] += ro.pDrop[i]
			return share
		}
		share[j] += ro.pRetr[(i-1)*(m.base-1)+(j-1)]
		return share
	}
	surv := 1.0
	for _, i := range combo {
		share[i] += surv
		if i == 0 {
			break
		}
		surv *= m.paths[i].Loss
		if surv == 0 {
			break
		}
	}
	return share
}

// layoutCoverage counts the columns a layout check saw that exercise
// the merge's edge cases.
type layoutCoverage struct {
	repeats   int // a real path carries traffic on two attempts
	blackhole int // a real path follows the blackhole
	drained   int // a real path follows an attempt that left no mass
}

// checkLayout checks sol's column tables against denseShareRow, bit for
// bit: every bandwidth coefficient of the master Problem rebuilds is
// λ·share, and SentRate and SentRates are λ·Σ x·share, summed over the
// columns in order as the dense rows were.
func checkLayout(t *testing.T, name string, sol *Solution, ro *randomObjective, cov *layoutCoverage) {
	t.Helper()
	m, λ := sol.m, sol.Network.Rate
	prob := sol.Problem()
	combos := sol.Combos()
	if len(combos) != len(sol.X) || len(prob.Objective) != len(sol.X) {
		t.Fatalf("%s: %d combos and %d LP columns for %d values", name, len(combos), len(prob.Objective), len(sol.X))
	}
	rates := make([]float64, m.base)
	for l, c := range combos {
		share := denseShareRow(m, ro, c)
		for i := 1; i < m.base; i++ {
			if got, want := prob.Constraints[i-1].Coeffs[l], λ*share[i]; got != want {
				t.Fatalf("%s: column %d %v: bandwidth row %d coefficient %v, want λ·share = %v", name, l, c, i-1, got, want)
			}
			if x := sol.X[l]; x != 0 {
				rates[i] += x * share[i]
			}
		}
		cov.count(m, ro, c)
	}
	sent := sol.SentRates(nil)
	for i := 1; i < m.base; i++ {
		want := rates[i] * λ
		if got := sol.SentRate(i - 1); got != want {
			t.Fatalf("%s: SentRate(%d) = %v, want %v", name, i-1, got, want)
		}
		if sent[i-1] != want {
			t.Fatalf("%s: SentRates[%d] = %v, want %v", name, i-1, sent[i-1], want)
		}
	}
}

// count records which edge cases combination c exercises.
func (cov *layoutCoverage) count(m *model, ro *randomObjective, c []int) {
	if ro != nil {
		if c[0] == 0 && c[1] != 0 {
			cov.blackhole++
		}
		if c[0] != 0 && c[0] == c[1] && ro.pRetr[(c[0]-1)*(m.base-1)+(c[0]-1)] > 0 {
			cov.repeats++
		}
		return
	}
	seen := map[int]bool{}
	surv, dropped, drained := 1.0, false, false
	for _, i := range c {
		if i != 0 {
			switch {
			case dropped:
				cov.blackhole++
			case drained:
				cov.drained++
			case seen[i]:
				cov.repeats++
			}
			seen[i] = true
		}
		if i == 0 {
			dropped = true
		} else if surv *= m.paths[i].Loss; surv == 0 {
			drained = true
		}
	}
}

// TestColumnLayoutMatchesDenseShares runs the solve shapes that build
// column tables — a dense 4×3 quality solve, 40×4 column-generation
// quality and min-cost solves, cold and warm, and 5×2 random-delay
// solves on both dispatches — and checks each against the base-wide
// share rows bit for bit. The dense network has a lossless path, so its
// combinations also drain all survival mass before later attempts.
func TestColumnLayoutMatchesDenseShares(t *testing.T) {
	var cov layoutCoverage

	dense := diffRandomNetwork(rand.New(rand.NewPCG(5, 43)), 4, 3)
	dense.Paths[1].Loss = 0
	sol, err := SolveQuality(dense)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Stats.Dispatch != DispatchDense {
		t.Fatalf("4×3 solve dispatched %v, want dense", sol.Stats.Dispatch)
	}
	checkLayout(t, "dense 4×3", sol, nil, &cov)
	if cov.repeats == 0 || cov.blackhole == 0 || cov.drained == 0 {
		t.Fatalf("dense 4×3 columns cover %+v, want every case", cov)
	}

	if !testing.Short() {
		ring := driftRing(rand.New(rand.NewPCG(6, 40)), 40, 4, 3)
		floor := 1.0
		for _, n := range ring {
			opt, err := SolveQuality(n)
			if err != nil {
				t.Fatal(err)
			}
			floor = min(floor, 0.99*opt.Quality)
		}
		q, mc := NewSolver(), NewSolver()
		for k, n := range ring {
			for _, tc := range []struct {
				name  string
				solve func() (*Solution, error)
			}{
				{"40×4 quality", func() (*Solution, error) { return q.Resolve(n) }},
				{"40×4 min-cost", func() (*Solution, error) { return mc.ResolveMinCost(n, floor) }},
			} {
				sol, err := tc.solve()
				if err != nil {
					t.Fatalf("%s round %d: %v", tc.name, k, err)
				}
				if sol.Stats.Dispatch != DispatchCG || sol.Stats.Warm != (k > 0) {
					t.Fatalf("%s round %d: stats %+v, want column generation, warm after the prime", tc.name, k, sol.Stats)
				}
				checkLayout(t, tc.name, sol, nil, &cov)
			}
		}
	}

	cov = layoutCoverage{}
	rng := rand.New(rand.NewPCG(7, 52))
	for _, force := range []Dispatch{"", DispatchCG} {
		sv := &testSolver{d: force}
		n := randomDelayNetwork(rng, 5)
		for k := range 3 {
			to := randomTimeouts(rng, n)
			sol, err := sv.ResolveQualityRandom(n, to)
			if err != nil {
				t.Fatalf("random 5×2 (force %q) round %d: %v", force, k, err)
			}
			var ro randomObjective
			ro.load(sol.m, to)
			checkLayout(t, "random 5×2 "+string(sol.Stats.Dispatch), sol, &ro, &cov)
			n = driftNetwork(rng, n, 0.05)
		}
	}
	if cov.repeats == 0 || cov.blackhole == 0 {
		t.Fatalf("random 5×2 columns cover %+v, want repeated paths and blackhole stops", cov)
	}
}
