package core

import (
	"math/rand/v2"
	"testing"
)

// pingpongRound is the drift round a ring of rounds rounds visits at step
// k: 0, 1, …, rounds−1, rounds−2, …, 1, 0, 1, … — the order a served
// session's estimates wander in dmcbench's fleet workloads, so
// consecutive steps are always one drift step apart.
func pingpongRound(k, rounds int) int {
	period := 2 * (rounds - 1)
	if k %= period; k < rounds {
		return k
	}
	return period - k
}

// driftRing returns rounds networks of paths×trans: a random base and
// each later round one ≤10% drift step from the one before.
func driftRing(rng *rand.Rand, paths, trans, rounds int) []*Network {
	ring := []*Network{diffRandomNetwork(rng, paths, trans)}
	for len(ring) < rounds {
		ring = append(ring, driftNetwork(rng, ring[len(ring)-1], 0.1))
	}
	return ring
}

// TestColdPrimeTrimsPool checks the end-of-solve trim on the solve that
// grows a pool most: a cold 80×3 quality prime prices 692–866 columns
// on these seeds, and the Solver must keep at most cgTrimKeep of them —
// the all-blackhole column among them — with the final basis remapped
// onto the kept columns, while the returned Solution still reads the
// whole pool it solved over.
func TestColdPrimeTrimsPool(t *testing.T) {
	if testing.Short() {
		t.Skip("CG-scale primes are slow under -short")
	}
	for seed := uint64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewPCG(seed, 40))
		n := diffRandomNetwork(rng, 80, 3)
		sv := NewSolver()
		sol, err := sv.Resolve(n)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if sol.Stats.Columns <= cgTrimTrigger {
			t.Fatalf("seed %d: the prime priced %d columns, not past the trim trigger %d", seed, sol.Stats.Columns, cgTrimTrigger)
		}
		if len(sol.X) != sol.Stats.Columns || len(sol.Combos()) != sol.Stats.Columns {
			t.Fatalf("seed %d: solution holds %d values over %d combos, want the %d columns it solved",
				seed, len(sol.X), len(sol.Combos()), sol.Stats.Columns)
		}
		pool := sv.rs.pool
		if kept := pool.cols.len(); kept > cgTrimKeep {
			t.Fatalf("seed %d: the prime kept %d of %d columns, want ≤ %d", seed, kept, sol.Stats.Columns, cgTrimKeep)
		}
		if len(pool.keys) != pool.cols.len() || len(pool.lastBasic) != pool.cols.len() || len(pool.pos) != pool.cols.len() {
			t.Fatalf("seed %d: trimmed pool tables disagree: %d keys, %d stamps, %d positions, %d columns",
				seed, len(pool.keys), len(pool.lastBasic), len(pool.pos), pool.cols.len())
		}
		if _, ok := pool.pos[0]; !ok {
			t.Fatalf("seed %d: the trim dropped the all-blackhole column", seed)
		}
		if sv.rs.basis == nil {
			t.Fatalf("seed %d: the trim lost the basis", seed)
		}
		for _, c := range sv.rs.basis.StructuralCols() {
			if c >= pool.cols.len() {
				t.Fatalf("seed %d: basic column %d outside the %d-column pool", seed, c, pool.cols.len())
			}
			if c >= 0 && pool.lastBasic[c] != sv.rs.solves {
				t.Fatalf("seed %d: basic column %d stamped %d, want %d", seed, c, pool.lastBasic[c], sv.rs.solves)
			}
		}
	}
}

// TestTrimKeepsAWideBasis primes a 300-path session, whose master has
// more rows than cgTrimKeep and whose final basis holds more columns
// than that. The trim must keep the whole basis — the one case the
// bound gives way to — and nothing beyond it, and a re-solve of the
// same network must start from the remapped basis and stay at the
// prime's optimum without a pivot.
func TestTrimKeepsAWideBasis(t *testing.T) {
	if testing.Short() {
		t.Skip("a 300-path master is slow under -short")
	}
	n := diffRandomNetwork(rand.New(rand.NewPCG(3, 300)), 300, 2)
	sv := NewSolver()
	prime, err := sv.Resolve(n)
	if err != nil {
		t.Fatal(err)
	}
	basic := 0
	for _, c := range sv.rs.basis.StructuralCols() {
		if c >= 0 {
			basic++
		}
	}
	if basic <= cgTrimKeep {
		t.Fatalf("the final basis holds %d columns, want more than cgTrimKeep (%d)", basic, cgTrimKeep)
	}
	// The blackhole column is in the basis or kept beside it.
	if kept := sv.rs.pool.cols.len(); kept < basic || kept > basic+1 {
		t.Fatalf("the trim kept %d columns around a %d-column basis", kept, basic)
	}
	again, err := sv.Resolve(n)
	if err != nil {
		t.Fatal(err)
	}
	if st := again.Stats; !st.Warm || !st.PhaseISkipped || st.LPPivots != 0 {
		t.Fatalf("re-solve after a wide trim: stats %+v, want warm from the kept basis with no pivot", st)
	}
	if gap := abs64(again.Quality - prime.Quality); gap > 1e-9 {
		t.Fatalf("re-solve %.12f vs prime %.12f after a wide trim", again.Quality, prime.Quality)
	}
}

// TestResolveFixedPointIsFree re-solves an unchanged 100×2 network warm
// right after its cold prime, for quality and for min-cost. The kept
// basis is still optimal and the pricing oracle finds nothing, so the
// re-solve must take one master solve with no simplex pivot and no new
// column, and return the prime's answer — also, and above all, where
// the end-of-solve trim cut the prime's pool, which it must have done
// on at least six instances per objective.
func TestResolveFixedPointIsFree(t *testing.T) {
	if testing.Short() {
		t.Skip("CG-scale primes are slow under -short")
	}
	trimmed := map[string]int{}
	for seed := uint64(1); seed <= 16; seed++ {
		rng := rand.New(rand.NewPCG(seed, 44))
		n := diffRandomNetwork(rng, 100, 2)
		opt, err := SolveQuality(n)
		if err != nil {
			t.Fatal(err)
		}
		// A floor just under the quality optimum keeps the min-cost
		// prime pricing, most often past the trim trigger.
		floor := 0.999 * opt.Quality
		for _, tc := range []struct {
			name  string
			solve func(*Solver) (*Solution, error)
			value func(*Solution) float64
		}{
			{"quality", func(s *Solver) (*Solution, error) { return s.Resolve(n) }, func(s *Solution) float64 { return s.Quality }},
			{"mincost", func(s *Solver) (*Solution, error) { return s.ResolveMinCost(n, floor) }, func(s *Solution) float64 { return s.Cost() }},
		} {
			sv := NewSolver()
			prime, err := tc.solve(sv)
			if err != nil {
				t.Fatalf("seed %d %s: prime: %v", seed, tc.name, err)
			}
			if prime.Stats.LPPivots == 0 {
				t.Fatalf("seed %d %s: a cold prime reported no simplex pivots", seed, tc.name)
			}
			if prime.Stats.Columns > cgTrimTrigger {
				trimmed[tc.name]++
			}
			want := tc.value(prime)
			again, err := tc.solve(sv)
			if err != nil {
				t.Fatalf("seed %d %s: re-solve: %v", seed, tc.name, err)
			}
			st := again.Stats
			if !st.Warm || !st.PhaseISkipped || st.CGIterations != 1 || st.PoolAdded != 0 || st.LPPivots != 0 {
				t.Fatalf("seed %d %s: fixed-point re-solve after a %d-column prime: stats %+v, want warm, Phase I skipped, 1 iteration, 0 added, 0 pivots",
					seed, tc.name, prime.Stats.Columns, st)
			}
			if got := tc.value(again); abs64(got-want) > 1e-9*(1+abs64(want)) {
				t.Fatalf("seed %d %s: fixed-point re-solve %.15g, prime %.15g", seed, tc.name, got, want)
			}
		}
	}
	for _, name := range []string{"quality", "mincost"} {
		if trimmed[name] < 6 {
			t.Fatalf("%s: only %d primes passed the trim trigger %d, want ≥ 6", name, trimmed[name], cgTrimTrigger)
		}
	}
}

// TestResolveKeepsRecentColumnsOnDriftRing replays 16 drift rings of
// 80×3 quality sessions in ping-pong order, the way a served session's
// estimates wander around their true values. Once a ring has been
// walked through once, every state it visits has been solved before,
// and the columns basic there were stamped: the trim must keep them, so
// the re-solves after the first cycle price (almost) nothing back in.
// Ranking by the latest duals alone dropped those columns and re-priced
// a mean of 4.8 per re-solve.
func TestResolveKeepsRecentColumnsOnDriftRing(t *testing.T) {
	if testing.Short() {
		t.Skip("CG-scale trajectories are slow under -short")
	}
	const (
		rings  = 16
		rounds = 8
		steps  = 48
		period = 2 * (rounds - 1)
	)
	added, resolves, trims := 0, 0, 0
	for seed := uint64(1); seed <= rings; seed++ {
		ring := driftRing(rand.New(rand.NewPCG(seed, 40)), 80, 3, rounds)
		sv := NewSolver()
		sol, err := sv.Resolve(ring[0])
		if err != nil {
			t.Fatalf("ring %d: prime: %v", seed, err)
		}
		for k := 1; k <= steps; k++ {
			pool := sol.Stats.Columns
			if sol, err = sv.Resolve(ring[pingpongRound(k, rounds)]); err != nil {
				t.Fatalf("ring %d step %d: %v", seed, k, err)
			}
			if !sol.Stats.Warm {
				t.Fatalf("ring %d step %d: re-solve fell back cold", seed, k)
			}
			if pool > cgTrimTrigger {
				trims++
			}
			if k > period {
				added += sol.Stats.PoolAdded
				resolves++
			}
		}
	}
	mean := float64(added) / float64(resolves)
	t.Logf("%d re-solves after the first cycle added %.2f columns each; %d followed a trim", resolves, mean, trims)
	if trims == 0 {
		t.Fatalf("no pool passed %d columns: nothing was trimmed", cgTrimTrigger)
	}
	if mean > 1 {
		t.Fatalf("re-solves after the first cycle added %.2f columns each, want ≤ 1: the trim drops columns the ring comes back to", mean)
	}
}
