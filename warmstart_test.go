package dmc_test

import (
	"math"
	"math/rand/v2"
	"testing"
	"time"

	"dmc/internal/core"
	"dmc/internal/experiments"
	"dmc/internal/lp"
	"dmc/internal/scenario"
)

// fleetSession rebuilds session i of the dmcbench workload `name` at the
// given seed exactly as dmcbench's generator does: the same per-session
// PCG stream, a RandomNetwork drifted round by round, each round passed
// through the wire format the daemon decodes.
func fleetSession(t *testing.T, name string, seed uint64, i, paths, trans, rounds int) []*core.Network {
	t.Helper()
	salt := uint64(0)
	for _, c := range name {
		salt = salt*131 + uint64(c)
	}
	rng := rand.New(rand.NewPCG(seed, salt^uint64(i)*0x9e3779b97f4a7c15))
	net := experiments.RandomNetwork(rng, paths, trans)
	var nets []*core.Network
	for r := 0; r < rounds; r++ {
		if r > 0 {
			net = experiments.DriftNetwork(rng, net, 0.1)
		}
		dec, err := scenario.FromNetwork(net).ToNetwork()
		if err != nil {
			t.Fatalf("session %d round %d: %v", i, r, err)
		}
		nets = append(nets, dec)
	}
	return nets
}

// TestWarmAnswersFeasibleFleetCG replays a fleet-cg session whose warm
// answers used to be infeasible against their own LP (seed 2005, session
// s36: at answer 6 the split summed to 1.045 and claimed quality 1.0
// against a cold optimum of 0.967) — a re-installed basis whose warm
// solve was returned without the feasibility audit the append path
// runs. Every warm answer must satisfy its LP and match a cold solve.
func TestWarmAnswersFeasibleFleetCG(t *testing.T) {
	const rounds = 8
	nets := fleetSession(t, "fleet-cg", 2005, 36, 40, 4, rounds)
	warm := core.NewSolver()
	for k := 0; k <= 6; k++ {
		// The session's k-th answer is drift round pingpong(k): rounds
		// 0,1,…,7,6,…,1,0,1,… one step apart.
		r := k % (2 * (rounds - 1))
		if r >= rounds {
			r = 2*(rounds-1) - r
		}
		sol, err := warm.Resolve(nets[r])
		if err != nil {
			t.Fatalf("answer %d: %v", k, err)
		}
		if !lp.Feasible(sol.Problem(), sol.X, 1e-7) {
			t.Errorf("answer %d (round %d): warm answer infeasible: %v", k, r, lp.Verify(sol.Problem(), sol.X, 1e-7))
		}
		cold, err := core.SolveQuality(nets[r])
		if err != nil {
			t.Fatal(err)
		}
		if d := math.Abs(sol.Quality - cold.Quality); d > 1e-6 {
			t.Errorf("answer %d (round %d): warm quality %.9f, cold %.9f", k, r, sol.Quality, cold.Quality)
		}
	}
}

// TestWarmStartStallIsBounded replays a random-objective drift
// trajectory (44 paths, m = 2: 2,025 pairs, the largest dense shape)
// whose step 10 used to stall its warm attempt for the full simplex
// iteration limit — 414,400 pivots, over 40 s — before falling back to
// a 2.6 ms cold solve. The warm pivot budget must hand such an attempt
// to the cold path instead.
//
// The bound is in units of a cold solve of the same master, timed here,
// so it holds on slow machines and under the race detector. The bounded
// step measured about 60 cold solves (120 under the race detector); the
// stall costs over 16,000. A bound of 2,500 leaves the first 20–40×
// headroom and still fails the second by 6×.
func TestWarmStartStallIsBounded(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 44))
	net := experiments.RandomNetwork(rng, 44, 2)
	ring := make([]*core.Network, 16)
	tos := make([]*core.Timeouts, len(ring))
	for i := range ring {
		net = experiments.DriftNetwork(rng, net, 0.1)
		to, err := core.DeterministicTimeouts(net, 20*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		ring[i], tos[i] = net, to
	}
	warm := core.NewSolver()
	for i := 0; i <= 10; i++ {
		start := time.Now()
		cold, err := core.SolveQualityRandom(ring[i], tos[i])
		if err != nil {
			t.Fatal(err)
		}
		coldTime := time.Since(start)

		start = time.Now()
		sol, err := warm.ResolveQualityRandom(ring[i], tos[i])
		elapsed := time.Since(start)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if sol.Stats.Dispatch != core.DispatchDense {
			t.Fatalf("step %d: dispatch %v, want dense", i, sol.Stats.Dispatch)
		}
		if elapsed > 2500*coldTime {
			t.Errorf("step %d: re-solve took %v, over 2,500 cold solves (%v each)", i, elapsed, coldTime)
		}
		if d := math.Abs(sol.Quality - cold.Quality); d > 1e-6 {
			t.Errorf("step %d: warm quality %.9f, cold %.9f", i, sol.Quality, cold.Quality)
		}
	}
}
