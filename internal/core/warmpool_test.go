package core

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"

	"dmc/internal/fault"
)

// driftFleet returns a fleet of networks plus rounds of drifted copies
// (each round drifts every network of the previous round) — the
// fleet-wide re-solve storm the shared warm pool serves.
func driftFleet(rng *rand.Rand, size, rounds int) [][]*Network {
	out := make([][]*Network, rounds+1)
	out[0] = make([]*Network, size)
	for i := range out[0] {
		// A few distinct shapes so the pool's shape keying is exercised.
		paths := 2 + i%3
		out[0][i] = diffRandomNetwork(rng, paths, 2+i%2)
	}
	for r := 1; r <= rounds; r++ {
		out[r] = make([]*Network, size)
		for i, n := range out[r-1] {
			out[r][i] = driftNetwork(rng, n, 0.08)
		}
	}
	return out
}

// TestWarmPoolMatchesCold: every batch of a drifting fleet must return
// the same optima as independent cold solves, and batches after the
// first must actually run warm.
func TestWarmPoolMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewPCG(0x9001, 1))
	rounds := driftFleet(rng, 24, 4)
	pool := NewWarmPool()
	for r, nets := range rounds {
		sols, err := pool.SolveMany(nets)
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		warmed := 0
		for i, sol := range sols {
			ref, err := SolveQuality(nets[i])
			if err != nil {
				t.Fatal(err)
			}
			if gap := abs64(sol.Quality - ref.Quality); gap > 1e-6 {
				t.Fatalf("round %d net %d: pooled %v vs cold %v", r, i, sol.Quality, ref.Quality)
			}
			if sol.Stats.Warm {
				warmed++
			}
		}
		if r == 0 && warmed != 0 {
			t.Fatalf("round 0 reported %d warm solves from an empty pool", warmed)
		}
		if r > 0 && warmed < len(nets)/2 {
			t.Fatalf("round %d: only %d/%d solves ran warm; the pool is not being reused", r, warmed, len(nets))
		}
	}
}

// TestWarmPoolConcurrent hammers one WarmPool from several goroutines
// at once — run under -race (the CI test target does) this is the data
// race check for the striped shape-keyed pool.
func TestWarmPoolConcurrent(t *testing.T) {
	rng := rand.New(rand.NewPCG(0x9001, 2))
	rounds := driftFleet(rng, 16, 3)
	pool := NewWarmPool()
	// Prime the pool once so concurrent batches contend for warm state.
	if _, err := pool.SolveMany(rounds[0]); err != nil {
		t.Fatal(err)
	}
	want := make([][]float64, len(rounds))
	for r, nets := range rounds {
		want[r] = make([]float64, len(nets))
		for i, n := range nets {
			ref, err := SolveQuality(n)
			if err != nil {
				t.Fatal(err)
			}
			want[r][i] = ref.Quality
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r, nets := range rounds {
				sols, err := pool.SolveMany(nets)
				if err != nil {
					t.Errorf("worker %d round %d: %v", g, r, err)
					return
				}
				for i := range sols {
					if gap := abs64(sols[i].Quality - want[r][i]); gap > 1e-6 {
						t.Errorf("worker %d round %d net %d: %v vs %v", g, r, i, sols[i].Quality, want[r][i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestWarmPoolError: a failing network reports an error, leaves the
// other entries usable, and does not poison the pool.
func TestWarmPoolError(t *testing.T) {
	rng := rand.New(rand.NewPCG(0x9001, 3))
	good := diffRandomNetwork(rng, 3, 2)
	pool := NewWarmPool()
	if _, err := pool.SolveMany([]*Network{good, {}}); err == nil {
		t.Fatal("want error for invalid network")
	}
	sols, err := pool.SolveMany([]*Network{good})
	if err != nil || sols[0] == nil {
		t.Fatalf("good-only batch failed after error batch: %v", err)
	}
}

// TestWarmPoolSessionAffinity: session-keyed solves must match a
// per-session reference Resolve trajectory exactly, stay warm under
// drift, and KEEP that warmth when the fleet reorders, grows, and
// shrinks around them — the affinity positional checkout cannot give.
func TestWarmPoolSessionAffinity(t *testing.T) {
	rng := rand.New(rand.NewPCG(0x9004, 1))
	pool := NewWarmPool()
	const size = 12
	type sess struct {
		key string
		net *Network
		ref *Solver // private reference solver replaying the trajectory
	}
	fleet := make([]*sess, size)
	for i := range fleet {
		fleet[i] = &sess{
			key: string(rune('a' + i)),
			net: diffRandomNetwork(rng, 2+i%3, 2+i%2),
			ref: NewSolver(),
		}
	}
	solveAll := func(round int, wantWarm bool) {
		t.Helper()
		for _, s := range fleet {
			sol, err := pool.SolveSession(s.key, s.net)
			if err != nil {
				t.Fatalf("round %d key %s: %v", round, s.key, err)
			}
			ref, err := s.ref.Resolve(s.net)
			if err != nil {
				t.Fatal(err)
			}
			if gap := abs64(sol.Quality - ref.Quality); gap > 1e-6 {
				t.Fatalf("round %d key %s: session %v vs reference %v", round, s.key, sol.Quality, ref.Quality)
			}
			if wantWarm && !sol.Stats.Warm {
				t.Fatalf("round %d key %s: session solve ran cold after reorder/churn", round, s.key)
			}
		}
	}
	solveAll(0, false)
	// Round 1: drift + solve in reversed order — keyed affinity must hold.
	for i, j := 0, len(fleet)-1; i < j; i, j = i+1, j-1 {
		fleet[i], fleet[j] = fleet[j], fleet[i]
	}
	for _, s := range fleet {
		s.net = driftNetwork(rng, s.net, 0.08)
	}
	solveAll(1, true)
	// Round 2: drop a third of the fleet, add new sessions, shuffle, and
	// drift — the surviving sessions must still re-solve warm.
	for i := 0; i < size/3; i++ {
		pool.DropSession(fleet[i].key)
	}
	fleet = fleet[size/3:]
	for i := 0; i < 3; i++ {
		fleet = append(fleet, &sess{
			key: "new-" + string(rune('0'+i)),
			net: diffRandomNetwork(rng, 3, 2),
			ref: NewSolver(),
		})
	}
	rng.Shuffle(len(fleet), func(i, j int) { fleet[i], fleet[j] = fleet[j], fleet[i] })
	for _, s := range fleet {
		s.net = driftNetwork(rng, s.net, 0.08)
	}
	for _, s := range fleet {
		sol, err := pool.SolveSession(s.key, s.net)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := s.ref.Resolve(s.net)
		if err != nil {
			t.Fatal(err)
		}
		if gap := abs64(sol.Quality - ref.Quality); gap > 1e-6 {
			t.Fatalf("post-churn key %s: session %v vs reference %v", s.key, sol.Quality, ref.Quality)
		}
		if len(s.key) == 1 && !sol.Stats.Warm {
			t.Fatalf("post-churn key %s: surviving session lost its warm state", s.key)
		}
	}
	if got := pool.Sessions(); got != len(fleet) {
		t.Fatalf("Sessions() = %d, want %d", got, len(fleet))
	}
}

// TestWarmPoolSessionObjectives: the min-cost and random session entry
// points must agree with their cold counterparts.
func TestWarmPoolSessionObjectives(t *testing.T) {
	rng := rand.New(rand.NewPCG(0x9004, 2))
	pool := NewWarmPool()
	mc := diffRandomNetwork(rng, 3, 2)
	for r := 0; r < 3; r++ {
		if r > 0 {
			mc = driftNetwork(rng, mc, 0.08)
		}
		ub, err := QualityUpperBound(mc)
		if err != nil {
			t.Fatal(err)
		}
		sol, err := pool.SolveSessionMinCost("mc", mc, 0.5*ub)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := SolveMinCost(mc, 0.5*ub)
		if err != nil {
			t.Fatal(err)
		}
		if gap := abs64(sol.Cost() - ref.Cost()); gap > 1e-6*(1+abs64(ref.Cost())) {
			t.Fatalf("round %d: session min-cost %v vs cold %v", r, sol.Cost(), ref.Cost())
		}
		if r > 0 && !sol.Stats.Warm {
			t.Fatalf("round %d: session min-cost re-solve did not run warm", r)
		}
	}
	rd := randomDelayNetwork(rng, 3)
	for r := 0; r < 3; r++ {
		if r > 0 {
			rd = driftNetwork(rng, rd, 0.08)
		}
		to := randomTimeouts(rng, rd)
		sol, err := pool.SolveSessionRandom("rd", rd, to)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := SolveQualityRandom(rd, to)
		if err != nil {
			t.Fatal(err)
		}
		if gap := abs64(sol.Quality - ref.Quality); gap > 1e-6 {
			t.Fatalf("round %d: session random %v vs cold %v", r, sol.Quality, ref.Quality)
		}
		if r > 0 && !sol.Stats.Warm {
			t.Fatalf("round %d: session random re-solve did not run warm", r)
		}
	}
	if got := pool.Sessions(); got != 2 {
		t.Fatalf("Sessions() = %d, want 2", got)
	}
	pool.DropSession("mc")
	pool.DropSession("rd")
	pool.DropSession("never-existed")
	if got := pool.Sessions(); got != 0 {
		t.Fatalf("Sessions() after drops = %d, want 0", got)
	}
}

// TestWarmPoolSessionChurnRace hammers session solves, drops, and
// re-creations on overlapping keys from several goroutines — run under
// -race (the CI test target does) this is the data race check for the
// keyed session map and its drop path.
func TestWarmPoolSessionChurnRace(t *testing.T) {
	pool := NewWarmPool()
	keys := []string{"k0", "k1", "k2", "k3"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(0x9005, uint64(g)))
			net := diffRandomNetwork(rng, 3, 2)
			want, err := SolveQuality(net)
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 30; i++ {
				key := keys[rng.IntN(len(keys))]
				switch rng.IntN(3) {
				case 0:
					pool.DropSession(key)
				default:
					sol, err := pool.SolveSession(key, net)
					if err != nil {
						t.Errorf("worker %d: %v", g, err)
						return
					}
					if gap := abs64(sol.Quality - want.Quality); gap > 1e-6 {
						t.Errorf("worker %d: quality %v vs %v", g, sol.Quality, want.Quality)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestWarmPoolQuarantineSession: a panic mid-Resolve poisons a
// session's warm solver; after QuarantineSession the next solve must
// run cold, match a fresh solver to 1e-6, and later drift solves must
// warm back up — and the poisoned state must never leak to the stripes.
func TestWarmPoolQuarantineSession(t *testing.T) {
	rng := rand.New(rand.NewPCG(0x9005, 1))
	pool := NewWarmPool()
	const key = "quarantine-me"
	net := diffRandomNetwork(rng, 3, 2)

	// Prime the session warm over a couple of drift rounds.
	if _, err := pool.SolveSession(key, net); err != nil {
		t.Fatal(err)
	}
	net = driftNetwork(rng, net, 0.08)
	sol, err := pool.SolveSession(key, net)
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Stats.Warm {
		t.Fatal("session did not warm up before the fault")
	}

	// Inject a panic at the warm re-solve seam.
	fault.Activate(&fault.Plan{Seed: 1, Points: map[string][]fault.Spec{
		"core.resolve.warm": {{Kind: fault.Panic, Prob: 1}},
	}})
	net = driftNetwork(rng, net, 0.08)
	func() {
		defer fault.Deactivate()
		defer func() {
			pv, ok := recover().(*fault.PanicValue)
			if !ok || pv.Point != "core.resolve.warm" {
				t.Fatalf("recovered %v, want injected panic at core.resolve.warm", pv)
			}
		}()
		pool.SolveSession(key, net)
		t.Fatal("injected panic did not surface from SolveSession")
	}()

	pool.QuarantineSession(key)

	// Next solve: cold, and correct against a fresh solver.
	sol, err = pool.SolveSession(key, net)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Stats.Warm {
		t.Fatal("post-quarantine solve reported warm; poisoned state survived")
	}
	ref, err := NewSolver().Resolve(net)
	if err != nil {
		t.Fatal(err)
	}
	if gap := abs64(sol.Quality - ref.Quality); gap > 1e-6 {
		t.Fatalf("post-quarantine quality %v vs fresh solver %v", sol.Quality, ref.Quality)
	}

	// Drift again: the session warms back up on the clean solver.
	net = driftNetwork(rng, net, 0.08)
	sol, err = pool.SolveSession(key, net)
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Stats.Warm {
		t.Fatal("session did not re-warm after quarantine")
	}
	if err := checkAgainst(NewSolver(), net, sol); err != nil {
		t.Fatal(err)
	}
}

// checkAgainst verifies sol matches a reference solve of net to 1e-6.
func checkAgainst(ref *Solver, net *Network, sol *Solution) error {
	r, err := ref.Resolve(net)
	if err != nil {
		return err
	}
	if gap := abs64(sol.Quality - r.Quality); gap > 1e-6 {
		return fmt.Errorf("quality %v vs reference %v", sol.Quality, r.Quality)
	}
	return nil
}
