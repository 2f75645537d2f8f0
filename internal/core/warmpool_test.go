package core

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"testing"
	"weak"

	"dmc/internal/conc"
)

// driftFleet returns a fleet of networks plus rounds of drifted copies
// (each round drifts every network of the previous round) — the
// fleet-wide re-solve storm a serving shard's sessions produce.
func driftFleet(rng *rand.Rand, size, rounds int) [][]*Network {
	out := make([][]*Network, rounds+1)
	out[0] = make([]*Network, size)
	for i := range out[0] {
		// A few distinct shapes, as a real fleet mixes them.
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

// sessionKeys returns n session keys under the given prefix.
func sessionKeys(prefix string, n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("%s%d", prefix, i)
	}
	return keys
}

// solveRound solves network i on session keys[i], fanned across
// GOMAXPROCS workers the way a serving shard's workers drain a fleet.
// Entries that did not solve are nil.
func solveRound(pool *WarmPool, keys []string, nets []*Network) ([]*Solution, error) {
	sols := make([]*Solution, len(nets))
	err := conc.ForEach(len(nets), func(i int) error {
		sol, err := pool.SolveSession(keys[i], nets[i])
		sols[i] = sol
		return err
	})
	return sols, err
}

// TestWarmPoolMatchesCold: every round of a drifting fleet, one session
// per network, must return the same optima as independent cold solves,
// and rounds after the first must actually run warm.
func TestWarmPoolMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewPCG(0x9001, 1))
	rounds := driftFleet(rng, 24, 4)
	pool := NewWarmPool()
	keys := sessionKeys("s", len(rounds[0]))
	for r, nets := range rounds {
		sols, err := solveRound(pool, keys, nets)
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
// at once, each driving its own sessions (its own key prefix) through
// a fan-out — run under -race (the CI test target does) this is the
// data race check for the session map and its slots.
func TestWarmPoolConcurrent(t *testing.T) {
	rng := rand.New(rand.NewPCG(0x9001, 2))
	rounds := driftFleet(rng, 16, 3)
	pool := NewWarmPool()
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
			keys := sessionKeys(fmt.Sprintf("g%d-", g), len(rounds[0]))
			for r, nets := range rounds {
				sols, err := solveRound(pool, keys, nets)
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

// TestWarmPoolError: a failing network reports an error and poisons
// neither its own session nor the others.
func TestWarmPoolError(t *testing.T) {
	rng := rand.New(rand.NewPCG(0x9001, 3))
	good := diffRandomNetwork(rng, 3, 2)
	pool := NewWarmPool()
	keys := []string{"good", "bad"}
	if _, err := solveRound(pool, keys, []*Network{good, {}}); err == nil {
		t.Fatal("want error for invalid network")
	}
	for _, key := range keys {
		if sol, err := pool.SolveSession(key, good); err != nil || sol == nil {
			t.Fatalf("session %q failed after the error round: %v", key, err)
		}
	}
}

// TestDropSessionFreesWarmState: once dropped, a session's warm solver
// must be garbage — nothing in the pool may keep its columns, CG pool,
// and basis alive.
func TestDropSessionFreesWarmState(t *testing.T) {
	pool := NewWarmPool()
	const key = "drop-me"
	sv := primeSession(t, pool, key)
	pool.DropSession(key)
	runtime.GC()
	if sv.Value() != nil {
		t.Fatal("dropped session's warm solver is still reachable from the pool")
	}
	// The pool itself stays live across the collection above.
	if got := pool.Sessions(); got != 0 {
		t.Fatalf("Sessions() after drop = %d, want 0", got)
	}
}

// primeSession solves the session cold and then warm under drift, and
// returns a weak pointer to its warm solver. The Solutions die here, so
// only the pool can keep the solver alive.
func primeSession(t *testing.T, pool *WarmPool, key string) weak.Pointer[Solver] {
	t.Helper()
	rng := rand.New(rand.NewPCG(0x9006, 1))
	net := diffRandomNetwork(rng, 3, 2)
	for r := 0; r < 2; r++ {
		if _, err := pool.SolveSession(key, net); err != nil {
			t.Fatal(err)
		}
		net = driftNetwork(rng, net, 0.08)
	}
	pool.smu.Lock()
	defer pool.smu.Unlock()
	return weak.Make(pool.sessions[key].sv)
}

// TestWarmPoolSessionAffinity: session-keyed solves must match a
// per-session reference Resolve trajectory exactly, stay warm under
// drift, and KEEP that warmth when the fleet reorders, grows, and
// shrinks around them.
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
