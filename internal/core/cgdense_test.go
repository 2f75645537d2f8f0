package core

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
	"testing"
	"time"
)

// TestCGMatchesDenseAdversarial: column generation must reach the dense
// optimum — quality and min-cost — on path sets built to make its
// pricing degenerate (identical paths, zero-loss, zero-cost, lifetime
// shorter than any delay chain) and on random networks.
func TestCGMatchesDenseAdversarial(t *testing.T) {
	rng := rand.New(rand.NewPCG(0x9e, 0x51))

	adversarial := []*Network{
		// Identical paths: every permutation of a combination is an
		// exact duplicate column.
		func() *Network {
			p := Path{Bandwidth: 10 * Mbps, Delay: 100 * time.Millisecond, Loss: 0.1, Cost: 1}
			return NewNetwork(20*Mbps, time.Second, p, p, p)
		}(),
		// Zero-loss paths: survival hits zero after one attempt, so all
		// suffixes collapse.
		func() *Network {
			return NewNetwork(5*Mbps, time.Second,
				Path{Bandwidth: 10 * Mbps, Delay: 50 * time.Millisecond, Loss: 0},
				Path{Bandwidth: 10 * Mbps, Delay: 80 * time.Millisecond, Loss: 0},
			)
		}(),
		// Lifetime shorter than any retransmission chain: only
		// single-attempt columns can deliver.
		func() *Network {
			n := NewNetwork(5*Mbps, 120*time.Millisecond,
				Path{Bandwidth: 10 * Mbps, Delay: 100 * time.Millisecond, Loss: 0.3},
				Path{Bandwidth: 10 * Mbps, Delay: 110 * time.Millisecond, Loss: 0.2},
			)
			n.Transmissions = 3
			return n
		}(),
		// Free path dominating an expensive slow one outright.
		func() *Network {
			n := NewNetwork(5*Mbps, time.Second,
				Path{Bandwidth: 100 * Mbps, Delay: 50 * time.Millisecond, Loss: 0.01, Cost: 0},
				Path{Bandwidth: 100 * Mbps, Delay: 500 * time.Millisecond, Loss: 0.2, Cost: 5},
			)
			n.CostBound = 1e6
			return n
		}(),
	}
	for i, n := range adversarial {
		checkCGMatchesDense(t, n, i, "adversarial")
	}
	for trial := 0; trial < 100; trial++ {
		n := diffRandomNetwork(rng, 2+rng.IntN(5), 1+rng.IntN(3))
		checkCGMatchesDense(t, n, trial, "random")
	}
}

func checkCGMatchesDense(t *testing.T, n *Network, id int, kind string) {
	t.Helper()
	dsol, err := forceDense().SolveQuality(n)
	if err != nil {
		t.Fatalf("%s %d: dense: %v", kind, id, err)
	}
	csol, err := forceCG().SolveQuality(n)
	if err != nil {
		t.Fatalf("%s %d: cg: %v", kind, id, err)
	}
	if diff := math.Abs(dsol.Quality - csol.Quality); diff > 1e-7 {
		t.Errorf("%s %d: cg quality %v vs dense %v (diff %v, %d columns)",
			kind, id, csol.Quality, dsol.Quality, diff, csol.Stats.Columns)
	}
	target := dsol.Quality * 0.9
	dcost, derr := forceDense().SolveMinCost(n, target)
	ccost, cerr := forceCG().SolveMinCost(n, target)
	if (derr == nil) != (cerr == nil) {
		t.Fatalf("%s %d: min-cost feasibility disagrees: dense %v, cg %v", kind, id, derr, cerr)
	}
	if derr == nil {
		dc, cc := dcost.Cost(), ccost.Cost()
		if math.Abs(dc-cc) > 1e-6*(1+math.Abs(dc)) {
			t.Errorf("%s %d: cg min-cost %v vs dense %v", kind, id, cc, dc)
		}
	}
}

// TestSparseSolutionRiskReport: RiskReport (and the risk-adjusted solve
// built on it) must work on column-generated solutions, whose column
// tables are a subset of the dense space — regression test for an
// index-out-of-range panic when it sized buffers by the dense
// combination count.
func TestSparseSolutionRiskReport(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 37))
	n := diffRandomNetwork(rng, 7, 4) // 8^4 = 4096 combos: auto-dispatches to CG
	for name, solver := range map[string]*Solver{
		"cg":   forceCG(),
		"auto": NewSolver(),
	} {
		sol, err := solver.SolveQuality(n)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sol.Stats.Dispatch != DispatchCG {
			t.Fatalf("%s: dispatch %v, want cg", name, sol.Stats.Dispatch)
		}
		if sol.Stats.Columns >= 4096 {
			t.Fatalf("%s: %d columns, want a subset of the 4096-combination space", name, sol.Stats.Columns)
		}
		rep, err := sol.RiskReport(1024)
		if err != nil {
			t.Fatalf("%s: RiskReport: %v", name, err)
		}
		if len(rep.Bandwidth) != len(n.Paths) {
			t.Errorf("%s: %d bandwidth entries, want %d", name, len(rep.Bandwidth), len(n.Paths))
		}
		// Fraction must agree with the active-combination listing on
		// sparse solutions (packed-key lookup path).
		for _, cs := range sol.ActiveCombos(1e-9) {
			if f := sol.Fraction(cs.Combo); f != cs.Fraction {
				t.Errorf("%s: Fraction(%v) = %v, want %v", name, cs.Combo, f, cs.Fraction)
			}
		}
	}
}

// FuzzCGMatchesDense feeds adversarial path sets to both dispatches and
// checks the invariant that matters: column generation — cold, and one
// warm re-solve of a drifted copy — reaches the dense quality optimum.
func FuzzCGMatchesDense(f *testing.F) {
	// Seeds: equal paths, dominance chains, boundary losses, tiny and
	// huge lifetimes, zero costs.
	seed := func(vals ...uint64) []byte {
		b := make([]byte, 8*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint64(b[8*i:], v)
		}
		return b
	}
	f.Add(seed(2, 100, 100, 0, 0, 100, 100, 0, 0))
	f.Add(seed(3, 50, 10, 999, 3, 50, 10, 999, 3, 50, 10, 999, 3))
	f.Add(seed(1, 1, 1, 0, 0))
	f.Add(seed(4, 1000, 500, 1000, 0, 10, 1, 0, 5, 200, 300, 500, 1, 400, 50, 250, 2))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 8 {
			return
		}
		u64 := func(i int) uint64 {
			if 8*i+8 > len(data) {
				return 0
			}
			return binary.LittleEndian.Uint64(data[8*i:])
		}
		nPaths := int(u64(0)%5) + 1
		ps := make([]Path, nPaths)
		for i := range ps {
			off := 1 + i*4
			ps[i] = Path{
				Bandwidth: float64(u64(off)%1000+1) * Mbps,
				Delay:     time.Duration(u64(off+1)%2000) * time.Millisecond,
				Loss:      float64(u64(off+2)%1001) / 1000,
				Cost:      float64(u64(off+3) % 100),
			}
		}
		n := NewNetwork(float64(u64(nPaths*4+1)%1000+1)*Mbps, time.Duration(u64(nPaths*4+2)%1500+1)*time.Millisecond, ps...)
		n.Transmissions = int(u64(nPaths*4+3)%3) + 1
		n.CostBound = float64(u64(nPaths*4+4) % 1e6)
		if err := n.Validate(); err != nil {
			return
		}
		dsol, err := forceDense().SolveQuality(n)
		if err != nil {
			t.Skip() // size guard etc.
		}
		warm := forceCG()
		csol, err := warm.Resolve(n)
		if err != nil {
			t.Fatalf("cg solve failed where dense succeeded: %v", err)
		}
		if diff := math.Abs(dsol.Quality - csol.Quality); diff > 1e-6 {
			t.Fatalf("cg changed the optimum: dense %v vs cg %v (network %+v)",
				dsol.Quality, csol.Quality, n)
		}

		drifted := driftNetwork(rand.New(rand.NewPCG(u64(0), uint64(len(data)))), n, 0.1)
		dsol, err = forceDense().SolveQuality(drifted)
		if err != nil {
			t.Fatalf("dense solve of the drifted copy: %v", err)
		}
		wsol, err := warm.Resolve(drifted)
		if err != nil {
			t.Fatalf("warm cg re-solve failed where dense succeeded: %v", err)
		}
		if !wsol.Stats.Warm {
			t.Fatalf("re-solve of a same-shaped drift did not run warm: %+v", wsol.Stats)
		}
		if diff := math.Abs(dsol.Quality - wsol.Quality); diff > 1e-6 {
			t.Fatalf("warm cg re-solve changed the optimum: dense %v vs cg %v (network %+v)",
				dsol.Quality, wsol.Quality, drifted)
		}
	})
}
