package core

import (
	"math"
	"math/rand/v2"
	"testing"
)

// TestSentRatesMatchesSentRate pins SentRates to SentRate bit for bit
// on dense, column-generation and random-objective solutions, and checks
// that it reuses a large enough dst.
func TestSentRatesMatchesSentRate(t *testing.T) {
	rng := rand.New(rand.NewPCG(0x5e47, 0x2a7e))
	cg := forceCG()
	dense := forceDense()
	var dst []float64
	check := func(kind string, trial int, sol *Solution) {
		t.Helper()
		dst = sol.SentRates(dst)
		if len(dst) != len(sol.Network.Paths) {
			t.Fatalf("%s trial %d: %d rates for %d paths", kind, trial, len(dst), len(sol.Network.Paths))
		}
		for i, got := range dst {
			if want := sol.SentRate(i); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s trial %d: SentRates[%d] = %v, SentRate = %v", kind, trial, i, got, want)
			}
		}
	}
	for trial := 0; trial < 40; trial++ {
		n := pricerTestNetwork(rng, 2+rng.IntN(5), 1+rng.IntN(3))
		for _, sv := range []*testSolver{dense, cg} {
			sol, err := sv.SolveQuality(n)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			check(string(sol.Stats.Dispatch), trial, sol)
		}
		rn := randomDelayNetwork(rng, 2+rng.IntN(3))
		sol, err := cg.SolveQualityRandom(rn, randomTimeouts(rng, rn))
		if err != nil {
			t.Fatalf("random trial %d: %v", trial, err)
		}
		check("random", trial, sol)
	}
	big := make([]float64, 64)
	sol, err := dense.SolveQuality(pricerTestNetwork(rng, 3, 2))
	if err != nil {
		t.Fatal(err)
	}
	if got := sol.SentRates(big); &got[0] != &big[0] {
		t.Error("SentRates reallocated a dst large enough to hold the rates")
	}
}

// TestActiveCombosAllocatesOnce pins ActiveCombos at one allocation, the
// result, on a dense 3×2 solve with a few active combinations and a
// column-generation 40×4 solve with dozens.
func TestActiveCombosAllocatesOnce(t *testing.T) {
	rng := rand.New(rand.NewPCG(0xac7e, 1))
	for _, shape := range []struct{ paths, trans int }{{3, 2}, {40, 4}} {
		sol, err := SolveQuality(diffRandomNetwork(rng, shape.paths, shape.trans))
		if err != nil {
			t.Fatal(err)
		}
		active := len(sol.ActiveCombos(1e-9))
		if active == 0 {
			t.Fatalf("%d×%d: no active combination", shape.paths, shape.trans)
		}
		if allocs := testing.AllocsPerRun(100, func() { sol.ActiveCombos(1e-9) }); allocs != 1 {
			t.Errorf("%d×%d: ActiveCombos over %d active combinations made %v allocations, want 1",
				shape.paths, shape.trans, active, allocs)
		}
	}
}
