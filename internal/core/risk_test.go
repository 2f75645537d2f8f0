package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	randv2 "math/rand/v2"
	"testing"
	"time"

	"dmc/internal/dist"
)

func TestRiskReportTightSolutionExceedsHalfTheTime(t *testing.T) {
	// The LP saturates path 2 in expectation; with random per-packet
	// draws, realized usage exceeds the cap ≈ half the time (§IX-C's
	// motivation).
	n := tableIIINetwork(90, 800*time.Millisecond)
	s := solveQ(t, n)
	rep, err := s.RiskReport(1024)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Bandwidth) != 2 {
		t.Fatalf("report size %d", len(rep.Bandwidth))
	}
	// Path 2 is exactly tight: P ≈ 0.5.
	if rep.Bandwidth[1] < 0.35 || rep.Bandwidth[1] > 0.65 {
		t.Errorf("tight path exceedance %v, want ≈0.5", rep.Bandwidth[1])
	}
	if rep.Cost != 0 {
		t.Errorf("cost exceedance %v with unlimited budget", rep.Cost)
	}
	if rep.Max() < rep.Bandwidth[1] {
		t.Error("Max() wrong")
	}
	if rep.PacketsPerSecond < 10000 || rep.PacketsPerSecond > 11000 {
		t.Errorf("pps = %v", rep.PacketsPerSecond)
	}
}

func TestRiskReportSlackSolutionIsSafe(t *testing.T) {
	// Light load: nothing close to any cap → negligible probabilities.
	n := tableIIINetwork(10, 800*time.Millisecond)
	s := solveQ(t, n)
	rep, err := s.RiskReport(1024)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Max() > 1e-6 {
		t.Errorf("slack solution risk %v", rep.Max())
	}
}

func TestRiskReportArgErrors(t *testing.T) {
	n := tableIIINetwork(90, 800*time.Millisecond)
	s := solveQ(t, n)
	if _, err := s.RiskReport(0); err == nil {
		t.Error("zero packet size accepted")
	}
	if _, err := s.RiskReport(-5); err == nil {
		t.Error("negative packet size accepted")
	}
	tiny := NewNetwork(10, time.Second, Path{Bandwidth: 100, Delay: time.Millisecond})
	ts := solveQ(t, tiny)
	if _, err := ts.RiskReport(1024); err == nil {
		t.Error("sub-1-pps workload accepted")
	}
}

func TestSolveQualityRiskAdjusted(t *testing.T) {
	n := tableIIINetwork(90, 800*time.Millisecond)
	plain := solveQ(t, n)
	sol, rep, err := SolveQualityRiskAdjusted(n, RiskOptions{Epsilon: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Max() > 0.05 {
		t.Errorf("adjusted risk %v > 0.05", rep.Max())
	}
	// Safety costs quality, but only a little.
	if sol.Quality >= plain.Quality {
		t.Errorf("risk-adjusted quality %v not below tight quality %v", sol.Quality, plain.Quality)
	}
	if sol.Quality < plain.Quality-0.05 {
		t.Errorf("risk adjustment overshot: %v vs %v", sol.Quality, plain.Quality)
	}
}

func TestSolveQualityRiskAdjustedCostRow(t *testing.T) {
	n := NewNetwork(10*Mbps, 800*time.Millisecond,
		Path{Bandwidth: 50 * Mbps, Delay: 200 * time.Millisecond, Loss: 0.3, Cost: 1},
		Path{Bandwidth: 50 * Mbps, Delay: 100 * time.Millisecond, Loss: 0, Cost: 10},
	)
	n.CostBound = 40 * Mbps // exactly the cost of the all-(1,2) strategy
	sol, rep, err := SolveQualityRiskAdjusted(n, RiskOptions{Epsilon: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cost > 0.02 {
		t.Errorf("cost exceedance %v", rep.Cost)
	}
	if sol.Cost() > n.CostBound {
		t.Errorf("expected cost %v above budget %v", sol.Cost(), n.CostBound)
	}
}

func TestSolveQualityRiskAdjustedValidation(t *testing.T) {
	bad := &Network{}
	if _, _, err := SolveQualityRiskAdjusted(bad, RiskOptions{}); err == nil {
		t.Error("invalid network accepted")
	}
	// Unattainable epsilon with no shrink room: epsilon so small the loop
	// gives up (quality floor at 0 still leaves pps variance on used
	// paths... use a tiny round budget to force the error).
	n := tableIIINetwork(90, 800*time.Millisecond)
	_, _, err := SolveQualityRiskAdjusted(n, RiskOptions{Epsilon: 1e-12, MaxRounds: 1})
	if !errors.Is(err, ErrRiskUnattainable) {
		t.Errorf("want ErrRiskUnattainable, got %v", err)
	}
}

// TestRiskReportMonteCarlo validates the Gaussian model against direct
// simulation of per-packet draws.
func TestRiskReportMonteCarlo(t *testing.T) {
	n := tableIIINetwork(90, 800*time.Millisecond)
	s := solveQ(t, n)
	rep, err := s.RiskReport(1024)
	if err != nil {
		t.Fatal(err)
	}

	// Simulate one-second windows of weighted-random scheduling with real
	// Bernoulli losses and count path-2 overflows.
	rng := rand.New(rand.NewSource(77))
	pps := int(rep.PacketsPerSecond)
	bits := 1024 * 8.0
	cum := make([]float64, len(s.X))
	acc := 0.0
	for l, x := range s.X {
		acc += x
		cum[l] = acc
	}
	combos := s.Combos()
	var exceed2 int
	const windows = 400
	for w := 0; w < windows; w++ {
		var used2 float64
		for p := 0; p < pps; p++ {
			u := rng.Float64()
			l := 0
			for l < len(cum) && cum[l] < u {
				l++
			}
			if l >= len(combos) {
				l = len(combos) - 1
			}
			// Attempt k fires iff every earlier attempt was lost; the
			// blackhole ends the chain.
			for _, pathIdx := range combos[l] {
				if pathIdx == 0 {
					break
				}
				if pathIdx == 2 {
					used2 += bits
				}
				if lost := rng.Float64() < n.Paths[pathIdx-1].Loss; !lost {
					break
				}
			}
		}
		if used2 > n.Paths[1].Bandwidth {
			exceed2++
		}
	}
	mc := float64(exceed2) / windows
	if math.Abs(mc-rep.Bandwidth[1]) > 0.12 {
		t.Errorf("Monte-Carlo exceedance %v vs Gaussian %v", mc, rep.Bandwidth[1])
	}
}

// TestRiskReportMatchesSolution: the Gaussian behind RiskReport is
// centred on the solution's own expected usage. Its per-path mean is
// SentRate(i) and its mean cost is Cost(), for quality, min-cost and
// random-delay solutions on both dispatches: an attempt fires with the
// mass the LP rows charge it, which under random delays is Eq. 27's
// P(retransᵢⱼ), not the first attempt's loss. Neither the report nor
// its moments allocate per column.
func TestRiskReportMatchesSolution(t *testing.T) {
	rng := randv2.New(randv2.NewPCG(0x71, 0x5c))
	type solveCase struct {
		name  string
		solve func(*Solver) (*Solution, error)
	}
	var cases []solveCase
	for k, shape := range [][2]int{{3, 2}, {4, 3}, {6, 2}, {5, 4}} {
		n := diffRandomNetwork(rng, shape[0], shape[1])
		if k%2 == 1 {
			n.CostBound *= 0.2 // a binding budget
		}
		cases = append(cases,
			solveCase{fmt.Sprintf("quality/%dx%d", shape[0], shape[1]), func(s *Solver) (*Solution, error) { return s.SolveQuality(n) }},
			solveCase{fmt.Sprintf("mincost/%dx%d", shape[0], shape[1]), func(s *Solver) (*Solution, error) {
				q, err := s.SolveQuality(n)
				if err != nil {
					return nil, err
				}
				return s.SolveMinCost(n, 0.9*q.Quality)
			}})
	}
	// Two gamma-delay paths under Eq. 4 timeouts: the LP loads path 2 to
	// its 20 Mbps cap with retransmissions whose P(retransᵢⱼ) exceeds
	// path 1's 20% loss.
	gamma := NewNetwork(90*Mbps, 750*time.Millisecond,
		Path{Bandwidth: 80 * Mbps, Loss: 0.2, RandDelay: dist.ShiftedGamma{Loc: 400 * time.Millisecond, Shape: 10, Scale: 4 * time.Millisecond}},
		Path{Bandwidth: 20 * Mbps, RandDelay: dist.ShiftedGamma{Loc: 100 * time.Millisecond, Shape: 5, Scale: 2 * time.Millisecond}},
	)
	gamma.CostBound = 1e9
	gamma.Paths[0].Cost, gamma.Paths[1].Cost = 1, 2
	gammaTO, err := DeterministicTimeouts(gamma, 0)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, solveCase{"random/gamma-2x2", func(s *Solver) (*Solution, error) { return s.SolveQualityRandom(gamma, gammaTO) }})
	for k := range 4 {
		n := randomDelayNetwork(rng, 2+2*k)
		to := randomTimeouts(rng, n)
		cases = append(cases, solveCase{fmt.Sprintf("random/%dx2", len(n.Paths)), func(s *Solver) (*Solution, error) { return s.SolveQualityRandom(n, to) }})
	}

	near := func(got, want float64) bool {
		return math.Abs(got-want) <= 1e-12*math.Max(math.Abs(got), math.Abs(want))
	}
	for _, c := range cases {
		for _, d := range []struct {
			name string
			s    *Solver
		}{{"dense", forceDense()}, {"cg", forceCG()}} {
			sol, err := c.solve(d.s)
			if err != nil {
				t.Fatalf("%s/%s: %v", c.name, d.name, err)
			}
			np := len(sol.Network.Paths)
			mean, second := make([]float64, np), make([]float64, np)
			costMean, _ := sol.riskMoments(mean, second)
			rate := sol.Network.Rate
			for i := range np {
				if got, want := mean[i]*rate, sol.SentRate(i); !near(got, want) {
					t.Errorf("%s/%s: path %d mean usage %v, SentRate %v", c.name, d.name, i+1, got, want)
				}
			}
			if got, want := costMean*rate, sol.Cost(); !near(got, want) {
				t.Errorf("%s/%s: mean cost %v, Cost() %v", c.name, d.name, got, want)
			}
		}
	}

	// The report allocates the same few times over 16 dense columns as
	// over a 40×4 column-generation pool.
	if raceEnabled {
		return
	}
	small, err := forceDense().SolveQuality(diffRandomNetwork(rng, 3, 2))
	if err != nil {
		t.Fatal(err)
	}
	large, err := forceCG().SolveQuality(diffRandomNetwork(rng, 40, 4))
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(sol *Solution) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := sol.RiskReport(1024); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a, b := allocs(small), allocs(large); a != b || b > 3 {
		t.Errorf("RiskReport allocates %v times over %d columns and %v over %d, want the same count, at most 3",
			a, small.Stats.Columns, b, large.Stats.Columns)
	}
}
