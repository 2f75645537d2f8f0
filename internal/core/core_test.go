package core

import (
	"math"
	"math/rand"
	randv2 "math/rand/v2"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"dmc/internal/lp"
)

// tableIIINetwork returns the Table III two-path network with the
// conservative model delays (450/150 ms) the paper uses for Table IV and
// Figure 2.
func tableIIINetwork(rateMbps float64, lifetime time.Duration) *Network {
	return NewNetwork(rateMbps*Mbps, lifetime,
		Path{Name: "path1", Bandwidth: 80 * Mbps, Delay: 450 * time.Millisecond, Loss: 0.2},
		Path{Name: "path2", Bandwidth: 20 * Mbps, Delay: 150 * time.Millisecond, Loss: 0},
	)
}

func solveQ(t *testing.T, n *Network) *Solution {
	t.Helper()
	s, err := SolveQuality(n)
	if err != nil {
		t.Fatalf("SolveQuality: %v", err)
	}
	return s
}

func TestFigure1Scenario(t *testing.T) {
	// §II: 10 Mbps/600 ms/10% + 1 Mbps/200 ms/0%, λ=10 Mbps, δ=1 s.
	// Initial transmission on the high-bandwidth path with retransmission
	// on the low-latency path delivers 100%; neither path alone can.
	n := NewNetwork(10*Mbps, time.Second,
		Path{Name: "highbw", Bandwidth: 10 * Mbps, Delay: 600 * time.Millisecond, Loss: 0.10},
		Path{Name: "lowlat", Bandwidth: 1 * Mbps, Delay: 200 * time.Millisecond, Loss: 0},
	)
	s := solveQ(t, n)
	if math.Abs(s.Quality-1) > 1e-9 {
		t.Errorf("multipath quality = %v, want 1", s.Quality)
	}
	if f := s.Fraction(Combo{1, 2}); math.Abs(f-1) > 1e-9 {
		t.Errorf("x_{1,2} = %v, want 1 (all data on highbw with lowlat retransmission)", f)
	}

	// Single-path baselines: path 1 alone loses 10% (no second attempt in
	// time: 600+600+600 > 1000); path 2 alone caps at 1/10 of the rate.
	s1 := solveQ(t, n.SinglePath(0))
	if math.Abs(s1.Quality-0.9) > 1e-9 {
		t.Errorf("path1-only quality = %v, want 0.9", s1.Quality)
	}
	s2 := solveQ(t, n.SinglePath(1))
	if math.Abs(s2.Quality-0.1) > 1e-9 {
		t.Errorf("path2-only quality = %v, want 0.1", s2.Quality)
	}
}

func TestSolutionMetrics(t *testing.T) {
	n := tableIIINetwork(90, 800*time.Millisecond)
	s := solveQ(t, n)
	// Paper (Table IV bottom, δ=750–1000 row): Q = 14/15.
	if math.Abs(s.Quality-14.0/15) > 1e-9 {
		t.Fatalf("quality = %v, want 14/15", s.Quality)
	}
	// Bandwidth caps respected.
	for i, p := range n.Paths {
		if rate := s.SentRate(i); rate > p.Bandwidth*(1+1e-9) {
			t.Errorf("SentRate(%d) = %v exceeds bandwidth %v", i, rate, p.Bandwidth)
		}
	}
	// Path 2 must be saturated at the optimum (its dual is what limits Q).
	if rate := s.SentRate(1); math.Abs(rate-20*Mbps) > 1 {
		t.Errorf("SentRate(1) = %v, want 20 Mbps (tight)", rate)
	}
	if g := s.Goodput(); math.Abs(g-s.Quality*90*Mbps) > 1 {
		t.Errorf("Goodput = %v, want Quality·λ", g)
	}
	// DropRate is not unique in the Table III scenarios (alternate optima
	// may send excess at p=0.8 instead of dropping), so pin it where it
	// is: a lossless 10 Mbps path fed 20 Mbps must blackhole exactly half.
	overload := NewNetwork(20*Mbps, time.Second,
		Path{Bandwidth: 10 * Mbps, Delay: 100 * time.Millisecond})
	sOver := solveQ(t, overload)
	if math.Abs(sOver.Quality-0.5) > 1e-9 {
		t.Errorf("overload quality = %v, want 0.5", sOver.Quality)
	}
	if d := sOver.DropRate(); math.Abs(d-10*Mbps) > 1 {
		t.Errorf("DropRate(overload) = %v, want 10 Mbps", d)
	}
	// No cost configured: zero.
	if c := s.Cost(); c != 0 {
		t.Errorf("Cost = %v, want 0", c)
	}
	if s.String() == "" {
		t.Error("String empty")
	}
	// The LP solution must verify against its own problem.
	if !lp.Feasible(s.Problem(), s.X, 1e-6) {
		t.Error("solution infeasible against its own LP")
	}
}

func TestActiveCombosAndFraction(t *testing.T) {
	n := tableIIINetwork(90, 800*time.Millisecond)
	s := solveQ(t, n)
	active := s.ActiveCombos(1e-9)
	if len(active) == 0 {
		t.Fatal("no active combos")
	}
	var sum float64
	for _, cs := range active {
		sum += cs.Fraction
		if cs.DeliveryProb < 0 || cs.DeliveryProb > 1 {
			t.Errorf("delivery prob %v outside [0,1]", cs.DeliveryProb)
		}
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Errorf("active fractions sum to %v, want 1", sum)
	}
	// Sorted by decreasing share.
	for k := 1; k < len(active); k++ {
		if active[k].Fraction > active[k-1].Fraction+1e-12 {
			t.Error("ActiveCombos not sorted")
		}
	}
	// Fraction of a bogus combo is 0.
	if s.Fraction(Combo{9, 9}) != 0 || s.Fraction(Combo{1}) != 0 {
		t.Error("bogus combos should have zero fraction")
	}
}

func TestTimeoutsDeterministic(t *testing.T) {
	n := tableIIINetwork(90, 800*time.Millisecond)
	s := solveQ(t, n)
	to := s.Timeouts(100 * time.Millisecond)
	// t₁ = d₁ + d_min + margin = 450+150+100 = 700 ms.
	if to[0] != 700*time.Millisecond {
		t.Errorf("timeout[0] = %v, want 700ms", to[0])
	}
	if to[1] != 400*time.Millisecond {
		t.Errorf("timeout[1] = %v, want 400ms", to[1])
	}
}

func TestQualityUpperBound(t *testing.T) {
	n := tableIIINetwork(90, 800*time.Millisecond)
	ub, err := QualityUpperBound(n)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ub-1) > 1e-12 { // combo (1,2) delivers with prob 1
		t.Errorf("upper bound = %v, want 1", ub)
	}
	s := solveQ(t, n)
	if s.Quality > ub+1e-9 {
		t.Error("quality exceeds upper bound")
	}

	// The bound evaluates combinations as the solve's columns are: it is
	// the largest delivery probability of a dense solve, bit for bit.
	rng := randv2.New(randv2.NewPCG(0x0b, 0x34))
	for trial := 0; trial < 60; trial++ {
		paths, trans := 1+rng.IntN(12), 1+rng.IntN(5)
		if _, ok := combinationCount(paths+1, trans, DefaultDenseThreshold); !ok {
			continue
		}
		n := diffRandomNetwork(rng, paths, trans)
		if trial%3 == 0 {
			n.Lifetime /= 3 // late attempts
		}
		ub, err := QualityUpperBound(n)
		if err != nil {
			t.Fatal(err)
		}
		sol := solveQ(t, n)
		if sol.Stats.Dispatch != DispatchDense {
			t.Fatalf("trial %d: %d×%d solved by %v, want dense", trial, paths, trans, sol.Stats.Dispatch)
		}
		if best := slices.Max(sol.DeliveryProbs()); ub != best {
			t.Errorf("trial %d: %d×%d upper bound %v, dense solve's best column %v", trial, paths, trans, ub, best)
		}
	}

	// One reused digit and weight buffer: the allocations do not grow
	// with the combination count (3² against 11⁴).
	if raceEnabled {
		return
	}
	small, large := diffRandomNetwork(rng, 2, 2), diffRandomNetwork(rng, 10, 4)
	allocs := func(n *Network) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := QualityUpperBound(n); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a, b := allocs(small), allocs(large); a != b || b > 2 {
		t.Errorf("QualityUpperBound allocates %v times over 9 combinations and %v over 14641, want the same count, at most 2", a, b)
	}
}

func TestValidation(t *testing.T) {
	base := tableIIINetwork(90, 800*time.Millisecond)
	cases := []struct {
		name   string
		mutate func(*Network)
	}{
		{"no paths", func(n *Network) { n.Paths = nil }},
		{"zero rate", func(n *Network) { n.Rate = 0 }},
		{"inf rate", func(n *Network) { n.Rate = math.Inf(1) }},
		{"zero lifetime", func(n *Network) { n.Lifetime = 0 }},
		{"neg cost bound", func(n *Network) { n.CostBound = -1 }},
		{"nan cost bound", func(n *Network) { n.CostBound = math.NaN() }},
		{"too many transmissions", func(n *Network) { n.Transmissions = MaxTransmissions + 1 }},
		{"neg transmissions", func(n *Network) { n.Transmissions = -1 }},
		{"zero bandwidth", func(n *Network) { n.Paths[0].Bandwidth = 0 }},
		{"loss above one", func(n *Network) { n.Paths[1].Loss = 1.5 }},
		{"nan loss", func(n *Network) { n.Paths[1].Loss = math.NaN() }},
		{"neg delay", func(n *Network) { n.Paths[0].Delay = -time.Second }},
		{"neg path cost", func(n *Network) { n.Paths[0].Cost = -3 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := tableIIINetwork(90, 800*time.Millisecond)
			*n = *base
			n.Paths = append([]Path(nil), base.Paths...)
			tc.mutate(n)
			if _, err := SolveQuality(n); err == nil {
				t.Error("SolveQuality accepted invalid network")
			}
		})
	}
}

func TestTooManyVariables(t *testing.T) {
	paths := make([]Path, 50)
	for i := range paths {
		paths[i] = Path{Bandwidth: Mbps, Delay: 100 * time.Millisecond}
	}
	n := NewNetwork(Mbps, time.Second, paths...)
	n.Transmissions = 6

	// Dense-only entry points must refuse the 51^6 ≈ 1.8e10 space...
	if _, err := BuildLP(n); err == nil {
		t.Error("BuildLP accepted a combination space beyond DenseLimit")
	}
	// ...while the solve entry points dispatch to column generation and
	// solve it (SolveMinCost and SolveQualityRandom used to stop dead at
	// the cap; see TestMinCostOverflowDispatchesToCG for the overflow
	// regression).
	sol, err := SolveQuality(n)
	if err != nil {
		t.Fatalf("SolveQuality (CG dispatch): %v", err)
	}
	if sol.Stats.Dispatch != DispatchCG {
		t.Errorf("dispatch = %v, want %v", sol.Stats.Dispatch, DispatchCG)
	}
	if sol.Quality <= 0 || sol.Quality > 1 {
		t.Errorf("CG quality = %v", sol.Quality)
	}
	csol, err := SolveMinCost(n, 0.5)
	if err != nil {
		t.Fatalf("SolveMinCost (CG dispatch): %v", err)
	}
	if csol.Stats.Dispatch != DispatchCG {
		t.Errorf("min-cost dispatch = %v, want %v", csol.Stats.Dispatch, DispatchCG)
	}
	if csol.Quality < 0.5-1e-6 {
		t.Errorf("min-cost quality %v below the 0.5 floor", csol.Quality)
	}
}

func TestComboStringAndEqual(t *testing.T) {
	c := Combo{1, 2}
	if c.String() != "x1,2" {
		t.Errorf("String = %q, want x1,2", c.String())
	}
	if !c.Equal(Combo{1, 2}) || c.Equal(Combo{2, 1}) || c.Equal(Combo{1}) {
		t.Error("Equal wrong")
	}
}

func TestAckPathIndexAndMinDelay(t *testing.T) {
	n := tableIIINetwork(90, 800*time.Millisecond)
	if got := n.AckPathIndex(); got != 1 {
		t.Errorf("AckPathIndex = %d, want 1", got)
	}
	if got := n.MinDelay(); got != 150*time.Millisecond {
		t.Errorf("MinDelay = %v, want 150ms", got)
	}
}

func TestSingleTransmission(t *testing.T) {
	// m=1: no retransmissions at all; path1 delivers 80%, capacity split.
	n := tableIIINetwork(90, 800*time.Millisecond)
	n.Transmissions = 1
	s := solveQ(t, n)
	// Best: 20 Mbps on path2 (p=1) + 70 on path1 (p=0.8):
	// Q = (20 + 70·0.8)/90 = 76/90.
	if want := 76.0 / 90; math.Abs(s.Quality-want) > 1e-9 {
		t.Errorf("m=1 quality = %v, want %v", s.Quality, want)
	}
}

func TestThreeTransmissionsImprove(t *testing.T) {
	// With a long lifetime, a third attempt on the lossy path helps.
	n := NewNetwork(50*Mbps, 3*time.Second,
		Path{Bandwidth: 100 * Mbps, Delay: 300 * time.Millisecond, Loss: 0.3},
		Path{Bandwidth: 5 * Mbps, Delay: 100 * time.Millisecond, Loss: 0.1},
	)
	n.Transmissions = 2
	q2 := solveQ(t, n).Quality
	n3 := *n
	n3.Transmissions = 3
	q3 := solveQ(t, &n3).Quality
	if q3 < q2-1e-9 {
		t.Errorf("m=3 quality %v < m=2 quality %v", q3, q2)
	}
	if q3 <= q2+1e-6 {
		t.Errorf("expected strict improvement from third transmission: %v vs %v", q3, q2)
	}
}

// TestQuickQualityBounds: quality always lies in [0,1] and the solution is
// feasible, across random networks.
func TestQuickQualityBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := randomNetwork(rng)
		s, err := SolveQuality(n)
		if err != nil {
			return false
		}
		if s.Quality < 0 || s.Quality > 1 {
			return false
		}
		if !lp.Feasible(s.Problem(), s.X, 1e-6) {
			return false
		}
		for i, p := range n.Paths {
			if s.SentRate(i) > p.Bandwidth*(1+1e-6)+1 {
				return false
			}
		}
		var sum float64
		for _, x := range s.X {
			sum += x
		}
		return math.Abs(sum-1) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickQualityMonotoneLifetime: more lifetime never hurts.
func TestQuickQualityMonotoneLifetime(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := randomNetwork(rng)
		n.Lifetime = time.Duration(50+rng.Intn(500)) * time.Millisecond
		s1, err := SolveQuality(n)
		if err != nil {
			return false
		}
		n2 := *n
		n2.Lifetime = n.Lifetime + time.Duration(rng.Intn(500))*time.Millisecond
		s2, err := SolveQuality(&n2)
		if err != nil {
			return false
		}
		return s2.Quality >= s1.Quality-1e-7
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickQualityMonotoneRate: raising λ cannot raise the quality ratio.
func TestQuickQualityMonotoneRate(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := randomNetwork(rng)
		s1, err := SolveQuality(n)
		if err != nil {
			return false
		}
		n2 := *n
		n2.Rate = n.Rate * (1 + rng.Float64()*3)
		s2, err := SolveQuality(&n2)
		if err != nil {
			return false
		}
		return s2.Quality <= s1.Quality+1e-7
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickMultipathBeatsSinglePath: the multipath optimum dominates every
// single-path optimum (the paper's headline claim).
func TestQuickMultipathBeatsSinglePath(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := randomNetwork(rng)
		s, err := SolveQuality(n)
		if err != nil {
			return false
		}
		for i := range n.Paths {
			si, err := SolveQuality(n.SinglePath(i))
			if err != nil {
				return false
			}
			if s.Quality < si.Quality-1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// randomNetwork builds a small random but valid deterministic network.
func randomNetwork(rng *rand.Rand) *Network {
	numPaths := 1 + rng.Intn(3)
	paths := make([]Path, numPaths)
	for i := range paths {
		paths[i] = Path{
			Bandwidth: (1 + rng.Float64()*99) * Mbps,
			Delay:     time.Duration(10+rng.Intn(600)) * time.Millisecond,
			Loss:      rng.Float64() * 0.5,
		}
	}
	n := NewNetwork((1+rng.Float64()*150)*Mbps, time.Duration(100+rng.Intn(1200))*time.Millisecond, paths...)
	if rng.Intn(2) == 0 {
		n.Transmissions = 1 + rng.Intn(3)
	}
	return n
}
