package core

import (
	"math"
	"math/rand/v2"
	"testing"
	"time"
)

// FuzzPricerMatchesEnumeration checks the branch-and-bound pricing
// oracle's contract against brute force over all (n+1)^m combinations,
// each priced from evalColumn's column and the duals: the result is
// empty exactly when no combination prices above the floor, every
// returned combination prices above it, none repeats, and the best
// returned one attains the maximum. Networks have 1–6 paths and 1–4
// transmissions, with delays and deadlines drawn so that chains run out
// of time at different depths (sometimes landing exactly on δ); duals
// are random for both gain forms — quality with and without the cost
// row, and min-cost with the clamps repriceMinCost applies.
func FuzzPricerMatchesEnumeration(f *testing.F) {
	for shape := range 24 {
		f.Add(uint64(shape)*0x9e3779b97f4a7c15+1, uint8(shape))
	}
	f.Fuzz(func(t *testing.T, seed uint64, shape uint8) {
		rng := rand.New(rand.NewPCG(seed, uint64(shape)))
		n := pricerTestNetwork(rng, 1+int(shape)%6, 1+int(shape/6)%4)
		m, err := newModel(n)
		if err != nil {
			t.Fatal(err)
		}
		pr := newPricer(m)
		for draw := range 6 {
			g := drawPricingDuals(rng, m, pr, draw%3)
			best := math.Inf(-1)
			for l := range m.nVars {
				best = max(best, g.gain(m.combo(l)))
			}
			for _, floor := range []float64{cgPriceTol, best - 1e-3*g.scale, best - 1e-9*g.scale, best + 1e-9*g.scale, math.Inf(-1)} {
				checkPricerAgainstEnumeration(t, m, pr, g, floor, best)
			}
		}
	})
}

// pricerTestNetwork draws a network whose delays straddle the deadline:
// the fastest path sets d_min, and δ falls anywhere from one fast
// attempt to m slow ones, sometimes exactly on a two-attempt arrival.
func pricerTestNetwork(rng *rand.Rand, paths, trans int) *Network {
	ps := make([]Path, paths)
	rate := (1 + rng.Float64()*9) * Mbps
	dmin := time.Duration(1+rng.IntN(100)) * time.Millisecond
	slowest := dmin
	for i := range ps {
		d := dmin
		switch {
		case i > 0 && rng.IntN(4) == 0:
			d = ps[rng.IntN(i)].Delay // tied delays
		case i > 0:
			d += time.Duration(rng.IntN(500)) * time.Millisecond
		}
		slowest = max(slowest, d)
		loss := rng.Float64() * 0.6
		switch rng.IntN(8) {
		case 0:
			loss = 0
		case 1:
			loss = 1
		}
		ps[i] = Path{
			Bandwidth: (1 + rng.Float64()*9) * Mbps,
			Delay:     d,
			Loss:      loss,
			Cost:      float64(rng.IntN(3)) * rng.Float64() / rate, // λ·c ∈ [0, 2)
		}
	}
	δ := dmin + time.Duration(rng.Int64N(int64(trans)*int64(slowest+dmin)))
	if rng.IntN(4) == 0 {
		δ = ps[rng.IntN(paths)].Delay + dmin + ps[rng.IntN(paths)].Delay
	}
	n := NewNetwork(rate, δ, ps...)
	n.Transmissions = trans
	n.CostBound = 10
	return n
}

// pricingDuals is one dual draw, loaded into the pricer, with the same
// gain recomputed column by column for the brute force.
type pricingDuals struct {
	m     *model
	alpha float64   // delivery weight: 1, or the clamped y_q
	w     []float64 // per model path: the price of one unit of share
	y0    float64   // subtracted from every column's gain
	scale float64   // bound on any one term's magnitude
}

// gain prices combo from its evaluated column: α·p_l − Σᵢ wᵢ·shareₗ[i] − y₀.
func (g *pricingDuals) gain(combo []int) float64 {
	share := make([]float64, g.m.base)
	delivery, _ := g.m.evalColumn(combo, share)
	v := g.alpha*delivery - g.y0
	for i := 1; i < g.m.base; i++ {
		v -= g.w[i] * share[i]
	}
	return v
}

// drawPricingDuals loads random duals of one gain form into pr: 0 is
// quality without the cost row, 1 quality with it, 2 min-cost.
// Quality bandwidth and cost duals are ≥ 0, as the maximization's ≤
// rows give them; min-cost duals take either sign, so the clamps act.
func drawPricingDuals(rng *rand.Rand, m *model, pr *pricer, form int) *pricingDuals {
	λ := m.net.Rate
	real := m.base - 1
	yBW := make([]float64, real)
	g := &pricingDuals{m: m, w: make([]float64, m.base)}
	switch form {
	case 0, 1:
		for i := range yBW {
			if rng.IntN(2) == 0 {
				yBW[i] = rng.Float64() / λ
			}
		}
		yCost := 0.0
		if form == 1 {
			yCost = rng.Float64() * 0.5
		}
		g.alpha, g.y0 = 1, rng.Float64()*2-1
		for i := 1; i < m.base; i++ {
			g.w[i] = λ * (yBW[i-1] + yCost*m.paths[i].Cost)
		}
		pr.repriceQuality(yBW, yCost, g.y0)
	default:
		for i := range yBW {
			yBW[i] = (rng.Float64()*2 - 1) / λ
		}
		yQ, y0 := rng.Float64()*4-1, rng.Float64()*2-1
		g.alpha, g.y0 = max(yQ, 0), -y0
		for i := 1; i < m.base; i++ {
			g.w[i] = max(λ*(m.paths[i].Cost-yBW[i-1]), 0)
		}
		pr.repriceMinCost(yBW, yQ, y0)
	}
	wmax := 0.0
	for _, w := range g.w {
		wmax = max(wmax, w)
	}
	g.scale = max(1, math.Abs(g.y0)+float64(m.m)*(g.alpha+wmax))
	return g
}

func checkPricerAgainstEnumeration(t *testing.T, m *model, pr *pricer, g *pricingDuals, floor, best float64) {
	t.Helper()
	tol := 1e-12 * g.scale
	got := pr.price(floor)
	if len(got) == 0 {
		if best > floor+tol {
			t.Fatalf("floor %v: oracle found nothing, enumeration reaches %v", floor, best)
		}
		return
	}
	if best <= floor-tol {
		t.Fatalf("floor %v: enumeration max %v, yet the oracle returned %d combinations", floor, best, len(got))
	}
	if len(got) > cgColumnsPerIter {
		t.Fatalf("floor %v: %d combinations, want at most %d", floor, len(got), cgColumnsPerIter)
	}
	seen := make(map[uint64]bool, len(got))
	top := math.Inf(-1)
	for _, c := range got {
		if len(c) != m.m {
			t.Fatalf("combination %v has %d digits, want %d", c, len(c), m.m)
		}
		for _, i := range c {
			if i < 0 || i >= m.base {
				t.Fatalf("combination %v: digit outside [0, %d)", c, m.base)
			}
		}
		if key := m.packKey(c); seen[key] {
			t.Fatalf("combination %v returned twice", c)
		} else {
			seen[key] = true
		}
		v := g.gain(c)
		if v <= floor-tol {
			t.Fatalf("floor %v: combination %v prices %v", floor, c, v)
		}
		top = max(top, v)
	}
	if math.Abs(top-best) > tol {
		t.Fatalf("floor %v: best returned gain %v, enumeration max %v", floor, top, best)
	}
}
