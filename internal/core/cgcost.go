package core

// minCostObjective is the §VI-A master: minimize the expected total
// cost per second (Eq. 21) over the bandwidth rows, the quality floor
// p·x ≥ minQuality (Eq. 22's constraint), and the conservation row. No
// cost row: the formulation replaces the budget µ with the floor. A
// restricted master over too small a pool can miss the floor; runCG
// then grows it by pricing the master's Farkas certificate.
type minCostObjective struct {
	m          *model
	pr         *pricer
	minQuality float64
}

func (o *minCostObjective) master() masterSpec {
	return masterSpec{minCost: true, floor: o.minQuality}
}

func (o *minCostObjective) evalColumn(combo []int, weights []float64) (float64, float64) {
	return o.m.evalColumn(combo, weights)
}

func (o *minCostObjective) reprice(duals []float64) {
	o.pr.repriceMinCost(o.master().split(o.m, duals))
}

// farkas loads an infeasible master's certificate y — bandwidth
// multipliers yᵢ ≥ 0, the quality floor's y_q ≤ 0 and the conservation
// row's y₀ — so that a column's gain is
//
//	−y·a = −y_q·p_l − Σᵢ λyᵢ·shareₗ[i] − y₀:
//
// min-cost pricing with every path cost zero and the multipliers
// negated (α = −y_q, wᵢ = λyᵢ), under the same sign clamps.
func (o *minCostObjective) farkas(ray []float64) bool {
	yBW, yQ, y0 := o.master().split(o.m, ray)
	λ := o.m.net.Rate
	o.pr.load(max(-yQ, 0), func(i int, _ *Path) float64 {
		return max(λ*yBW[i-1], 0)
	}, y0)
	return true
}

func (o *minCostObjective) price(floor float64) [][]int { return o.pr.price(floor) }

func (o *minCostObjective) seed(cs *colSet, scratch []int) { o.m.seedColumns(cs, o, scratch) }

// grow resizes a workspace, reusing capacity. Contents are unspecified;
// callers overwrite every entry they read.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n, n+n/2)
	}
	return buf[:n]
}

// achievedQuality is p·x, the quality a min-cost master's solution
// delivers: its LP objective is cost, not quality.
func achievedQuality(x, delivery []float64) float64 {
	var q float64
	for l, v := range x {
		q += v * delivery[l]
	}
	return q
}
