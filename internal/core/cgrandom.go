package core

import (
	"math"
	"time"

	"dmc/internal/dist"
)

// randomObjective is the §VI-B random-delay quality maximization over
// m = 2 columns. The Eqs. 27–30 coefficients of a pair (i, j) depend on
// the delay distributions and the timeout table but not on the duals,
// so they are tabulated once per solve — P(retransᵢⱼ) and the
// retransmission's in-time delivery per ordered real pair — and column
// evaluation (dense enumeration and column generation alike) and
// pricing read the tables in O(1) per pair. The pricing oracle is a
// plain exact scan of the (n+1)² pair space: no branch-and-bound is
// needed at m = 2, and the scan materializes nothing, which is the
// point — the dense path's table of every pair is what stops fitting
// past the cap.
type randomObjective struct {
	m *model

	// Per real path i (model index, 1-based): delivery of an in-time
	// first attempt, and the drop-leg retransmission probability
	// 1 − P(dᵢ+d_min ≤ δ)(1−τᵢ) used for blackhole and undefined-timeout
	// retransmissions.
	firstDeliver []float64
	pDrop        []float64
	// Per ordered real pair (i, j) at (i-1)*(base-1)+(j-1): the Eq. 27
	// retransmission probability and the Eq. 28 second-leg delivery
	// P(t+dⱼ ≤ δ)(1−τⱼ); undefined timeouts hold pDrop[i] and 0.
	pRetr    []float64
	pDeliver []float64

	// Current duals (loaded by reprice).
	yBW   []float64
	yCost float64
	y0    float64

	top topK
}

// load tabulates the Eqs. 27–30 pair coefficients for m into the
// objective's own storage, growing it to m's shape. It takes the dense
// and the sparse model alike.
func (o *randomObjective) load(m *model, to *Timeouts) {
	o.m = m
	n := m.net
	δ := n.Lifetime
	real := m.base - 1
	o.firstDeliver = grow(o.firstDeliver, m.base)
	o.pDrop = grow(o.pDrop, m.base)
	o.pRetr = grow(o.pRetr, real*real)
	o.pDeliver = grow(o.pDeliver, real*real)

	ack := n.Paths[n.AckPathIndex()].delayDist()
	for i := 1; i < m.base; i++ {
		pi := n.Paths[i-1]
		di := pi.delayDist()
		o.firstDeliver[i] = di.CDF(δ) * (1 - pi.Loss)
		// rtt is the distribution of dᵢ + d_min (1-based model index i
		// corresponds to Paths[i-1]).
		rtt := dist.NewSum(di, ack)
		o.pDrop[i] = 1 - rtt.CDF(δ)*(1-pi.Loss)
		// One-entry memo: under common timeout tables (deterministic
		// t = dᵢ + d_min + margin) every j shares path i's timeout, so
		// the convolution CDF — the expensive probe — evaluates once per
		// row instead of once per pair.
		lastT, lastCDF := time.Duration(-1), 0.0
		for j := 1; j < m.base; j++ {
			pj := n.Paths[j-1]
			at := (i-1)*real + (j - 1)
			if t, ok := to.Get(i-1, j-1); ok {
				if t != lastT {
					lastT, lastCDF = t, rtt.CDF(t)
				}
				o.pRetr[at] = 1 - lastCDF*(1-pi.Loss)
				o.pDeliver[at] = pj.delayDist().CDF(δ-t) * (1 - pj.Loss)
			} else {
				// No timeout makes the retransmission useful; a sender
				// assigned this combination would wait until the
				// deadline and the retransmission never delivers in
				// time. The column is dominated by (i, blackhole).
				o.pRetr[at] = o.pDrop[i]
				o.pDeliver[at] = 0
			}
		}
	}
}

// evalColumn evaluates a pair's Eqs. 27–30 column (formulas on
// SolveQualityRandom) from the tables. It is the only evaluation of
// those columns: dense enumeration runs it over every pair, column
// generation over the pool. The first attempt carries the whole pair's
// traffic, the second its retransmission probability.
func (o *randomObjective) evalColumn(combo []int, weights []float64) (float64, float64) {
	i, j := combo[0], combo[1]
	weights[0] = 1
	if o.m.isBlackhole(i) {
		// Dropped on arrival at the sender: nothing delivered, nothing
		// retransmitted, no cost.
		weights[1] = 0
		return 0, 0
	}
	pi := &o.m.paths[i]
	delivery := o.firstDeliver[i]
	cost := pi.Cost
	if o.m.isBlackhole(j) {
		// Drop after first failure; charge the blackhole nominally.
		weights[1] = o.pDrop[i]
		return clamp01(delivery), cost
	}
	at := (i-1)*(o.m.base-1) + (j - 1)
	pR := o.pRetr[at]
	weights[1] = pR
	cost += pR * o.m.paths[j].Cost
	return clamp01(delivery + pR*o.pDeliver[at]), cost
}

func (o *randomObjective) master() masterSpec { return masterSpec{costRow: true} }

// reprice stores the master duals (bandwidth rows, the cost row when
// the budget is finite, the conservation row).
func (o *randomObjective) reprice(duals []float64) {
	o.yBW = duals[:o.m.base-1]
	next := o.m.base - 1
	o.yCost = 0
	if !math.IsInf(o.m.net.CostBound, 1) {
		o.yCost = duals[next]
		next++
	}
	o.y0 = duals[next]
}

// price scans every pair exactly and keeps each first path's best
// partner: the pairs split by their first attempt into one pricing
// subproblem per real path, as the deterministic oracle's do, and the
// cgColumnsPerIter best winners above the floor are returned, no two
// with the same first attempt. rc(i,j) decomposes into a first-leg term
// aᵢ = firstDeliverᵢ − λ(yᵢ + y_c·cᵢ) − y₀ plus, for a real
// retransmission leg, pRᵢⱼ·(pDᵢⱼ − λ(yⱼ + y_c·cⱼ)); blackhole shares
// never enter a constraint row. The result is headers into the
// objective's storage, valid until its next price call.
func (o *randomObjective) price(floor float64) [][]int {
	o.top.reset(2, floor)
	λ := o.m.net.Rate
	base := o.m.base
	real := base - 1

	// All blackhole-first pairs are the identical empty column; only
	// (0,0) is ever considered.
	if rc := -o.y0; rc > o.top.floor {
		o.top.push(rc, nil)
	}
	// price per real path: w_i = λ(yᵢ + y_c·cᵢ). The delivery sum is
	// priced exactly as evalColumn computes it — including the Eq. 28
	// clamp at 1 — or clamped pairs would carry inflated reduced costs
	// and stall the loop on permanent duplicates.
	for i := 1; i < base; i++ {
		wi := λ * (o.yBW[i-1] + o.yCost*o.m.paths[i].Cost)
		pair := [2]int{i, 0} // drop after the first attempt
		best := o.firstDeliver[i] - wi - o.y0
		row := o.pRetr[(i-1)*real : i*real]
		del := o.pDeliver[(i-1)*real : i*real]
		for j := 1; j < base; j++ {
			wj := λ * (o.yBW[j-1] + o.yCost*o.m.paths[j].Cost)
			pR := row[j-1]
			d := o.firstDeliver[i] + pR*del[j-1]
			if d > 1 {
				d = 1
			}
			if rc := d - wi - pR*wj - o.y0; rc > best {
				pair[1], best = j, rc
			}
		}
		if best > o.top.floor {
			o.top.push(best, pair[:])
		}
	}
	return o.top.combos()
}

// seed primes the pool: the empty column, one drop-after-first column
// per real path, and each path's best retransmission partner by
// second-leg delivery mass. The digit scratch is unused — pair combos
// are tiny literals.
func (o *randomObjective) seed(cs *colSet, _ []int) {
	m := o.m
	cs.add(m, o, []int{0, 0})
	real := m.base - 1
	for i := 1; i < m.base; i++ {
		cs.add(m, o, []int{i, 0})
		bestJ, bestGain := 0, 0.0
		row := o.pRetr[(i-1)*real : i*real]
		del := o.pDeliver[(i-1)*real : i*real]
		for j := 1; j < m.base; j++ {
			if g := row[j-1] * del[j-1]; g > bestGain {
				bestJ, bestGain = j, g
			}
		}
		if bestJ != 0 {
			cs.add(m, o, []int{i, bestJ})
		}
	}
}
