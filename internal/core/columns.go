package core

import (
	"math"
	"slices"
	"time"
)

// columns holds the per-combination LP coefficient columns of Eq. 10 in
// flat form: one delivery probability and cost per combination, plus its
// trans attempts. Attempt k of column l sends on model path
// digits[l*trans+k] with survival mass weights[l*trans+k] — the share of
// the combination's traffic that attempt carries, 0 once the blackhole
// dropped the data or nothing is left to send. A column's share of a
// path (its Eqs. 14–15 bandwidth-row coefficient over λ) is the sum of
// the weights of its attempts on that path (pathShares), so a column
// stores trans shares, not one per path. A columns value is shared
// between the LP build and the returned Solution, so it must not be
// mutated after construction but by the re-solve that owns it.
type columns struct {
	trans    int       // attempts per column
	delivery []float64 // p_l (Eq. 12)
	costs    []float64 // r_l (Eq. 16)
	digits   []int     // nCols × trans: attempt k's model path
	weights  []float64 // nCols × trans: attempt k's survival mass
}

// len returns the number of columns currently held.
func (c *columns) len() int { return len(c.delivery) }

// attempts returns column l's path digits and attempt weights.
func (c *columns) attempts(l int) (digits []int, weights []float64) {
	lo, hi := l*c.trans, (l+1)*c.trans
	return c.digits[lo:hi:hi], c.weights[lo:hi:hi]
}

// combo returns column l's combination as a header into the digits.
func (c *columns) combo(l int) Combo {
	digits, _ := c.attempts(l)
	return Combo(digits)
}

// newColumns allocates the flat column tables for nVars combinations of
// trans attempts: four allocations regardless of nVars.
func newColumns(nVars, trans int) *columns {
	return &columns{
		trans:    trans,
		delivery: make([]float64, nVars),
		costs:    make([]float64, nVars),
		digits:   make([]int, nVars*trans),
		weights:  make([]float64, nVars*trans),
	}
}

// pathShare is one column's send share of one real path.
type pathShare struct {
	path  int // model path index, ≥ 1
	share float64
}

// pathShares appends column l's send shares to dst, one per real path
// its attempts carry traffic on, in increasing path order, and returns
// the extended slice. Each share sums the weights of the column's
// attempts on that path in attempt order: bit for bit what a base-wide
// share row, accumulated attempt by attempt, would hold. The blackhole
// has no bandwidth row and is left out, and so are attempts of weight
// 0, which add nothing to any row.
func (c *columns) pathShares(l int, dst []pathShare) []pathShare {
	digits, weights := c.attempts(l)
	start := len(dst)
	dst = slices.Grow(dst, len(digits))
	for k, i := range digits {
		w := weights[k]
		if i == 0 || w == 0 {
			continue
		}
		// Insertion sort: j ends past the last share of a path ≤ i.
		j := len(dst)
		for j > start && dst[j-1].path > i {
			j--
		}
		if j > start && dst[j-1].path == i {
			dst[j-1].share += w
			continue
		}
		dst = dst[:len(dst)+1]
		for n := len(dst) - 1; n > j; n-- {
			dst[n] = dst[n-1]
		}
		dst[j] = pathShare{i, w}
	}
	return dst
}

// columnEvaluator computes one combination's LP column — delivery
// probability, expected cost, and the survival mass of each attempt,
// written to every slot of weights (one per digit of combo). The
// deterministic model evaluates its attempt schedule; the random-delay
// objective reads its Eq. 27–30 pair tables. Dense enumeration and
// column generation share it, so both build bit-identical columns.
type columnEvaluator interface {
	evalColumn(combo []int, weights []float64) (delivery, cost float64)
}

// evalColumn evaluates one combination's deterministic-delay LP column
// in a single fused pass over its attempts.
func (m *model) evalColumn(combo []int, weights []float64) (delivery, cost float64) {
	δ := m.net.Lifetime
	surv := 1.0
	var t time.Duration
	for k, i := range combo {
		weights[k] = surv
		if surv == 0 {
			continue
		}
		if i == 0 {
			// Blackhole: the data is deliberately dropped; later
			// attempts never happen and cost nothing.
			surv = 0
			continue
		}
		p := &m.paths[i]
		cost += surv * p.Cost
		arrival := t + p.Delay
		if arrival >= 0 && arrival <= δ { // guard overflow
			delivery += surv * (1 - p.Loss)
		}
		next := t + p.Delay + m.dmin
		if next < t { // overflow
			next = time.Duration(math.MaxInt64)
		}
		t = next
		surv *= p.Loss
	}
	return delivery, cost
}

// computeColumns enumerates every combination once in Eq. 13 order and
// evaluates each column via ev — the allocation-light dense enumeration.
func (m *model) computeColumns(ev columnEvaluator) *columns {
	trans := m.m
	cols := newColumns(m.nVars, trans)
	for l := 1; l < m.nVars; l++ {
		digits := cols.digits[l*trans : (l+1)*trans]
		copy(digits, cols.digits[(l-1)*trans:l*trans])
		m.nextCombo(digits)
	}
	cols.evaluate(ev)
	return cols
}

// nextCombo advances digits to the next combination in Eq. 13 order: an
// odometer increment of the little-endian path digits, which wraps from
// the last combination to the all-blackhole one.
func (m *model) nextCombo(digits []int) {
	for k := range digits {
		if digits[k]++; digits[k] < m.base {
			return
		}
		digits[k] = 0
	}
}

// evaluate (re-)evaluates every column in place via ev. Evaluators write
// every slot, so nothing is cleared first, and the digits — the
// combinations themselves — are only read. This is the heart of the
// incremental warm path: a model whose coefficients (λ, µ, loss, delay,
// timeouts) drifted but whose shape (path count, transmissions) did not
// reuses its dense table or its column-generation pool without an
// allocation. Callers holding a Solution that shares the tables see it
// change underneath them; Solver.Resolve documents that contract.
func (c *columns) evaluate(ev columnEvaluator) {
	for l := range c.delivery {
		digits, weights := c.attempts(l)
		c.delivery[l], c.costs[l] = ev.evalColumn(digits, weights)
	}
}

// appendColumn appends combo's digits and its column as ev evaluates it
// — the dynamically grown column pool of column generation.
func (c *columns) appendColumn(ev columnEvaluator, combo []int) {
	start := len(c.digits)
	c.digits = append(c.digits, combo...)
	c.weights = slices.Grow(c.weights, len(combo))[:len(c.digits)]
	delivery, cost := ev.evalColumn(c.digits[start:], c.weights[start:])
	c.delivery = append(c.delivery, delivery)
	c.costs = append(c.costs, cost)
}
