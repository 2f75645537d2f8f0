package core

import (
	"math"
	"time"
)

// columns holds the per-combination LP coefficient columns of Eq. 10 in
// flat form: one delivery probability and cost per combination, plus the
// send-share matrix stored row-major (combination l's share of model path
// i at shares[l*base+i]). A columns value is computed in a single pass
// over the combination space and is shared between the LP build and the
// returned Solution, so it must not be mutated after construction.
type columns struct {
	delivery []float64 // p_l (Eq. 12)
	costs    []float64 // r_l (Eq. 16)
	shares   []float64 // nCols × base, row-major
	combos   []Combo   // headers into one backing array (dense) or into chunks (appendColumn)
	// free is the unused tail of the chunk appendColumn carves pooled
	// combinations from. A chunk is never rewritten, so a Solution can
	// keep sharing the combinations carved from it.
	free []int
}

// comboChunk is how many combinations appendColumn carves from one
// allocation.
const comboChunk = 64

// len returns the number of columns currently held.
func (c *columns) len() int { return len(c.delivery) }

// newColumns allocates the flat column tables for nVars combinations of
// trans path digits: one backing array carries every Combo, so the whole
// structure costs five allocations regardless of nVars.
func newColumns(nVars, base, trans int) *columns {
	cols := &columns{
		delivery: make([]float64, nVars),
		costs:    make([]float64, nVars),
		shares:   make([]float64, nVars*base),
		combos:   make([]Combo, nVars),
	}
	backing := make([]int, nVars*trans)
	for l := 0; l < nVars; l++ {
		cols.combos[l] = Combo(backing[l*trans : (l+1)*trans])
	}
	return cols
}

// columnEvaluator computes one combination's LP column — delivery
// probability, expected cost, and per-path send shares — into share (a
// zeroed slice of length base). The deterministic model evaluates its
// attempt schedule; the random-delay objective reads its Eq. 27–30 pair
// tables. Dense enumeration and column generation share it, so both
// build bit-identical columns.
type columnEvaluator interface {
	evalColumn(combo []int, share []float64) (delivery, cost float64)
}

// evalColumn evaluates one combination's deterministic-delay LP column
// in a single fused pass over its attempts.
func (m *model) evalColumn(combo []int, share []float64) (delivery, cost float64) {
	δ := m.net.Lifetime
	surv := 1.0
	var t time.Duration
	for _, i := range combo {
		p := &m.paths[i]
		share[i] += surv
		if i == 0 {
			// Blackhole: the data is deliberately dropped; later
			// attempts never happen and cost nothing.
			break
		}
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
		if surv == 0 {
			break
		}
	}
	return delivery, cost
}

// computeColumns enumerates every combination once with an odometer over
// the little-endian path digits (Eq. 13) and evaluates each column via
// ev — the allocation-light dense enumeration. digits is caller-provided
// scratch of length ≥ m.
func (m *model) computeColumns(digits []int, ev columnEvaluator) *columns {
	cols := newColumns(m.nVars, m.base, m.m)
	m.computeColumnsInto(cols, digits, ev)
	return cols
}

// computeColumnsInto re-evaluates the dense column tables in place for a
// model whose coefficients (λ, µ, loss, delay, timeouts) drifted but
// whose shape (path count, transmissions) did not: cols must have been
// built by computeColumns for the same (nVars, base, trans). Every entry
// is overwritten, so no allocation survives a re-solve — the heart of
// the incremental warm path. Callers holding a Solution that shares cols
// see it change underneath them; Solver.Resolve documents that contract.
func (m *model) computeColumnsInto(cols *columns, digits []int, ev columnEvaluator) {
	base, trans, nVars := m.base, m.m, m.nVars
	clear(cols.shares)
	digits = digits[:trans]
	for k := range digits {
		digits[k] = 0
	}
	for l := 0; l < nVars; l++ {
		combo := cols.combos[l]
		copy(combo, digits)
		cols.delivery[l], cols.costs[l] = ev.evalColumn(combo, cols.shares[l*base:(l+1)*base])

		// Odometer increment of the little-endian digits.
		for k := 0; k < trans; k++ {
			digits[k]++
			if digits[k] < base {
				break
			}
			digits[k] = 0
		}
	}
}

// appendColumn evaluates combo's column via ev and appends it, copying
// the digits into the current chunk — the dynamically grown column pool
// of column generation.
func (c *columns) appendColumn(base int, ev columnEvaluator, combo []int) {
	start := len(c.shares)
	c.shares = append(c.shares, make([]float64, base)...)
	delivery, cost := ev.evalColumn(combo, c.shares[start:start+base])
	c.delivery = append(c.delivery, delivery)
	c.costs = append(c.costs, cost)
	k := len(combo)
	if len(c.free) < k {
		c.free = make([]int, comboChunk*k)
	}
	dst := Combo(c.free[:k:k])
	c.free = c.free[k:]
	copy(dst, combo)
	c.combos = append(c.combos, dst)
}
