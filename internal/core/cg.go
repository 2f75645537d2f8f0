package core

import (
	"errors"
	"fmt"
	"math"
	"time"

	"dmc/internal/lp"
)

// Column-generation parameters. The restricted master starts from a
// small greedy seed and alternates LP solves with exact pricing over
// the un-materialized combination space until no column prices
// positive; with a per-iteration batch of columns the iteration count
// stays near the row count, so the cap is a diverged-numerics backstop,
// not a tuning knob.
const (
	cgMaxIterations  = 400
	cgPriceTol       = 1e-9 // reduced-cost threshold: bounds the optimality gap (Σx′ = 1)
	cgColumnsPerIter = 32
	// cgCertTolWarm is the warm re-solves' pricing floor. The optimality
	// gap at termination is bounded by the largest un-added reduced cost
	// (the conservation row fixes Σx′ = 1), so 1e-7 still guarantees the
	// 1e-6 warm/cold agreement contract while letting the oracle's
	// branch-and-bound prune the near-degenerate boundary (hundreds of
	// combinations within 1e-8 of zero) two orders of magnitude earlier
	// than the cold path's 1e-9. A separate, more aggressive floor for
	// intermediate rounds measured strictly slower: smaller floors add
	// more columns per round and converge in fewer, cheaper rounds.
	cgCertTolWarm = 1e-7
)

// errMasterInfeasible marks a restricted master that admits no solution
// over its current column pool. Unreachable for the quality objectives
// (the all-blackhole seed keeps their masters feasible); the min-cost
// driver interprets it as "the pool cannot reach the quality floor yet"
// and either grows the pool or certifies ErrInfeasible.
var errMasterInfeasible = errors.New("core: restricted master infeasible over the current column pool")

// cgObjective abstracts the objective-specific pieces of the
// column-generation engine — what the restricted master optimizes, how a
// combination's LP column is evaluated, and how new columns are priced
// from the master's duals — so one runCG loop serves quality
// maximization (Eq. 10), §VI-A cost minimization under a quality floor,
// and the §VI-B random-delay columns alike.
type cgObjective interface {
	// assembleInto builds the master over the given columns (into the
	// reusable arena when sc is non-nil).
	assembleInto(sc *asmScratch, cols *columns) *lp.Problem
	// columnEvaluator evaluates one combination's LP column.
	columnEvaluator
	// reprice loads the master's dual vector (in its row order) into the
	// pricing oracle.
	reprice(duals []float64)
	// price returns up to cgColumnsPerIter combinations whose pricing
	// gain exceeds floor (reduced cost above floor for maximizations,
	// below −floor for minimizations). The oracle is exact: an empty
	// result certifies no combination prices beyond floor.
	price(floor float64) [][]int
	// seed primes an empty pool with the objective's starting columns
	// (always including the all-blackhole column, which keeps the
	// master feasible at every iteration). scratch is a digit buffer of
	// length ≥ the transmission count.
	seed(cs *colSet, scratch []int)
}

// colSet is the dynamically grown column pool of the restricted master,
// deduplicated by packed combination key.
type colSet struct {
	cols columns
	keys []uint64
	pos  map[uint64]int
}

func newColSet() *colSet {
	return &colSet{pos: make(map[uint64]int)}
}

// add evaluates combo's column under the objective and appends it,
// unless it is already pooled.
func (cs *colSet) add(m *model, obj cgObjective, combo []int) bool {
	key := m.packKey(combo)
	if _, ok := cs.pos[key]; ok {
		return false
	}
	cs.pos[key] = cs.cols.len()
	cs.keys = append(cs.keys, key)
	cs.cols.appendColumn(m.base, obj, combo)
	return true
}

// reevaluate re-prices every pooled column in place against a drifted
// model of the same shape (path count and transmissions unchanged, so
// the packed keys stay valid). This is the warm-resolve pool hit: the
// expensive part of a pooled column — discovering it via the pricing
// oracle — is reused; only the cheap evalColumn pass repeats.
func (cs *colSet) reevaluate(m *model, obj cgObjective) {
	base := m.base
	clear(cs.cols.shares)
	for l, combo := range cs.cols.combos {
		cs.cols.delivery[l], cs.cols.costs[l] = obj.evalColumn(combo, cs.cols.shares[l*base:(l+1)*base])
	}
}

// qualityObjective is the Eq. 10 deterministic-delay quality
// maximization: the master maximizes delivery over bandwidth rows, the
// cost row when the budget is finite and costRow is set, and the
// conservation row; pricing runs the branch-and-bound oracle.
type qualityObjective struct {
	m  *model
	pr *pricer
	// costRow includes the Eq. 16 budget row when the network's bound is
	// finite. The min-cost driver's feasibility stage turns it off: the
	// §VI-A formulation replaces the budget µ with the quality floor.
	costRow bool
}

func (o *qualityObjective) assembleInto(sc *asmScratch, cols *columns) *lp.Problem {
	return o.m.assembleProblemInto(sc, lp.Maximize, cols.delivery, cols, nil, o.costRow)
}

func (o *qualityObjective) evalColumn(combo []int, share []float64) (float64, float64) {
	return o.m.evalColumn(combo, share)
}

// reprice unpacks the master duals. Dual layout follows
// assembleProblem's row order: one bandwidth row per real path, the
// cost row when present, the conservation row last.
func (o *qualityObjective) reprice(duals []float64) {
	yCost := 0.0
	next := o.m.base - 1
	if o.costRow && !math.IsInf(o.m.net.CostBound, 1) {
		yCost = duals[next]
		next++
	}
	o.pr.repriceQuality(duals[:o.m.base-1], yCost, duals[next])
}

func (o *qualityObjective) price(floor float64) [][]int { return o.pr.price(floor) }

func (o *qualityObjective) seed(cs *colSet, scratch []int) { o.m.seedColumns(cs, o, scratch) }

// runCG alternates restricted-master LP solves over the column set with
// exact pricing until no combination prices above certTol (which bounds
// the optimality gap), returning the final master problem and LP
// solution plus the iteration count and whether the first master solve
// warm-started.
//
// The first master solves through SolveWith — warm-started from basis
// when non-nil (the incremental re-solve path). Every later iteration
// appends the freshly priced columns onto the still-hot simplex tableau
// (lp.Solver.AppendSolve): the basis stays factorized in place and only
// the new columns are transformed in, instead of reloading the problem
// and re-installing the basis pivot by pivot. Any append failure falls
// back to a full solve of that master (warm when a basis chain is
// available), preserving the guarantee that the incremental path never
// changes the result.
//
// stop, when non-nil, is checked after every master solve and ends the
// loop early without certification — the min-cost feasibility stage
// uses it to grow the pool just until the quality floor is reachable.
//
// A master that comes back infeasible returns errMasterInfeasible
// (possible only for the min-cost objective's first master).
func (s *Solver) runCG(sc *asmScratch, m *model, cs *colSet, obj cgObjective, basis *lp.Basis, certTol float64, stop func(*lp.Solution) bool) (*lp.Problem, *lp.Solution, int, bool, error) {
	chain := basis != nil
	// The persistent-resolve paths (marked by their assembly scratch)
	// need the final basis captured to warm-start the next re-solve;
	// one-shot solves need it only for the append-failure fallback,
	// which re-covers via a plain cold solve.
	capture := sc != nil

	var prob *lp.Problem
	var lpSol *lp.Solution
	var err error
	iters, firstWarm := 0, false
	prevN := -1
	refreshed := false
	for {
		iters++
		if iters > cgMaxIterations {
			return nil, nil, 0, false, fmt.Errorf("core: column generation did not converge within %d iterations", cgMaxIterations)
		}
		prob = obj.assembleInto(sc, &cs.cols)
		n := cs.cols.len()
		opts := lp.Options{AssumeValid: true, CaptureBasis: capture || chain}
		solved := false
		if prevN >= 0 && n > prevN {
			if sol, aerr := s.lps.AppendSolve(prob, prevN, opts); aerr == nil {
				lpSol, solved = sol, true
			}
		}
		if !solved {
			if basis != nil {
				opts.WarmBasis = basis.Remap(n, nil)
			}
			lpSol, err = s.lps.SolveWith(prob, opts)
			if err != nil {
				return nil, nil, 0, false, fmt.Errorf("core: solving restricted master: %w", err)
			}
		}
		switch lpSol.Status {
		case lp.Optimal:
		case lp.Infeasible:
			return prob, lpSol, iters, firstWarm, errMasterInfeasible
		default:
			return nil, nil, 0, false, fmt.Errorf("core: restricted master unexpectedly %v", lpSol.Status)
		}
		if iters == 1 {
			firstWarm = lpSol.PhaseISkipped
		}
		if chain {
			basis = lpSol.Basis
		}
		prevN = n

		if stop != nil && stop(lpSol) {
			break
		}

		obj.reprice(lpSol.Dual)
		added, priced := 0, 0
		for _, cand := range obj.price(certTol) {
			priced++
			if cs.add(m, obj, cand) {
				added++
			}
		}
		if added == 0 {
			// The oracle pricing POOLED columns above the floor means the
			// master's incrementally maintained reduced costs disagree
			// with the raw coefficients — tableau roundoff from the
			// append chain or a long pivot path. The gap is then real
			// (those columns should re-enter the basis), so force one
			// refactorized master solve — a full reload from raw data —
			// and re-price. A second stall right after the refresh is the
			// float solver's precision limit; accept it.
			if priced > 0 && !refreshed {
				refreshed = true
				prevN = -1
				continue
			}
			break // oracle certifies: no combination prices above certTol
		}
		refreshed = false
	}
	return prob, lpSol, iters, firstWarm, nil
}

// seedColumns primes the restricted master: the all-blackhole column
// (which keeps the conservation row feasible at every iteration), one
// single-attempt column per real path, and one greedy chain per
// starting path that extends with the in-time path of largest marginal
// delivery — a cheap approximation of the columns an optimal basis
// tends to use.
func (m *model) seedColumns(cs *colSet, obj cgObjective, scratch []int) {
	combo := scratch[:m.m]
	clearDigits := func(from int) {
		for k := from; k < m.m; k++ {
			combo[k] = 0
		}
	}

	clearDigits(0)
	cs.add(m, obj, combo) // all-blackhole

	δ := m.net.Lifetime
	for i := 1; i < m.base; i++ {
		combo[0] = i
		clearDigits(1)
		cs.add(m, obj, combo) // single attempt on path i

		t := m.paths[i].Delay + m.dmin
		surv := m.paths[i].Loss
		for k := 1; k < m.m; k++ {
			best, bestGain := 0, 0.0
			for j := 1; j < m.base; j++ {
				arrival := t + m.paths[j].Delay
				if arrival < 0 || arrival > δ {
					continue
				}
				if g := surv * (1 - m.paths[j].Loss); g > bestGain {
					best, bestGain = j, g
				}
			}
			combo[k] = best
			if best == 0 {
				clearDigits(k + 1)
				break
			}
			next := t + m.paths[best].Delay + m.dmin
			if next < t {
				next = time.Duration(math.MaxInt64)
			}
			t = next
			surv *= m.paths[best].Loss
		}
		cs.add(m, obj, combo) // greedy chain from path i
	}
}

// pricer is the best-combination oracle for the deterministic-delay
// objectives: given per-path gains loaded from the master duals it finds
// the combinations maximizing the pricing gain
//
//	v(l) = Σ_k surv_k · gain(i_k) − y₀′
//
// by depth-first search over attempt prefixes. For the quality
// maximization the gain of an in-time attempt on real path i is
// (1−τᵢ) − λ(yᵢ + y_c·cᵢ) and v is the reduced cost; for the §VI-A
// cost minimization it is y_q(1−τᵢ) − λ(cᵢ − yᵢ) and v is the negated
// reduced cost (attractive columns price v > 0 either way). In both
// cases a late attempt contributes surv·(−wᵢ) ≤ 0; removing the last
// negative-contribution attempt from any combination never lowers its
// value (later attempts shift earlier and their survival mass grows),
// so some maximizer uses only in-time attempts with gain > 0 — the
// search expands exactly those, with a τ-discounted optimistic bound
// pruning the rest.
type pricer struct {
	m     *model
	δ     time.Duration
	dmin  time.Duration
	trans int

	gain0 []float64       // per model path: α(1−τᵢ) − wᵢ
	delay []time.Duration // per model path
	loss  []float64
	order []int     // real paths with gain0 > 0, best first
	geo   []float64 // geo[r] = Σ_{j<r} τmax^j, for the optimistic bound
	y0    float64

	digits []int
	found  []pricedCombo
	flo    float64 // current recording floor: cgPriceTol until found is full, then the worst kept rc
}

type pricedCombo struct {
	combo []int
	rc    float64
}

func newPricer(m *model) *pricer {
	return &pricer{
		m:      m,
		δ:      m.net.Lifetime,
		dmin:   m.dmin,
		trans:  m.m,
		gain0:  make([]float64, m.base),
		delay:  make([]time.Duration, m.base),
		loss:   make([]float64, m.base),
		order:  make([]int, 0, m.base),
		geo:    make([]float64, m.m+1),
		digits: make([]int, m.m),
	}
}

// bind points the pricer at a drifted model of the same shape (same
// base and transmissions), so a persistent warm-resolve state can reuse
// the pricer's workspaces across solves. Per-path coefficients are
// reloaded by reprice each iteration anyway.
func (p *pricer) bind(m *model) {
	p.m = m
	p.δ = m.net.Lifetime
	p.dmin = m.dmin
}

// repriceQuality loads a quality-master dual vector: yBW has one
// multiplier per real path (model index i at yBW[i-1]), yCost the cost
// row's (0 when absent), y0 the conservation row's.
func (p *pricer) repriceQuality(yBW []float64, yCost, y0 float64) {
	λ := p.m.net.Rate
	p.load(1, func(i int, path *Path) float64 {
		return λ * (yBW[i-1] + yCost*path.Cost)
	}, y0)
}

// repriceMinCost loads a §VI-A master dual vector. The pricing gain of
// a column is its negated reduced cost
//
//	v(l) = y_q·p_l + Σᵢ λyᵢ·shareₗ[i] − λ·costₗ + y₀,
//
// so an in-time attempt on path i gains surv·(y_q(1−τᵢ) − λ(cᵢ−yᵢ)) and
// a late one surv·(λyᵢ − λcᵢ) ≤ 0: the bandwidth duals yᵢ of ≤ rows are
// ≤ 0 and the quality-floor dual y_q of the ≥ row is ≥ 0 in a
// minimization. Both are clamped against the tiny sign violations a
// degenerate basis can leave, which keeps the branch-and-bound argument
// (late attempts never help) airtight at the cost of an O(tol) pricing
// perturbation — far below the certification floor.
func (p *pricer) repriceMinCost(yBW []float64, yQ, y0 float64) {
	λ := p.m.net.Rate
	if yQ < 0 {
		yQ = 0
	}
	p.load(yQ, func(i int, path *Path) float64 {
		w := λ * (path.Cost - yBW[i-1])
		if w < 0 {
			w = 0
		}
		return w
	}, -y0)
}

// load fills the per-path pricing gains gain0[i] = α(1−τᵢ) − w(i) and
// the constant y0 subtracted from every combination's accumulated gain,
// then orders the positive-gain paths best first and rebuilds the
// geometric optimistic-bound table.
func (p *pricer) load(alpha float64, w func(int, *Path) float64, y0 float64) {
	p.y0 = y0
	p.order = p.order[:0]
	τmax := 0.0
	for i := 1; i < p.m.base; i++ {
		path := &p.m.paths[i]
		p.gain0[i] = alpha*(1-path.Loss) - w(i, path)
		p.delay[i] = path.Delay
		p.loss[i] = path.Loss
		if p.gain0[i] > 0 {
			p.order = append(p.order, i)
			if path.Loss > τmax {
				τmax = path.Loss
			}
		}
	}
	// Best-gain-first ordering tightens the top-K floor early.
	for a := 1; a < len(p.order); a++ {
		for b := a; b > 0 && p.gain0[p.order[b]] > p.gain0[p.order[b-1]]; b-- {
			p.order[b], p.order[b-1] = p.order[b-1], p.order[b]
		}
	}
	p.geo[0] = 0
	for r := 1; r <= p.trans; r++ {
		p.geo[r] = 1 + τmax*p.geo[r-1]
	}
}

// price returns up to cgColumnsPerIter combinations with pricing gain
// above the floor.
func (p *pricer) price(floor float64) [][]int {
	p.found = p.found[:0]
	p.flo = floor
	p.dfs(0, 0, 1, 0)
	out := make([][]int, len(p.found))
	for i, f := range p.found {
		out[i] = f.combo
	}
	return out
}

func (p *pricer) record(k int, rc float64) {
	combo := make([]int, p.trans)
	copy(combo, p.digits[:k])
	if len(p.found) < cgColumnsPerIter {
		p.found = append(p.found, pricedCombo{combo, rc})
	} else {
		worstAt, worst := 0, p.found[0].rc
		for i, f := range p.found[1:] {
			if f.rc < worst {
				worstAt, worst = i+1, f.rc
			}
		}
		p.found[worstAt] = pricedCombo{combo, rc}
	}
	if len(p.found) == cgColumnsPerIter {
		p.flo = p.found[0].rc
		for _, f := range p.found[1:] {
			if f.rc < p.flo {
				p.flo = f.rc
			}
		}
	}
}

// dfs explores attempt prefixes. k attempts are committed (p.digits[:k])
// with next send time t, survival mass surv, and accumulated
// contribution acc; terminating here (blackhole-padding the rest) is
// itself a candidate column.
func (p *pricer) dfs(k int, t time.Duration, surv float64, acc float64) {
	if rc := acc - p.y0; rc > p.flo {
		p.record(k, rc)
	}
	if k == p.trans {
		return
	}
	// Optimistic remaining value: every future attempt gains at most the
	// best single-attempt gain, discounted by the largest survivable loss.
	best := 0.0
	if len(p.order) > 0 {
		best = p.gain0[p.order[0]]
	}
	if acc+surv*best*p.geo[p.trans-k]-p.y0 <= p.flo {
		return
	}
	for _, i := range p.order {
		arrival := t + p.delay[i]
		if arrival < 0 || arrival > p.δ {
			continue // late now means late forever: the subtree cannot gain
		}
		next := arrival + p.dmin
		if next < arrival { // overflow
			next = time.Duration(math.MaxInt64)
		}
		p.digits[k] = i
		p.dfs(k+1, next, surv*p.loss[i], acc+surv*p.gain0[i])
	}
}
