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
// positive. Each round adds up to cgColumnsPerIter columns, the best
// one per first-attempt path (see pricer). Cold quality solves of
// random networks measured 4 rounds at 10×4, 12 at 40×4 and 40×5,
// 20–22 at 120×2 and 80×3, and 70–90 at 450×2 and 500×2, far below
// their row counts; the cap is a diverged-numerics backstop, not a
// tuning knob. Batches of 16 or 64 columns measured no faster.
//
// Both pricing floors are relative to the master's objective scale (see
// runCG): on quality masters they are the reduced-cost thresholds
// themselves, on min-cost masters the same fractions of λ·cost.
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
	// master names the restricted master's shape.
	master() masterSpec
	// columnEvaluator evaluates one combination's LP column.
	columnEvaluator
	// reprice loads the master's dual vector (in its row order) into the
	// pricing oracle.
	reprice(duals []float64)
	// price returns up to cgColumnsPerIter combinations whose pricing
	// gain exceeds floor (reduced cost above floor for maximizations,
	// below −floor for minimizations): the best of each first attempt's
	// subtree, the best such winners when more than cgColumnsPerIter
	// clear the floor, no two sharing a first attempt. The oracle is
	// exact: an empty result certifies no combination prices beyond
	// floor, and the best combination is always returned. The
	// combinations are headers into the oracle's storage, valid until
	// its next price call; colSet.add copies the ones it pools.
	price(floor float64) [][]int
	// seed primes an empty pool with the objective's starting columns
	// (always including the all-blackhole column, which keeps the
	// master feasible at every iteration). scratch is a digit buffer of
	// length ≥ the transmission count.
	seed(cs *colSet, scratch []int)
}

// colSet is the dynamically grown column pool of the restricted master,
// deduplicated by packed combination key. lastBasic[j] is the count of
// the last state-keeping solve whose final master had column j basic
// (0: none yet). Only the pool's retention reads and extends it
// (retainPool), so a one-shot solve never grows it, and columns past
// its end were priced after its last extension.
type colSet struct {
	cols      columns
	keys      []uint64
	lastBasic []int
	pos       map[uint64]int
}

// newColSet returns an empty pool of trans-attempt columns.
func newColSet(trans int) *colSet {
	return &colSet{cols: columns{trans: trans}, pos: make(map[uint64]int)}
}

// newColSetOf returns a pool of n columns of trans attempts, exactly
// sized, for set to fill.
func newColSetOf(n, trans int) *colSet {
	return &colSet{
		cols:      *newColumns(n, trans),
		keys:      make([]uint64, n),
		lastBasic: make([]int, n),
		pos:       make(map[uint64]int, n),
	}
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
	cs.cols.appendColumn(obj, combo)
	return true
}

// set copies column j of src, its digits and its stamp included, into
// slot l of a pool built by newColSetOf.
func (cs *colSet) set(l int, src *colSet, j int) {
	key := src.keys[j]
	cs.keys[l], cs.pos[key], cs.lastBasic[l] = key, l, src.lastBasic[j]
	cs.cols.delivery[l], cs.cols.costs[l] = src.cols.delivery[j], src.cols.costs[j]
	digits, weights := cs.cols.attempts(l)
	srcDigits, srcWeights := src.cols.attempts(j)
	copy(digits, srcDigits)
	copy(weights, srcWeights)
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

func (o *qualityObjective) master() masterSpec { return masterSpec{costRow: o.costRow} }

func (o *qualityObjective) evalColumn(combo []int, weights []float64) (float64, float64) {
	return o.m.evalColumn(combo, weights)
}

// reprice unpacks the master duals. Dual layout follows cgMaster.load's
// row order: one bandwidth row per real path, the cost row when
// present, the conservation row last.
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

// masterSpec is the shape of a restricted master: the §VI-A min-cost
// master (minimize λ·cost under the quality floor row, no cost row), or
// a quality master (maximize delivery, with the Eq. 16 budget row when
// costRow is set and the budget is finite). Both carry one bandwidth row
// per real path first and the conservation row last.
type masterSpec struct {
	floor   float64 // the §VI-A quality floor (minCost)
	minCost bool
	costRow bool
}

// budgetRow reports whether the master carries the Eq. 16 budget row.
func (spec masterSpec) budgetRow(m *model) bool {
	return !spec.minCost && spec.costRow && !math.IsInf(m.net.CostBound, 1)
}

// cgMaster is a solve's master — the dense dispatch's full master or
// column generation's restricted one — as the sparse LP it is built
// and grown in place in, with the scratch its columns' path shares are
// merged in.
type cgMaster struct {
	sp     lp.Sparse
	shares []pathShare
}

// load resets the master to the given columns and returns the largest
// objective magnitude among them. Rows come in one order on either
// dispatch — bandwidth rows, the quality floor or the budget row, and
// conservation last — so the duals unpack the same way everywhere.
func (cm *cgMaster) load(m *model, spec masterSpec, cols *columns) float64 {
	sense := lp.Maximize
	if spec.minCost {
		sense = lp.Minimize
	}
	sp := &cm.sp
	sp.Reset(sense)
	for i := 1; i < m.base; i++ {
		sp.AddRow(bandwidthName(i-1), lp.LE, m.paths[i].Bandwidth)
	}
	if spec.minCost {
		sp.AddRow("quality", lp.GE, spec.floor)
	} else if spec.budgetRow(m) {
		sp.AddRow("cost", lp.LE, m.net.CostBound)
	}
	sp.AddRow("conservation", lp.EQ, 1)
	return cm.add(m, spec, cols, 0)
}

// add appends columns from index from on to the master — each touches
// its paths' bandwidth rows (Eqs. 14–15/29), in increasing path order,
// the quality floor (§VI-A) or the cost row (Eq. 16/30), and the
// conservation row (Eq. 18) — and returns the largest objective
// magnitude among them.
func (cm *cgMaster) add(m *model, spec masterSpec, cols *columns, from int) float64 {
	λ := m.net.Rate
	base := m.base
	costRow := spec.budgetRow(m)
	sp := &cm.sp
	objMax := 0.0
	for l := from; l < cols.len(); l++ {
		obj := cols.delivery[l]
		if spec.minCost {
			obj = λ * cols.costs[l] // Eq. 21: (λ·cᵢ) + (λ·τᵢ·cⱼ), generalized
		}
		sp.AddColumn(obj, nil, nil)
		cm.shares = cols.pathShares(l, cm.shares[:0])
		for _, ps := range cm.shares {
			sp.AddEntry(ps.path-1, λ*ps.share)
		}
		next := base - 1
		switch {
		case spec.minCost:
			sp.AddEntry(next, cols.delivery[l])
			next++
		case costRow:
			sp.AddEntry(next, λ*cols.costs[l])
			next++
		}
		sp.AddEntry(next, 1)
		if a := math.Abs(obj); a > objMax {
			objMax = a
		}
	}
	return objMax
}

// runCG alternates restricted-master LP solves over the column set with
// exact pricing until no combination prices above certTol (which bounds
// the optimality gap), returning the final master LP solution — the LP
// workspace's master then holds the final master. Every master solve
// counts into st: one CG iteration and its simplex pivots each, and the
// first one sets PhaseISkipped.
//
// The master is built once, from the pool as it stands, and solved on
// the revised simplex — warm-started from basis when non-nil (the
// incremental re-solve path). Every later iteration appends only the
// freshly priced columns to it and re-optimizes from the current
// basis (lp.Revised.Append), which leaves the factorized basis inverse
// in place. Any append failure falls back to a full solve of that
// master (warm when a basis chain is available), so the incremental
// path never changes the result. capture asks for the final basis.
//
// certTol is relative to the master's objective scale: the pricing
// floor is certTol times the largest objective magnitude in the pool,
// at least 1. The LP's optimality tolerance is relative to the same
// scale, so the floor stays above the reduced costs the master leaves
// unresolved — a quality master's coefficients are probabilities and
// its floor is certTol itself, while a min-cost master's are costs per
// second, around 1e9 at the paper's rates, where an absolute 1e-9 is
// below float64 resolution.
//
// stop, when non-nil, is checked after every master solve and ends the
// loop early without certification — the min-cost feasibility stage
// uses it to grow the pool just until the quality floor is reachable.
//
// A master that comes back infeasible returns errMasterInfeasible
// (possible only for the min-cost objective's first master).
func (s *Solver) runCG(m *model, cs *colSet, obj cgObjective, basis *lp.Basis, certTol float64, capture bool, stop func(*lp.Solution) bool, st *SolveStats) (*lp.Solution, error) {
	chain := basis != nil
	spec := obj.master()
	cm, rev := &s.work.master, &s.work.rev
	scale := max(1, cm.load(m, spec, &cs.cols))
	sp := &cm.sp

	var lpSol *lp.Solution
	var err error
	iters := 0
	appended, refreshed := false, false
	for {
		iters++
		if iters > cgMaxIterations {
			return nil, fmt.Errorf("core: column generation did not converge within %d iterations", cgMaxIterations)
		}
		solved := false
		if appended {
			if sol, aerr := rev.Append(sp); aerr == nil {
				lpSol, solved = sol, true
			}
		}
		if !solved {
			opts := lp.Options{AssumeValid: true, CaptureBasis: capture || chain}
			if basis != nil {
				opts.WarmBasis = basis.Remap(sp.NumVars(), nil)
			}
			lpSol, err = rev.SolveWith(sp, opts)
			if err != nil {
				return nil, fmt.Errorf("core: solving restricted master: %w", err)
			}
		}
		st.CGIterations++
		st.LPPivots += lpSol.Iterations
		switch lpSol.Status {
		case lp.Optimal:
		case lp.Infeasible:
			return lpSol, errMasterInfeasible
		default:
			return nil, fmt.Errorf("core: restricted master unexpectedly %v", lpSol.Status)
		}
		if iters == 1 {
			st.PhaseISkipped = lpSol.PhaseISkipped
		}
		if chain {
			basis = lpSol.Basis
		}

		if stop != nil && stop(lpSol) {
			break
		}

		obj.reprice(lpSol.Dual)
		n0 := cs.cols.len()
		added, priced := 0, 0
		for _, cand := range obj.price(certTol * scale) {
			priced++
			if cs.add(m, obj, cand) {
				added++
			}
		}
		if added == 0 {
			// The oracle pricing POOLED columns above the floor means the
			// master's reduced costs disagree with the raw coefficients —
			// roundoff from a long pivot path. The gap is then real (those
			// columns should re-enter the basis), so rebuild the master
			// from the pool, solve it in full and re-price. A second stall
			// right after the refresh is the float solver's precision
			// limit; accept it.
			if priced > 0 && !refreshed {
				refreshed, appended = true, false
				scale = max(1, cm.load(m, spec, &cs.cols))
				continue
			}
			break // oracle certifies: no combination prices above certTol
		}
		refreshed = false
		scale = max(scale, cm.add(m, spec, &cs.cols, n0))
		appended = true
	}
	return lpSol, nil
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
// objectives: given per-path gains loaded from the master duals it finds,
// for each first attempt, the combination maximizing the pricing gain
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
// search expands exactly those.
//
// Bound. load keeps the positive-gain paths in order, fastest first,
// and tabulates, with gⱼ and τⱼ the gain and loss of order[j],
//
//	ub[0][q] = 0
//	ub[r][q] = max(0, max_{j<q} gⱼ + τⱼ·ub[r−1][q])
//
// for r = 0..m and q = 0..len(order). Send times only grow along a
// chain, so when only order[:q] can still arrive in time at a node,
// every later attempt of any chain below it also lies in order[:q]; by
// induction on r (ub is nondecreasing in both r and q, and an attempt
// outside order[:q] adds at most 0 and scales the survival mass by
// τ ≤ 1), r more attempts add at most surv·ub[r][q]. Over non-binding
// paths alone (gain 1 − τ) ub[r][q] = 1 − τ_min^r, which r in-time
// attempts on the least lossy of them attain.
//
// Partition. The combinations split by their first attempt into
// pricing subproblems. By the argument above only the in-time first
// paths of order can lead a maximizer, so price solves one subproblem
// per such path, plus the all-blackhole column, each for its single
// best column, and keeps the cgColumnsPerIter best winners. A subtree's
// search prunes against its best so far, which starts at the gain a
// winner must beat to be kept. A round's batch then spans many first
// paths, where the best 32 combinations overall spanned 2.8 on average
// in cold 40×4 quality solves, which cut those solves from about 27
// rounds to about 11. The oracle
// stays exact: the best column is some subtree's winner, so it is
// always returned, and an empty pass certifies that nothing prices
// above the floor. A winner already pooled hides its subtree's
// runner-up for that pass, as a full batch hides the next-best column;
// runCG's refresh handles a pass that adds nothing the same way.
//
// Traversal. search walks order[:q] — the in-time paths — fastest first.
// A child's send time grows with its path's delay, so its in-time count
// shrinks along the walk and a cursor that only moves down yields it in
// amortized O(1). A child is pruned before the call when its
// accumulated gain plus its survival mass times ub cannot beat the
// subtree's best so far.
//
// Storage. The winners live in a topK heap over fixed storage; price
// returns headers into it, valid until the next price call.
type pricer struct {
	m     *model
	δ     time.Duration
	dmin  time.Duration
	trans int

	order []pricedPath
	ub    []float64 // (trans+1) × (len(order)+1): ub[r][q] at r*(len(order)+1)+q
	y0    float64

	digits []int // the search's committed attempts
	// The current subtree's best column so far: its gain and its
	// attempts, win[:bestLen] (bestLen 0: none above the floor yet).
	best    float64
	win     []int
	bestLen int
	top     topK
}

// pricedPath is a real path with positive pricing gain, as the search
// reads it.
type pricedPath struct {
	i      int           // model path index
	gain   float64       // α(1−τᵢ) − wᵢ: an in-time attempt's gain per unit of survival mass
	loss   float64       // τᵢ
	step   time.Duration // dᵢ + d_min, saturating: the next attempt's send-time offset
	latest time.Duration // δ − dᵢ: the latest send time that still arrives in time
}

// bind points the pricer at m and sizes its buffers for m's shape, so
// one pricer serves solves of any shape in turn. Per-path coefficients
// are loaded by reprice each iteration.
func (p *pricer) bind(m *model) {
	p.m, p.δ, p.dmin, p.trans = m, m.net.Lifetime, m.dmin, m.m
	if cap(p.order) < m.base {
		p.order = make([]pricedPath, 0, m.base)
	}
	p.ub = grow(p.ub, (m.m+1)*m.base)
	if cap(p.digits) < m.m {
		p.digits, p.win = make([]int, m.m), make([]int, m.m)
	}
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

// load computes the per-path pricing gains α(1−τᵢ) − w(i) and the
// constant y0 subtracted from every combination's accumulated gain,
// keeps the positive-gain paths in order, fastest first, and rebuilds
// the ub table.
func (p *pricer) load(alpha float64, w func(int, *Path) float64, y0 float64) {
	p.y0 = y0
	p.order = p.order[:0]
	for i := 1; i < p.m.base; i++ {
		path := &p.m.paths[i]
		if g := alpha*(1-path.Loss) - w(i, path); g > 0 {
			step := path.Delay + p.dmin
			if step < path.Delay { // overflow
				step = time.Duration(math.MaxInt64)
			}
			p.order = append(p.order, pricedPath{i: i, gain: g, loss: path.Loss, step: step, latest: p.δ - path.Delay})
		}
	}
	// Stable insertion sort, fastest path (latest in-time send) first:
	// the in-time paths at any send time are then a prefix of order.
	for a := 1; a < len(p.order); a++ {
		for b := a; b > 0 && p.order[b].latest > p.order[b-1].latest; b-- {
			p.order[b], p.order[b-1] = p.order[b-1], p.order[b]
		}
	}
	w1 := len(p.order) + 1
	ub := p.ub[:(p.trans+1)*w1]
	clear(ub[:w1])
	for r := 1; r <= p.trans; r++ {
		prev, row := ub[(r-1)*w1:r*w1], ub[r*w1:(r+1)*w1]
		for q := range row {
			best := 0.0
			for _, c := range p.order[:q] {
				best = max(best, c.gain+c.loss*prev[q])
			}
			row[q] = best
		}
	}
}

// price returns up to cgColumnsPerIter combinations with pricing gain
// above the floor, each the best of its first attempt's subtree and no
// two with the same first attempt, as headers into the pricer's storage
// that stay valid until its next price call.
func (p *pricer) price(floor float64) [][]int {
	p.top.reset(p.trans, floor)
	if rc := -p.y0; rc > p.top.floor {
		p.top.push(rc, nil) // the all-blackhole column
	}
	q := p.inTime(0, len(p.order))
	w1 := len(p.order) + 1
	ub := p.ub[(p.trans-1)*w1 : p.trans*w1]
	for _, c := range p.order[:q] {
		next := c.step // sent at 0
		nq := p.inTime(next, q)
		if c.gain+c.loss*ub[nq]-p.y0 <= p.top.floor {
			continue // the heap is full of better winners, or nothing clears the floor
		}
		p.best, p.bestLen = p.top.floor, 0
		p.digits[0] = c.i
		p.search(1, next, nq, c.loss, c.gain)
		if p.bestLen > 0 {
			p.top.push(p.best, p.win[:p.bestLen])
		}
	}
	return p.top.combos()
}

// inTime returns how many of order[:q] still arrive by the deadline when
// sent at t ≥ 0: a prefix, since order is sorted by delay.
func (p *pricer) inTime(t time.Duration, q int) int {
	for q > 0 && t > p.order[q-1].latest {
		q--
	}
	return q
}

// search finds the subtree's best column below an attempt prefix. k
// attempts are committed (p.digits[:k]) with next send time t, in-time
// path count q, survival mass surv and accumulated contribution acc;
// terminating here (blackhole-padding the rest) is itself a candidate,
// recorded in p.win when it beats p.best. A node with no survival mass
// left has nothing to add: every extension is the same column.
func (p *pricer) search(k int, t time.Duration, q int, surv, acc float64) {
	if rc := acc - p.y0; rc > p.best {
		p.record(rc, k)
	}
	if k == p.trans || surv == 0 {
		return
	}
	r := p.trans - k - 1 // attempts left below a child
	if r == 0 {
		// The children are leaves: each is its own bound.
		for _, c := range p.order[:q] {
			if rc := acc + surv*c.gain - p.y0; rc > p.best {
				p.digits[k] = c.i
				p.record(rc, k+1)
			}
		}
		return
	}
	w1 := len(p.order) + 1
	ub := p.ub[r*w1 : (r+1)*w1]
	nq := q
	for _, c := range p.order[:q] {
		next := t + c.step
		if next < t { // overflow
			next = time.Duration(math.MaxInt64)
		}
		nq = p.inTime(next, nq)
		s, a := surv*c.loss, acc+surv*c.gain
		if a+s*ub[nq]-p.y0 <= p.best {
			continue
		}
		p.digits[k] = c.i
		p.search(k+1, next, nq, s, a)
	}
}

// record makes the committed prefix p.digits[:k], of gain rc, the
// subtree's best so far.
func (p *pricer) record(rc float64, k int) {
	p.best, p.bestLen = rc, k
	copy(p.win, p.digits[:k])
}

// topK keeps the cgColumnsPerIter highest-gain subtree winners of one
// pricing pass in a binary min-heap on gain over fixed storage, so
// recording a winner allocates nothing. floor is the gain a new winner
// must beat: the pass's pricing floor until the heap is full, then the
// worst kept gain (the heap root).
type topK struct {
	floor  float64
	width  int
	n      int
	heap   [cgColumnsPerIter]heapEntry
	digits []int // slot s's combination at digits[s*width:(s+1)*width]
	out    [cgColumnsPerIter][]int
}

type heapEntry struct {
	rc   float64
	slot int
}

// reset empties the heap for a pass over width-digit combinations.
func (h *topK) reset(width int, floor float64) {
	h.floor, h.width, h.n = floor, width, 0
	if n := cgColumnsPerIter * width; cap(h.digits) < n {
		h.digits = make([]int, n)
	} else {
		h.digits = h.digits[:n]
	}
}

// push records combo, blackhole-padded to width, with gain rc > floor —
// into a free slot, or over the worst kept candidate once the heap is
// full.
func (h *topK) push(rc float64, combo []int) {
	var slot int
	if h.n < cgColumnsPerIter {
		slot = h.n
		h.heap[h.n] = heapEntry{rc, slot}
		h.n++
		h.up(h.n - 1)
	} else {
		slot = h.heap[0].slot
		h.heap[0].rc = rc
		h.down()
	}
	d := h.digits[slot*h.width : (slot+1)*h.width]
	clear(d[copy(d, combo):])
	if h.n == cgColumnsPerIter {
		h.floor = h.heap[0].rc
	}
}

func (h *topK) up(j int) {
	for j > 0 {
		parent := (j - 1) / 2
		if h.heap[parent].rc <= h.heap[j].rc {
			return
		}
		h.heap[parent], h.heap[j] = h.heap[j], h.heap[parent]
		j = parent
	}
}

func (h *topK) down() {
	for j := 0; ; {
		c := 2*j + 1
		if c >= h.n {
			return
		}
		if c+1 < h.n && h.heap[c+1].rc < h.heap[c].rc {
			c++
		}
		if h.heap[j].rc <= h.heap[c].rc {
			return
		}
		h.heap[j], h.heap[c] = h.heap[c], h.heap[j]
		j = c
	}
}

// combos returns the kept combinations as headers into the heap's
// storage, valid until its next reset.
func (h *topK) combos() [][]int {
	for s := range h.n {
		h.out[s] = h.digits[s*h.width : (s+1)*h.width : (s+1)*h.width]
	}
	return h.out[:h.n]
}
