package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"dmc/internal/fault"
	"dmc/internal/lp"
)

// Warm-path injection points. Errors injected here are absorbed by
// resolve's cold fallback; panics unwind to the caller like a real
// numerical crash.
var (
	fpResolveWarm = fault.Register("core.resolve.warm")
	fpCGReprice   = fault.Register("core.cg.reprice")
)

// Pool-retention parameters of the warm CG path. Every re-solve can add
// freshly priced columns; on a long drift trajectory the pool would
// otherwise grow without bound and the restricted master would slow past
// the cold solve it is meant to beat. Above cgTrimTrigger columns the
// warm path trims the pool down to the cgTrimKeep columns with the best
// reduced cost under the previous duals (always keeping the basic ones).
// A threshold-based trim does not work here: the master is massively
// degenerate — hundreds of combinations price within 1e-3 of zero — so
// ranking, not thresholding, is what bounds the pool. Columns a later
// drift genuinely needs are re-discovered by the pricing oracle.
// cgMaxPoolColumns is the hard backstop past which the warm state is
// dropped entirely (defensive; trimming keeps pools far below it).
const (
	cgTrimTrigger    = 512
	cgTrimKeep       = 256
	cgMaxPoolColumns = 8192
)

// solveObjective names which optimization a persistent re-solve state
// was built for. Reusing columns or a basis across objectives would be
// wrong (different masters, different duals), so the state is keyed on
// it alongside the network shape.
type solveObjective uint8

const (
	objQuality solveObjective = iota
	objMinCost
	objRandom
)

// resolveState is the persistent warm-start state behind the Resolve
// family: everything reusable across solves of same-shaped networks
// whose λ/µ/loss/delay coefficients drift. It is invalidated whenever
// the network shape (path count, transmissions, cost-boundedness), the
// objective, or the planned dispatch changes.
type resolveState struct {
	valid bool

	// Shape key.
	nPaths    int
	trans     int
	hasCost   bool
	dispatch  Dispatch
	objective solveObjective

	// Dense dispatch: the full dense column table, rebuilt in place each
	// re-solve.
	dense *columns

	// CG dispatch: the persistent column pool and pricing oracle.
	pool   *colSet
	pricer *pricer
	// rnd holds the random-delay pair tables (objRandom, either
	// dispatch); its buffers are reused across re-solves, the values
	// re-tabulated each time.
	rnd *randomObjective

	// basis is the previous CG solve's optimal LP basis, captured over
	// the whole pool. Dense re-solves solve their master cold and leave
	// it nil.
	basis *lp.Basis
	// duals is the previous master's dual vector (CG dispatch), used to
	// score pooled columns for trimming.
	duals []float64
}

// reset invalidates the warm state.
func (rs *resolveState) reset() { *rs = resolveState{} }

// The storage policy of the solve engine lives in the two helpers
// below. A Resolve passes its warm state and gets its reused buffers; a
// one-shot solve passes a nil state and gets fresh ones, which its
// Solution then owns.

// pricerFor returns the branch-and-bound oracle bound to m.
func (rs *resolveState) pricerFor(m *model) *pricer {
	if rs == nil {
		return newPricer(m)
	}
	if rs.pricer == nil {
		rs.pricer = newPricer(m)
	} else {
		rs.pricer.bind(m)
	}
	return rs.pricer
}

// randomTables tabulates the Eqs. 27–30 pair tables for m.
func (rs *resolveState) randomTables(m *model, to *Timeouts) *randomObjective {
	if rs == nil {
		return newRandomObjective(m, to, nil)
	}
	rs.rnd = newRandomObjective(m, to, rs.rnd)
	return rs.rnd
}

// resolveReq carries one solve's objective and its parameters.
type resolveReq struct {
	obj        solveObjective
	minQuality float64   // objMinCost
	to         *Timeouts // objRandom
}

// matches reports whether the warm state can serve the network.
func (rs *resolveState) matches(s *Solver, n *Network, obj solveObjective) bool {
	return rs.valid &&
		rs.objective == obj &&
		rs.nPaths == len(n.Paths) &&
		rs.trans == n.transmissions() &&
		rs.hasCost == !math.IsInf(n.CostBound, 1) &&
		rs.dispatch == s.dispatchFor(n)
}

// Resolve solves the deterministic-delay quality maximization (Eq. 10)
// incrementally: when the network shape (path count, transmissions,
// cost-boundedness) matches the previous Resolve call on this Solver and
// only the coefficients — λ, µ, per-path loss, delay, bandwidth, cost —
// drifted, the solve reuses everything structural from last time instead
// of starting cold:
//
//   - the dense column tables are rebuilt in place (no re-allocation),
//     and the dense master is solved cold, so a dense re-solve returns
//     exactly what a cold SolveQuality of the same network returns, bit
//     for bit,
//   - the column-generation pool is retained and repriced, so the
//     branch-and-bound pricing oracle only searches for columns the
//     drift actually made attractive,
//   - for column generation, the previous optimal simplex basis is
//     re-installed, skipping LP Phase I whenever it is still feasible
//     for the perturbed coefficients (otherwise repair columns and a
//     short Phase I restore feasibility, with automatic cold fallback
//     when the basis no longer factorizes), and later CG iterations
//     append their columns to the sparse master in place,
//     re-optimizing from the factorized basis.
//
// The result is identical to a cold SolveQuality up to solver tolerance;
// Solution.Stats reports Warm, PhaseISkipped (column generation only),
// and the pool hit counts.
// On a shape change — or any failure of the warm path — Resolve falls
// back to a cold solve transparently and re-primes the state.
//
// The returned Solution shares column storage with the Solver's warm
// state: it is valid until the next Resolve call on the same Solver,
// which rebuilds that storage in place. Callers that need a solution to
// outlive the next re-solve must extract what they need first (or use
// SolveQuality, which never reuses result storage). Like every Solver
// method, Resolve is not safe for concurrent use.
func (s *Solver) Resolve(n *Network) (*Solution, error) {
	return s.resolve(n, resolveReq{obj: objQuality})
}

// ResolveMinCost is the incremental counterpart of SolveMinCost: §VI-A
// cost minimization under a quality floor, with the same warm-state
// reuse, result-invalidation contract, and cold fallback as Resolve.
// The floor itself may drift between calls — it is a constraint bound,
// not part of the network shape. A genuinely unattainable floor returns
// ErrInfeasible (the verdict is always certified cold) and re-primes
// the state on the next call.
func (s *Solver) ResolveMinCost(n *Network, minQuality float64) (*Solution, error) {
	if err := checkFloor(minQuality); err != nil {
		return nil, err
	}
	return s.resolve(n, resolveReq{obj: objMinCost, minQuality: minQuality})
}

// ResolveQualityRandom is the incremental counterpart of
// SolveQualityRandom: the §VI-B random-delay model under drifting
// delays, losses, and timeout tables, with the same warm-state reuse,
// result-invalidation contract, and cold fallback as Resolve. The pair
// tables are re-tabulated every call (they depend on the drifting
// delays); what warms is the column table or pool, the LP basis under
// column generation, and all storage.
func (s *Solver) ResolveQualityRandom(n *Network, to *Timeouts) (*Solution, error) {
	return s.resolve(n, resolveReq{obj: objRandom, to: to})
}

func (s *Solver) resolve(n *Network, req resolveReq) (*Solution, error) {
	if s.rs.matches(s, n, req.obj) {
		sol, err := s.resolveWarm(n, req)
		if err == nil {
			return sol, nil
		}
		// Either way the warm state is dropped: the next call re-primes.
		s.rs.reset()
		// An infeasible quality floor is a genuine, cold-certified
		// verdict — not a warm-state failure. Report it.
		if errors.Is(err, ErrInfeasible) {
			return nil, err
		}
		// The warm state proved unusable (diverged column generation,
		// stale pool past its cap, …): solve cold. A stale cache must
		// never fail a solve that a cold path can do.
	}
	return s.resolveCold(n, req)
}

// resolveWarm re-solves from the warm state; any error other than an
// infeasible quality floor sends resolve down the cold path.
func (s *Solver) resolveWarm(n *Network, req resolveReq) (*Solution, error) {
	if err := fpResolveWarm.Hit(); err != nil {
		return nil, err
	}
	return s.solve(n, req, &s.rs, true)
}

// resolveCold primes the warm state with a cold solve.
func (s *Solver) resolveCold(n *Network, req resolveReq) (*Solution, error) {
	s.rs.reset()
	sol, err := s.solve(n, req, &s.rs, false)
	if err != nil {
		s.rs.reset()
		return nil, err
	}
	s.rs.valid = true
	s.rs.nPaths = len(n.Paths)
	s.rs.trans = n.transmissions()
	s.rs.hasCost = !math.IsInf(n.CostBound, 1)
	s.rs.dispatch = sol.Stats.Dispatch
	s.rs.objective = req.obj
	return sol, nil
}

// solve is the one solve engine behind every entry point, for all three
// objectives: dense enumeration up to the dense threshold, column
// generation above it. rs is the warm state a Resolve primes (warm
// false) or re-solves from (warm true): the run reuses its buffers and
// leaves in it what the next re-solve needs. A one-shot solve passes a
// nil rs: every buffer is fresh and owned by the returned Solution, and
// no basis is captured. Only column generation keeps a basis: the dense
// dispatch solves its master cold on every call.
//
// The LP workspace — the master and the revised simplex, for either
// dispatch — is borrowed from its pool for the solve and returned when
// it ends. A solve that panics never returns it: the workspace may be
// mid-pivot, so it is dropped with the panic, the way serving
// quarantines a panicked session's warm state.
func (s *Solver) solve(n *Network, req resolveReq, rs *resolveState, warm bool) (*Solution, error) {
	s.work = lpPool.Get().(*lpWork)
	var sol *Solution
	var err error
	if s.dispatchFor(n) == DispatchDense {
		sol, err = s.solveDense(n, req, rs, warm)
	} else {
		sol, err = s.solveCG(n, req, rs, warm)
	}
	lpPool.Put(s.work)
	s.work = nil
	return sol, err
}

// newRequestModel builds the request's model — dense (the combination space
// enumerated) or sparse (addressed by packed keys, for column
// generation) — checking the random objective's preconditions (m = 2
// and a timeout table per path).
func newRequestModel(n *Network, req resolveReq, dense bool) (*model, error) {
	build := newSparseModel
	if dense {
		build = newModel
	}
	m, err := build(n)
	if err != nil {
		return nil, err
	}
	if req.obj == objRandom {
		if m.m != 2 {
			return nil, ErrRandomNeedsTwoTransmissions
		}
		if err := validateTimeouts(n, req.to); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// solveDense evaluates the request's dense column table — freshly, or
// in place over the warm state's table — and solves the master cold.
func (s *Solver) solveDense(n *Network, req resolveReq, rs *resolveState, warm bool) (*Solution, error) {
	m, err := newRequestModel(n, req, true)
	if err != nil {
		return nil, err
	}
	var ev columnEvaluator = m
	if req.obj == objRandom {
		ev = rs.randomTables(m, req.to)
	}
	var cols *columns
	if warm {
		cols = rs.dense
		if cols == nil || cols.len() != m.nVars {
			return nil, fmt.Errorf("core: warm state shape mismatch (cached table does not hold %d columns)", m.nVars)
		}
		m.computeColumnsInto(cols, s.scratch(m.m), ev)
	} else {
		cols = m.computeColumns(s.scratch(m.m), ev)
	}

	spec := masterSpec{costRow: true} // objQuality and objRandom share the Eq. 10 master
	if req.obj == objMinCost {
		spec = masterSpec{minCost: true, floor: req.minQuality}
	}
	lpSol, err := s.denseMaster(m, spec, cols)
	if err != nil {
		return nil, err
	}
	quality := lpSol.Objective
	if spec.minCost {
		quality = achievedQuality(lpSol.X, cols.delivery)
	}
	out := m.newSolution(spec, cols, lpSol.X, quality, nil)
	out.Stats = SolveStats{Dispatch: DispatchDense, Columns: cols.len(), Warm: warm}
	if rs != nil {
		rs.dense = cols
	}
	return out, nil
}

// denseMaster builds the master of the given spec over the dense
// columns in the LP workspace and solves it cold.
func (s *Solver) denseMaster(m *model, spec masterSpec, cols *columns) (*lp.Solution, error) {
	cm := &s.work.master
	cm.load(m, spec, cols)
	lpSol, err := s.work.rev.SolveWith(&cm.sp, lp.Options{AssumeValid: true})
	if err != nil {
		return nil, fmt.Errorf("core: solving LP: %w", err)
	}
	switch lpSol.Status {
	case lp.Optimal:
	case lp.Infeasible:
		if spec.minCost {
			return nil, fmt.Errorf("core: quality %v unattainable on this network: %w", spec.floor, ErrInfeasible)
		}
		fallthrough
	default:
		return nil, fmt.Errorf("core: LP unexpectedly %v", lpSol.Status)
	}
	return lpSol, nil
}

// solveCG runs the request's column generation: from the objective's
// seed columns, or — on a re-solve — over the warm pool, repriced in
// place (every pooled column a pricing-oracle call saved) and continued
// from the previous optimal basis, with newly priced columns appended
// to the sparse master in place.
func (s *Solver) solveCG(n *Network, req resolveReq, rs *resolveState, warm bool) (*Solution, error) {
	m, err := newRequestModel(n, req, false)
	if err != nil {
		return nil, err
	}
	var obj cgObjective
	switch req.obj {
	case objRandom:
		obj = rs.randomTables(m, req.to)
	case objMinCost:
		obj = &minCostObjective{m: m, pr: rs.pricerFor(m), minQuality: req.minQuality}
	default:
		obj = &qualityObjective{m: m, pr: rs.pricerFor(m), costRow: true}
	}

	var cs *colSet
	var basis *lp.Basis
	certTol, hits := cgPriceTol, 0
	if warm {
		cs = rs.pool
		if cs.cols.len() > cgMaxPoolColumns {
			return nil, fmt.Errorf("core: warm column pool exceeded %d columns", cgMaxPoolColumns)
		}
		if err := fpCGReprice.Hit(); err != nil {
			return nil, err
		}
		cs.reevaluate(m, obj)
		basis = rs.basis
		if cs.cols.len() > cgTrimTrigger {
			cs, basis = s.trimPool(m, basis, req)
		}
		certTol, hits = cgCertTolWarm, cs.cols.len()
	} else {
		cs = newColSet()
		obj.seed(cs, s.scratch(m.m))
	}

	var (
		sol   *Solution
		lpSol *lp.Solution
	)
	capture := rs != nil
	if mo, ok := obj.(*minCostObjective); ok {
		sol, lpSol, err = s.solveMinCostCG(m, cs, mo, basis, certTol, capture, warm)
	} else {
		var (
			iters     int
			firstWarm bool
		)
		lpSol, iters, firstWarm, err = s.runCG(m, cs, obj, basis, certTol, capture, nil)
		if err == nil {
			sol = m.newSolution(obj.master(), &cs.cols, lpSol.X, lpSol.Objective, cs.pos)
			sol.Stats = SolveStats{Dispatch: DispatchCG, Columns: cs.cols.len(), CGIterations: iters, PhaseISkipped: firstWarm}
		}
	}
	if err != nil {
		return nil, err
	}
	if rs == nil {
		return sol, nil // a one-shot has no pool to report on or keep
	}
	sol.Stats.Warm = warm
	sol.Stats.PoolHits = hits
	sol.Stats.PoolAdded = cs.cols.len() - hits
	rs.pool, rs.basis = cs, lpSol.Basis
	rs.duals = append(rs.duals[:0], lpSol.Dual...)
	return sol, nil
}

// trimPool compacts the warm column pool to the cgTrimKeep columns with
// the best pricing gain under the previous master's duals (evaluated on
// the already-repriced drifted columns), always keeping the basic ones.
// Returns the compact pool and the basis remapped onto it (nil when a
// basic column could not be preserved, which sends the master down the
// cold-LP path but keeps the pool win).
func (s *Solver) trimPool(m *model, basis *lp.Basis, req resolveReq) (*colSet, *lp.Basis) {
	cs := s.rs.pool
	duals := s.rs.duals
	n := cs.cols.len()
	if n <= cgTrimKeep || duals == nil || len(duals) < m.base {
		return cs, basis
	}
	score := s.poolScore(m, duals, req)
	if score == nil {
		return cs, basis
	}

	rc := make([]float64, n)
	for j := 0; j < n; j++ {
		rc[j] = score(j)
	}

	keep := make([]bool, n)
	kept := 0
	// The all-blackhole column (packed key 0) is what keeps the master
	// feasible under ANY bandwidth/cost drift — x′_blackhole = 1 uses no
	// constrained resource. Trimming it can leave the restricted master
	// genuinely infeasible after a hostile drift, killing the warm state.
	for j := 0; j < n; j++ {
		if cs.keys[j] == 0 {
			keep[j] = true
			kept++
			break
		}
	}
	if basis != nil {
		for _, c := range basis.StructuralCols() {
			if c >= 0 && c < n && !keep[c] {
				keep[c] = true
				kept++
			}
		}
	}
	order := make([]int, n)
	for j := range order {
		order[j] = j
	}
	sort.Slice(order, func(a, b int) bool { return rc[order[a]] > rc[order[b]] })
	for _, j := range order {
		if kept >= cgTrimKeep {
			break
		}
		if !keep[j] {
			keep[j] = true
			kept++
		}
	}

	out := newColSet()
	perm := make([]int, n)
	for j := 0; j < n; j++ {
		if !keep[j] {
			perm[j] = -1
			continue
		}
		perm[j] = out.cols.len()
		out.pos[cs.keys[j]] = out.cols.len()
		out.keys = append(out.keys, cs.keys[j])
		out.cols.appendFrom(&cs.cols, j, m.base)
	}
	if basis != nil {
		basis = basis.Remap(out.cols.len(), perm)
	}
	return out, basis
}

// poolScore returns the per-column pricing gain under the previous
// master's duals for the request's objective (higher = more worth
// keeping), or nil when the dual vector does not match the expected
// layout.
func (s *Solver) poolScore(m *model, duals []float64, req resolveReq) func(j int) float64 {
	cs := s.rs.pool
	λ := m.net.Rate
	base := m.base
	yBW := duals[:base-1]
	if req.obj == objMinCost {
		// Layout: bandwidth rows, quality floor, conservation.
		if len(duals) < base+1 {
			return nil
		}
		yQ, y0 := duals[base-1], duals[base]
		return func(j int) float64 {
			v := yQ*cs.cols.delivery[j] - λ*cs.cols.costs[j] + y0
			shares := cs.cols.shares[j*base : (j+1)*base]
			for i := 1; i < base; i++ {
				v += λ * yBW[i-1] * shares[i]
			}
			return v
		}
	}
	// Layout: bandwidth rows, the cost row when the budget is finite,
	// conservation.
	next := base - 1
	yCost := 0.0
	if !math.IsInf(m.net.CostBound, 1) {
		yCost = duals[next]
		next++
	}
	if len(duals) <= next {
		return nil
	}
	y0 := duals[next]
	return func(j int) float64 {
		v := cs.cols.delivery[j] - λ*yCost*cs.cols.costs[j] - y0
		shares := cs.cols.shares[j*base : (j+1)*base]
		for i := 1; i < base; i++ {
			v -= λ * yBW[i-1] * shares[i]
		}
		return v
	}
}
