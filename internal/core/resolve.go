package core

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

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

// Pool-retention parameters of the CG path. Every solve can add freshly
// priced columns; on a long drift trajectory the pool would otherwise
// grow without bound and the restricted master would slow past the cold
// solve it is meant to beat. So every CG solve that keeps state — a
// cold prime or a warm re-solve — ends by stamping the columns basic in
// its final master with its number and, once the pool holds more than
// cgTrimTrigger columns, trimming it to cgTrimKeep, kept in order: the
// all-blackhole column, the final basis, the columns basic in any of
// the last cgRecentSolves solves, then the best reduced cost under the
// final master's duals. The bound is hard but for the basis, which is
// always kept whole: a master of more than cgTrimKeep rows (paths) can
// have a larger one.
//
// The recent columns are the ones a drifting session comes back to: its
// estimates wander around their true values, so earlier states recur,
// and duals that know only the latest state would rank their columns
// low and leave the oracle to price them back in. Reduced cost, not a
// threshold, fills the rest: the master is massively degenerate —
// hundreds of combinations price within 1e-3 of zero — so ranking is
// what bounds the pool. Columns a later drift genuinely needs are
// re-discovered by the pricing oracle.
const (
	cgTrimTrigger  = 512
	cgTrimKeep     = 256
	cgRecentSolves = 8
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

	// CG dispatch: the persistent column pool.
	pool *colSet

	// basis is the previous CG solve's optimal LP basis over the pool.
	// Dense re-solves solve their master cold and leave it nil.
	basis *lp.Basis
	// solves counts the CG solves that kept this state; each stamps the
	// columns basic in its final master with its count.
	solves int
}

// reset invalidates the warm state.
func (rs *resolveState) reset() { *rs = resolveState{} }

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
//     drift actually made attractive; each solve ends by bounding the
//     pool, keeping the columns its recent solves used (see the
//     retention parameters above),
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
// The returned Solution may share column storage with the Solver's warm
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
// nil rs: every buffer its Solution keeps is fresh and owned by it, and
// no basis is captured. Only column generation keeps a basis: the dense
// dispatch solves its master cold on every call.
//
// The workspace — the master, the revised simplex, the pricing oracle,
// the pair tables and the digit buffer — is borrowed from its pool for
// the solve and returned when it ends. A solve that panics never
// returns it: the workspace may be mid-pivot, so it is dropped with the
// panic, the way serving quarantines a panicked session's warm state.
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
		s.work.rnd.load(m, req.to)
		ev = &s.work.rnd
	}
	var cols *columns
	if warm {
		cols = rs.dense
		if cols == nil || cols.len() != m.nVars {
			return nil, fmt.Errorf("core: warm state shape mismatch (cached table does not hold %d columns)", m.nVars)
		}
		m.computeColumnsInto(cols, s.work.scratch(m.m), ev)
	} else {
		cols = m.computeColumns(s.work.scratch(m.m), ev)
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
	out.Stats = SolveStats{Dispatch: DispatchDense, Columns: cols.len(), LPPivots: lpSol.Iterations, Warm: warm}
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
// to the sparse master in place. A solve that keeps state ends by
// retaining its pool for the next re-solve (retainPool).
func (s *Solver) solveCG(n *Network, req resolveReq, rs *resolveState, warm bool) (*Solution, error) {
	m, err := newRequestModel(n, req, false)
	if err != nil {
		return nil, err
	}
	w := s.work
	var obj cgObjective
	switch req.obj {
	case objRandom:
		w.rnd.load(m, req.to)
		obj = &w.rnd
	case objMinCost:
		w.pr.bind(m)
		obj = &minCostObjective{m: m, pr: &w.pr, minQuality: req.minQuality}
	default:
		w.pr.bind(m)
		obj = &qualityObjective{m: m, pr: &w.pr, costRow: true}
	}

	var cs *colSet
	var basis *lp.Basis
	certTol, hits := cgPriceTol, 0
	if warm {
		if err := fpCGReprice.Hit(); err != nil {
			return nil, err
		}
		cs, basis = rs.pool, rs.basis
		cs.reevaluate(m, obj)
		certTol, hits = cgCertTolWarm, cs.cols.len()
	} else {
		cs = newColSet()
		obj.seed(cs, w.scratch(m.m))
	}

	st := SolveStats{Dispatch: DispatchCG}
	capture := rs != nil
	var lpSol *lp.Solution
	if mo, ok := obj.(*minCostObjective); ok {
		lpSol, err = s.solveMinCostCG(m, cs, mo, basis, certTol, capture, warm, &st)
	} else {
		lpSol, err = s.runCG(m, cs, obj, basis, certTol, capture, nil, &st)
	}
	if err != nil {
		return nil, err
	}
	spec := obj.master()
	quality := lpSol.Objective
	if spec.minCost {
		quality = achievedQuality(lpSol.X, cs.cols.delivery)
	}
	sol := m.newSolution(spec, &cs.cols, lpSol.X, quality, cs.pos)
	st.Columns = cs.cols.len()
	if rs != nil {
		st.Warm, st.PoolHits, st.PoolAdded = warm, hits, cs.cols.len()-hits
		s.retainPool(rs, m, spec, cs, lpSol)
	}
	sol.Stats = st
	return sol, nil
}

// retainPool leaves in rs the pool and basis the next re-solve starts
// from. It stamps the columns basic in the final master with this
// solve's count, and once the pool holds more than cgTrimTrigger
// columns, it trims it to cgTrimKeep in the order the retention
// parameters give: the all-blackhole column, the final basis, the
// recently basic columns, then the best reduced cost cⱼ − yᵀaⱼ (negated
// for a minimization) under the final master's duals, read off that
// master, which is still loaded in the workspace. Ties go to the lower
// index, so the trim is deterministic. The kept columns, in pool order,
// move into fresh, exactly sized tables — the solve's Solution indexes
// the old ones, so the new pool never aliases it — and the basis is
// remapped onto them.
func (s *Solver) retainPool(rs *resolveState, m *model, spec masterSpec, cs *colSet, final *lp.Solution) {
	rs.solves++
	n := cs.cols.len()
	cs.lastBasic = append(cs.lastBasic, make([]int, n-len(cs.lastBasic))...)
	basic := final.Basis.StructuralCols()
	for _, c := range basic {
		if c >= 0 {
			cs.lastBasic[c] = rs.solves
		}
	}
	if n <= cgTrimTrigger {
		rs.pool, rs.basis = cs, final.Basis
		return
	}

	// perm[j] is ≥ 0 for a kept column: first a mark, then its index in
	// the trimmed pool.
	w := s.work
	w.perm, w.rc, w.order = grow(w.perm, n), grow(w.rc, n), grow(w.order, n)
	perm, rc := w.perm, w.rc
	for j := range perm {
		perm[j] = -1
	}
	kept := 0
	keep := func(j int) {
		if perm[j] < 0 {
			perm[j] = 0
			kept++
		}
	}
	// The all-blackhole column (packed key 0) keeps the master feasible
	// under ANY bandwidth/cost drift — x′_blackhole = 1 uses no
	// constrained resource. Trimming it could leave the restricted
	// master genuinely infeasible after a hostile drift.
	if j, ok := cs.pos[0]; ok {
		keep(j)
	}
	for _, c := range basic {
		if c >= 0 {
			keep(c)
		}
	}
	sign := 1.0
	if spec.minCost {
		sign = -1
	}
	sp := &w.master.sp
	order := w.order[:0]
	for j := range n {
		if perm[j] < 0 {
			rc[j] = sign * sp.ReducedCost(j, final.Dual)
			order = append(order, j)
		}
	}
	recent := func(j int) bool {
		return cs.lastBasic[j] > 0 && rs.solves-cs.lastBasic[j] < cgRecentSolves
	}
	slices.SortFunc(order, func(a, b int) int {
		if ra, rb := recent(a), recent(b); ra != rb {
			if ra {
				return -1
			}
			return 1
		}
		if c := cmp.Compare(rc[b], rc[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	for _, j := range order {
		if kept >= cgTrimKeep {
			break
		}
		keep(j)
	}

	out := newColSetOf(kept, m.base, m.m)
	next := 0
	for j := range perm {
		if perm[j] < 0 {
			continue
		}
		perm[j] = next
		out.set(next, cs, j, m.base)
		next++
	}
	rs.pool, rs.basis = out, final.Basis.Remap(kept, perm)
}
