package core

import (
	"fmt"
	"math"
	"sync"

	"dmc/internal/lp"
)

// DefaultDenseThreshold is the combination count (n+1)^m up to which
// every objective solves by dense enumeration. Larger spaces — which
// dense enumeration could not even materialize past DenseLimit — solve
// by column generation. Dense still wins cold on the smallest shapes;
// past 2,048 combinations column generation won every warm measurement
// and every cold one but wide m = 2 spaces (README, "Scaling").
const DefaultDenseThreshold = 2048

// Solver is a reusable solve context: it owns an lp.Solver (tableau,
// basis, and pivot workspaces) plus the combination-enumeration scratch,
// so repeated solves of same-shaped networks reuse all of the solver's
// working memory and allocate only the returned Solution. A Solver is
// NOT safe for concurrent use; use one per goroutine or the SolveMany
// batch API, which shards work across a pool of them.
type Solver struct {
	lps    lp.Solver
	digits []int

	// rs is the persistent incremental re-solve state behind Resolve;
	// SolveQuality and the other one-shot entry points never touch it.
	rs resolveState

	// DenseThreshold overrides the combination count above which every
	// objective dispatches to column generation instead of dense
	// enumeration. Zero selects DefaultDenseThreshold; negative forces
	// column generation for every size; values above DenseLimit are
	// capped there (dense tables beyond it are never materialized).
	DenseThreshold int
}

// NewSolver returns a reusable Solver.
func NewSolver() *Solver { return &Solver{} }

// dispatchFor names the solve core the network's combination count
// selects under the dense threshold — the same rule for every
// objective. It only reads sizes, so it is safe on unvalidated input.
func (s *Solver) dispatchFor(n *Network) Dispatch {
	th := s.DenseThreshold
	if th == 0 {
		th = DefaultDenseThreshold
	}
	if th < 0 {
		return DispatchCG
	}
	if th > DenseLimit {
		th = DenseLimit
	}
	if _, ok := combinationCount(len(n.Paths)+1, n.transmissions(), th); !ok {
		return DispatchCG
	}
	return DispatchDense
}

// solverPool backs the package-level SolveQuality/SolveMinCost/
// SolveQualityRandom wrappers and the SolveMany workers, so one-shot
// callers still reuse solver memory across calls.
var solverPool = sync.Pool{New: func() any { return NewSolver() }}

func (s *Solver) scratch(m int) []int {
	if cap(s.digits) < m {
		s.digits = make([]int, m)
	}
	return s.digits[:m]
}

// SolveQuality solves the deterministic-delay quality maximization
// (Eq. 10) and returns the optimal sending strategy. The problem is
// always feasible — the blackhole path absorbs any excess traffic — so a
// non-optimal status indicates an internal error.
//
// Dispatch scales with the combination count (n+1)^m: spaces up to the
// dense threshold are enumerated densely, anything larger — including
// counts that would overflow dense enumeration entirely — solves by
// column generation. Both reach the same LP optimum; Solution.Stats
// reports which core ran. This is the cold engine Resolve primes with,
// but the returned Solution owns all of its storage: no later solve on
// the Solver touches it.
func (s *Solver) SolveQuality(n *Network) (*Solution, error) {
	return s.solve(n, resolveReq{obj: objQuality}, nil, false)
}

// SolveMinCost solves the §VI-A variant: minimize the expected total cost
// per second (objective Eq. 21) subject to the bandwidth rows, the
// conservation row, and a minimum communication quality (Eq. 22's
// constraint, implemented as p·x ≥ minQuality; the paper writes the
// negated form — see DESIGN.md erratum #3).
//
// Returns ErrInfeasible wrapped in an error when the requested quality
// is unattainable on the given network.
//
// Dispatch and storage ownership follow SolveQuality. Column generation
// runs in two stages over one pool: quality pricing grows it until the
// floor is provably reachable (or certifies ErrInfeasible at the true
// quality optimum), then cost-reduced pricing runs to the certified
// minimum.
func (s *Solver) SolveMinCost(n *Network, minQuality float64) (*Solution, error) {
	if err := checkFloor(minQuality); err != nil {
		return nil, err
	}
	return s.solve(n, resolveReq{obj: objMinCost, minQuality: minQuality}, nil, false)
}

// checkFloor rejects a min-cost quality floor outside [0,1].
func checkFloor(minQuality float64) error {
	if math.IsNaN(minQuality) || minQuality < 0 || minQuality > 1 {
		return fmt.Errorf("core: min quality %v outside [0,1]", minQuality)
	}
	return nil
}

// asmScratch is a reusable LP-assembly arena: the constraint headers,
// the flat coefficient backing, and the Problem value itself, rewritten
// in place by assembleProblemInto. Solve paths that document result
// invalidation (Solver.Resolve) route their assemblies through one of
// these so re-solves stop paying the dominant makeslice+clear cost of
// problem construction.
type asmScratch struct {
	prob    lp.Problem
	cons    []lp.Constraint
	backing []float64
}

// assembleProblemInto builds the common LP skeleton around the given
// objective: bandwidth rows (Eqs. 14–15/29), an optional extra row (the
// §VI-A quality floor), the cost row (Eq. 16/30) when costRow is set and
// the budget is finite, and the conservation row Bx′ = 1 (Eq. 18). All
// constraint coefficient rows are carved from one flat backing array;
// slices from cols are referenced, never copied, so the Problem shares
// storage with the Solution's own column tables. A non-nil scratch
// arena is rewritten in place (the Resolve paths); nil allocates fresh
// storage (one-shot solves, whose returned Solutions must stay
// immutable).
func (m *model) assembleProblemInto(sc *asmScratch, sense lp.Sense, obj []float64, cols *columns, extra *lp.Constraint, costRow bool) *lp.Problem {
	λ := m.net.Rate
	base, nVars := m.base, cols.len()
	hasCost := costRow && !math.IsInf(m.net.CostBound, 1)

	nRows := base - 1 + 1 // bandwidth rows + conservation
	if hasCost {
		nRows++
	}
	if extra != nil {
		nRows++
	}
	var cons []lp.Constraint
	var backing []float64
	if sc != nil {
		if cap(sc.cons) < nRows {
			sc.cons = make([]lp.Constraint, 0, nRows)
		}
		if cap(sc.backing) < nVars*nRows {
			sc.backing = make([]float64, nVars*nRows)
		}
		cons = sc.cons[:0]
		backing = sc.backing[:nVars*nRows]
	} else {
		cons = make([]lp.Constraint, 0, nRows)
		backing = make([]float64, nVars*nRows)
	}
	nextRow := func() []float64 {
		row := backing[:nVars:nVars]
		backing = backing[nVars:]
		return row
	}

	for i := 1; i < base; i++ {
		row := nextRow()
		for l := 0; l < nVars; l++ {
			row[l] = λ * cols.shares[l*base+i]
		}
		cons = append(cons, lp.Constraint{
			Name: fmt.Sprintf("bandwidth[%d]", i-1), Coeffs: row, Rel: lp.LE, RHS: m.paths[i].Bandwidth,
		})
	}
	if extra != nil {
		cons = append(cons, *extra)
	}
	if hasCost {
		row := nextRow()
		for l, c := range cols.costs {
			row[l] = λ * c
		}
		cons = append(cons, lp.Constraint{Name: "cost", Coeffs: row, Rel: lp.LE, RHS: m.net.CostBound})
	}
	ones := nextRow()
	for l := range ones {
		ones[l] = 1
	}
	cons = append(cons, lp.Constraint{Name: "conservation", Coeffs: ones, Rel: lp.EQ, RHS: 1})

	if sc != nil {
		sc.cons = cons
		sc.prob = lp.Problem{Sense: sense, Objective: obj, Constraints: cons}
		return &sc.prob
	}
	return &lp.Problem{Sense: sense, Objective: obj, Constraints: cons}
}

// newSolution assembles the public Solution from a solved x′ vector,
// sharing the column tables with the LP that produced it. colIndex maps
// a combination's packed key to its position in the column tables; nil
// means the columns cover the dense space in enumeration order.
func (m *model) newSolution(prob *lp.Problem, cols *columns, x []float64, quality float64, colIndex map[uint64]int) *Solution {
	return &Solution{
		Network:  m.net,
		X:        x,
		Quality:  clamp01(quality),
		m:        m,
		problem:  prob,
		combos:   cols.combos,
		delivery: cols.delivery,
		shares:   cols.shares,
		costs:    cols.costs,
		colIndex: colIndex,
	}
}
