package core

import (
	"errors"
	"fmt"

	"dmc/internal/lp"
)

// minCostFeasSlack is the relative slack allowed between the certified
// maximum quality and the requested floor before declaring the floor
// unattainable: a floor within solver tolerance of the optimum is
// handed to the master's own Phase I rather than rejected outright,
// matching the dense path's feasibility verdict.
const minCostFeasSlack = 1e-9

// minCostObjective is the §VI-A master: minimize the expected total
// cost per second (Eq. 21) over the bandwidth rows, the quality floor
// p·x ≥ minQuality (Eq. 22's constraint), and the conservation row. No
// cost row: the formulation replaces the budget µ with the floor.
type minCostObjective struct {
	m          *model
	pr         *pricer
	minQuality float64
	obj        []float64 // λ·costₗ per column, rebuilt per assembly
	extra      lp.Constraint
}

func (o *minCostObjective) assembleInto(sc *asmScratch, cols *columns) *lp.Problem {
	n := cols.len()
	o.obj = grow(o.obj, n)
	λ := o.m.net.Rate
	for l, c := range cols.costs[:n] {
		o.obj[l] = λ * c // Eq. 21: (λ·cᵢ) + (λ·τᵢ·cⱼ), generalized
	}
	o.extra = lp.Constraint{Name: "quality", Coeffs: cols.delivery[:n:n], Rel: lp.GE, RHS: o.minQuality}
	return o.m.assembleProblemInto(sc, lp.Minimize, o.obj, cols, &o.extra, false)
}

func (o *minCostObjective) evalColumn(combo []int, share []float64) (float64, float64) {
	return o.m.evalColumn(combo, share)
}

// reprice unpacks the min-cost master duals: bandwidth rows first, then
// the quality floor, then the conservation row.
func (o *minCostObjective) reprice(duals []float64) {
	base := o.m.base
	o.pr.repriceMinCost(duals[:base-1], duals[base-1], duals[base])
}

func (o *minCostObjective) price(floor float64) [][]int { return o.pr.price(floor) }

func (o *minCostObjective) seed(cs *colSet, scratch []int) { o.m.seedColumns(cs, o, scratch) }

// grow resizes a float64 workspace, reusing capacity. Contents are
// unspecified; callers overwrite every entry they read.
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n, n+n/2)
	}
	return buf[:n]
}

// solveMinCostCG is the two-stage min-cost column-generation core. A
// feasibility stage grows the pool with quality-maximization pricing
// rounds just until the restricted master can reach the quality floor
// (or certifies, at the true quality optimum, that no sending strategy
// can — ErrInfeasible); then the min-cost stage prices columns by
// cost-reduced duals until the master cost is certified minimal. When
// skipFeasStage is set (a warm re-solve whose retained pool supported
// the floor last time), the feasibility stage is tried only if the
// min-cost master actually comes back infeasible under the drifted
// coefficients. Returns the solution and the final master LP solution
// (whose duals the resolve path stashes for pool trimming).
func (s *Solver) solveMinCostCG(sc *asmScratch, m *model, cs *colSet, mo *minCostObjective, basis *lp.Basis, certTol float64, skipFeasStage bool) (*Solution, *lp.Solution, error) {
	feasIters := 0
	if !skipFeasStage {
		var err error
		feasIters, err = s.growPoolToQualityFloor(sc, m, cs, mo, certTol)
		if err != nil {
			return nil, nil, err
		}
	}
	prob, lpSol, iters, firstWarm, err := s.runCG(sc, m, cs, mo, basis, certTol, nil)
	if errors.Is(err, errMasterInfeasible) && skipFeasStage {
		// The drift pushed the floor beyond the retained pool: grow it
		// and retry once (cold master — the basis belongs to the old,
		// now-infeasible restricted problem).
		feasIters, err = s.growPoolToQualityFloor(sc, m, cs, mo, certTol)
		if err != nil {
			return nil, nil, err
		}
		prob, lpSol, iters, firstWarm, err = s.runCG(sc, m, cs, mo, nil, certTol, nil)
	}
	if errors.Is(err, errMasterInfeasible) {
		// The pool provably reaches the floor's neighborhood, yet the
		// master's own Phase I rejects it: the floor sits right at the
		// feasibility boundary. Side with the authoritative Phase I.
		return nil, nil, fmt.Errorf("core: quality %v unattainable on this network: %w", mo.minQuality, ErrInfeasible)
	}
	if err != nil {
		return nil, nil, err
	}

	sol := m.newSolution(prob, &cs.cols, lpSol.X, achievedQuality(lpSol.X, cs.cols.delivery), cs.pos)
	sol.Stats = SolveStats{
		Dispatch: DispatchCG, Columns: cs.cols.len(), CGIterations: feasIters + iters,
		PhaseISkipped: firstWarm,
	}
	return sol, lpSol, nil
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

// growPoolToQualityFloor runs quality-maximization pricing rounds until
// the restricted master can reach the §VI-A quality floor, stopping the
// moment the master's optimal quality clears it (no certification
// needed — the pool is then provably sufficient). If the rounds instead
// certify the true quality optimum below the floor, no strategy over
// the full combination space can meet it: ErrInfeasible. Returns the
// master-solve count.
func (s *Solver) growPoolToQualityFloor(sc *asmScratch, m *model, cs *colSet, mo *minCostObjective, certTol float64) (int, error) {
	minQ := mo.minQuality
	qo := &qualityObjective{m: m, pr: mo.pr, costRow: false}
	stop := func(sol *lp.Solution) bool { return sol.Objective >= minQ }
	_, qSol, iters, _, err := s.runCG(sc, m, cs, qo, nil, certTol, stop)
	if err != nil {
		return iters, fmt.Errorf("core: min-cost feasibility stage: %w", err)
	}
	if qSol.Objective < minQ-minCostFeasSlack*(1+minQ) {
		return iters, fmt.Errorf("core: quality %v unattainable on this network (maximum %v): %w",
			minQ, clamp01(qSol.Objective), ErrInfeasible)
	}
	return iters, nil
}
