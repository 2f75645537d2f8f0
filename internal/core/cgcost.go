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
}

func (o *minCostObjective) master() masterSpec {
	return masterSpec{minCost: true, floor: o.minQuality}
}

func (o *minCostObjective) evalColumn(combo []int, weights []float64) (float64, float64) {
	return o.m.evalColumn(combo, weights)
}

// reprice unpacks the min-cost master duals: bandwidth rows first, then
// the quality floor, then the conservation row.
func (o *minCostObjective) reprice(duals []float64) {
	base := o.m.base
	o.pr.repriceMinCost(duals[:base-1], duals[base-1], duals[base])
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

// solveMinCostCG is the two-stage min-cost column-generation core. A
// feasibility stage grows the pool with quality-maximization pricing
// rounds just until the restricted master can reach the quality floor
// (or certifies, at the true quality optimum, that no sending strategy
// can — ErrInfeasible); then the min-cost stage prices columns by
// cost-reduced duals until the master cost is certified minimal. When
// skipFeasStage is set (a warm re-solve whose retained pool supported
// the floor last time), the feasibility stage is tried only if the
// min-cost master actually comes back infeasible under the drifted
// coefficients. Both stages build their master in the solve's LP
// workspace, which ends holding the min-cost master, and count every
// master they solve into st. Returns the final master LP solution.
func (s *Solver) solveMinCostCG(m *model, cs *colSet, mo *minCostObjective, basis *lp.Basis, certTol float64, capture, skipFeasStage bool, st *SolveStats) (*lp.Solution, error) {
	if !skipFeasStage {
		if err := s.growPoolToQualityFloor(m, cs, mo, certTol, st); err != nil {
			return nil, err
		}
	}
	lpSol, err := s.runCG(m, cs, mo, basis, certTol, capture, nil, st)
	if errors.Is(err, errMasterInfeasible) && skipFeasStage {
		// The drift pushed the floor beyond the retained pool: grow it
		// and retry once (cold master — the basis belongs to the old,
		// now-infeasible restricted problem).
		if err := s.growPoolToQualityFloor(m, cs, mo, certTol, st); err != nil {
			return nil, err
		}
		lpSol, err = s.runCG(m, cs, mo, nil, certTol, capture, nil, st)
	}
	if errors.Is(err, errMasterInfeasible) {
		// The pool provably reaches the floor's neighborhood, yet the
		// master's own Phase I rejects it: the floor sits right at the
		// feasibility boundary. Side with the authoritative Phase I.
		return nil, fmt.Errorf("core: quality %v unattainable on this network: %w", mo.minQuality, ErrInfeasible)
	}
	return lpSol, err
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
// the full combination space can meet it: ErrInfeasible.
func (s *Solver) growPoolToQualityFloor(m *model, cs *colSet, mo *minCostObjective, certTol float64, st *SolveStats) error {
	minQ := mo.minQuality
	// The workspace's quality objective is free during a min-cost solve.
	qo := &s.work.quality
	*qo = qualityObjective{m: m, pr: mo.pr}
	stop := func(sol *lp.Solution) bool { return sol.Objective >= minQ }
	qSol, err := s.runCG(m, cs, qo, nil, certTol, false, stop, st)
	if err != nil {
		return fmt.Errorf("core: min-cost feasibility stage: %w", err)
	}
	if qSol.Objective < minQ-minCostFeasSlack*(1+minQ) {
		return fmt.Errorf("core: quality %v unattainable on this network (maximum %v): %w",
			minQ, clamp01(qSol.Objective), ErrInfeasible)
	}
	return nil
}
