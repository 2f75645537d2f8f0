package core

import (
	"dmc/internal/lp"
)

// BuildLP constructs the standard-form linear program of Eq. 10 for the
// deterministic-delay model: maximize pᵀx′ subject to bandwidth rows
// (Eqs. 14–15), the cost row (Eq. 16), the conservation row Bx′ = 1
// (Eq. 18), and x′ ≥ 0. Exposed for inspection and for the solver-ablation
// benchmarks; most callers want SolveQuality.
func BuildLP(n *Network) (*lp.Problem, error) {
	m, err := newModel(n)
	if err != nil {
		return nil, err
	}
	var cm cgMaster
	cm.load(m, masterSpec{costRow: true}, m.computeColumns(make([]int, m.m), m))
	return cm.sp.Dense(), nil
}

// SolveQuality solves the deterministic-delay quality maximization
// (Eq. 10) on a zero Solver; its workspace comes from the shared pool.
// The problem is always feasible — the blackhole path absorbs any
// excess traffic — so a non-optimal status indicates an internal error.
func SolveQuality(n *Network) (*Solution, error) {
	var s Solver
	return s.SolveQuality(n)
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// QualityUpperBound returns the best achievable quality ignoring bandwidth
// and cost limits: the delivery probability of the best feasible single
// combination. Useful as a sanity bound in tests and reports.
func QualityUpperBound(n *Network) (float64, error) {
	m, err := newModel(n)
	if err != nil {
		return 0, err
	}
	best := 0.0
	for l := 0; l < m.nVars; l++ {
		if p := m.deliveryProb(m.combo(l)); p > best {
			best = p
		}
	}
	return best, nil
}
