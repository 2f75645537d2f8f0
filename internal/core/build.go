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
	cm.load(m, masterSpec{}, m.computeColumns(m))
	return cm.sp.Dense(), nil
}

// SolveQuality solves the deterministic-delay quality maximization
// (Eq. 10) and returns the optimal sending strategy. The problem is
// always feasible — the blackhole path absorbs any excess traffic — so a
// non-optimal status indicates an internal error.
//
// Dispatch scales with the combination count (n+1)^m: spaces up to
// 2,048 combinations are enumerated densely, anything larger — including
// counts that would overflow dense enumeration entirely — solves by
// column generation. Both reach the same LP optimum; Solution.Stats
// reports which core ran. This is the cold engine Solver.Resolve primes
// with, but the returned Solution owns all of its storage: no later
// solve touches it. The solve's workspace comes from a shared pool.
func SolveQuality(n *Network) (*Solution, error) {
	return solve(n, resolveReq{obj: objQuality}, nil, false)
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
// combination. Useful as a sanity bound in tests and reports. Each
// combination is evaluated as a solve's column is, so the bound is the
// largest DeliveryProbs entry of a dense SolveQuality, bit for bit.
func QualityUpperBound(n *Network) (float64, error) {
	m, err := newModel(n)
	if err != nil {
		return 0, err
	}
	var digits [MaxTransmissions]int
	var weights [MaxTransmissions]float64
	combo := digits[:m.m]
	best := 0.0
	for range m.nVars {
		if p, _ := m.evalColumn(combo, weights[:m.m]); p > best {
			best = p
		}
		m.nextCombo(combo)
	}
	return best, nil
}
