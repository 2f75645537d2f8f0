package lp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

const tol = 1e-7

func almostEq(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func mustSolve(t *testing.T, p *Problem) *Solution {
	t.Helper()
	sol, err := Solve(p)
	if err != nil {
		t.Fatalf("Solve(%v): %v", p, err)
	}
	return sol
}

func requireOptimal(t *testing.T, p *Problem) *Solution {
	t.Helper()
	sol := mustSolve(t, p)
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal\nproblem:\n%v", sol.Status, p)
	}
	if v := Verify(p, sol.X, tol); len(v) != 0 {
		t.Fatalf("optimal solution infeasible: %v\nx = %v", v, sol.X)
	}
	return sol
}

func TestSolveBasicMax(t *testing.T) {
	// max 3x + 5y s.t. x ≤ 4, 2y ≤ 12, 3x+2y ≤ 18 — classic; opt 36 at (2,6).
	p := NewProblem(Maximize, []float64{3, 5})
	p.AddConstraint([]float64{1, 0}, LE, 4)
	p.AddConstraint([]float64{0, 2}, LE, 12)
	p.AddConstraint([]float64{3, 2}, LE, 18)
	sol := requireOptimal(t, p)
	if !almostEq(sol.Objective, 36, tol) {
		t.Errorf("objective = %v, want 36", sol.Objective)
	}
	if !almostEq(sol.X[0], 2, tol) || !almostEq(sol.X[1], 6, tol) {
		t.Errorf("x = %v, want [2 6]", sol.X)
	}
}

func TestSolveBasicMin(t *testing.T) {
	// min 2x + 3y s.t. x + y ≥ 10, x ≥ 2, y ≥ 3. Opt at (7,3): 23.
	p := NewProblem(Minimize, []float64{2, 3})
	p.AddConstraint([]float64{1, 1}, GE, 10)
	p.AddConstraint([]float64{1, 0}, GE, 2)
	p.AddConstraint([]float64{0, 1}, GE, 3)
	sol := requireOptimal(t, p)
	if !almostEq(sol.Objective, 23, tol) {
		t.Errorf("objective = %v, want 23", sol.Objective)
	}
}

func TestSolveEquality(t *testing.T) {
	// max x + 2y s.t. x + y = 1 → opt 2 at (0,1).
	p := NewProblem(Maximize, []float64{1, 2})
	p.AddConstraint([]float64{1, 1}, EQ, 1)
	sol := requireOptimal(t, p)
	if !almostEq(sol.Objective, 2, tol) {
		t.Errorf("objective = %v, want 2", sol.Objective)
	}
	if !almostEq(sol.X[1], 1, tol) {
		t.Errorf("x = %v, want [0 1]", sol.X)
	}
}

func TestSolveInfeasible(t *testing.T) {
	p := NewProblem(Maximize, []float64{1})
	p.AddConstraint([]float64{1}, GE, 5)
	p.AddConstraint([]float64{1}, LE, 3)
	sol := mustSolve(t, p)
	if sol.Status != Infeasible {
		t.Errorf("status = %v, want infeasible", sol.Status)
	}
}

func TestSolveInfeasibleEquality(t *testing.T) {
	// x + y = 5 with x,y ≥ 0 and x + y ≤ 3.
	p := NewProblem(Maximize, []float64{1, 1})
	p.AddConstraint([]float64{1, 1}, EQ, 5)
	p.AddConstraint([]float64{1, 1}, LE, 3)
	sol := mustSolve(t, p)
	if sol.Status != Infeasible {
		t.Errorf("status = %v, want infeasible", sol.Status)
	}
}

func TestSolveUnbounded(t *testing.T) {
	p := NewProblem(Maximize, []float64{1, 1})
	p.AddConstraint([]float64{1, -1}, LE, 1)
	sol := mustSolve(t, p)
	if sol.Status != Unbounded {
		t.Errorf("status = %v, want unbounded", sol.Status)
	}
}

func TestSolveUnboundedMin(t *testing.T) {
	// min -x is unbounded with only x ≥ 0.
	p := NewProblem(Minimize, []float64{-1})
	p.AddConstraint([]float64{0}, LE, 1) // vacuous numeric row
	sol := mustSolve(t, p)
	if sol.Status != Unbounded {
		t.Errorf("status = %v, want unbounded", sol.Status)
	}
	// min -x + y s.t. x - y ≥ 1: unbounded along x = y + 1, reached only
	// after Phase I clears the ≥ row's artificial.
	q := NewProblem(Minimize, []float64{-1, 1})
	q.AddConstraint([]float64{1, -1}, GE, 1)
	if sol := mustSolve(t, q); sol.Status != Unbounded {
		t.Errorf("≥ row: status = %v, want unbounded", sol.Status)
	}
}

func TestSolveNegativeRHS(t *testing.T) {
	// max x s.t. -x ≤ -2 (i.e. x ≥ 2), x ≤ 7.
	p := NewProblem(Maximize, []float64{1})
	p.AddConstraint([]float64{-1}, LE, -2)
	p.AddConstraint([]float64{1}, LE, 7)
	sol := requireOptimal(t, p)
	if !almostEq(sol.Objective, 7, tol) {
		t.Errorf("objective = %v, want 7", sol.Objective)
	}
}

func TestSolveNegativeRHSGE(t *testing.T) {
	// max -x s.t. -x ≥ -4 (x ≤ 4) and x ≥ 1 → opt -1 at x=1.
	p := NewProblem(Maximize, []float64{-1})
	p.AddConstraint([]float64{-1}, GE, -4)
	p.AddConstraint([]float64{1}, GE, 1)
	sol := requireOptimal(t, p)
	if !almostEq(sol.Objective, -1, tol) {
		t.Errorf("objective = %v, want -1", sol.Objective)
	}
}

func TestSolveVacuousInfinityRHS(t *testing.T) {
	// A ≤ +Inf row (blackhole bandwidth) must be ignored.
	p := NewProblem(Maximize, []float64{1, 1})
	p.AddConstraint([]float64{1, 0}, LE, math.Inf(1))
	p.AddConstraint([]float64{1, 1}, LE, 5)
	sol := requireOptimal(t, p)
	if !almostEq(sol.Objective, 5, tol) {
		t.Errorf("objective = %v, want 5", sol.Objective)
	}
	if len(sol.Dual) != 2 {
		t.Fatalf("len(Dual) = %d, want 2", len(sol.Dual))
	}
	if sol.Dual[0] != 0 {
		t.Errorf("dual of vacuous row = %v, want 0", sol.Dual[0])
	}
	// Next to a negated row (-x ≤ -1, i.e. x ≥ 1): max x + y over
	// 1 ≤ x, x + y ≤ 3 is 3, and the duals still price every kept row.
	q := NewProblem(Maximize, []float64{1, 1})
	q.AddConstraint([]float64{1, 0}, LE, math.Inf(1))
	q.AddConstraint([]float64{1, 1}, LE, 3)
	q.AddConstraint([]float64{-1, 0}, LE, -1)
	sol = requireOptimal(t, q)
	if !almostEq(sol.Objective, 3, tol) {
		t.Errorf("negated row: objective = %v, want 3", sol.Objective)
	}
	if sol.Dual[0] != 0 {
		t.Errorf("negated row: dual of vacuous row = %v, want 0", sol.Dual[0])
	}
	requireStrongDuality(t, q, sol)
}

func TestSolveDegenerate(t *testing.T) {
	// A classically degenerate LP (multiple bases for the same vertex).
	p := NewProblem(Maximize, []float64{2, 3})
	p.AddConstraint([]float64{1, 1}, LE, 4)
	p.AddConstraint([]float64{1, 2}, LE, 6)
	p.AddConstraint([]float64{2, 3}, LE, 10) // redundant through (2,2)
	sol := requireOptimal(t, p)
	if !almostEq(sol.Objective, 10, tol) {
		t.Errorf("objective = %v, want 10", sol.Objective)
	}
}

func TestSolveBealeCycling(t *testing.T) {
	// Beale's classic cycling example; must terminate via Bland's rule.
	p := NewProblem(Maximize, []float64{0.75, -150, 0.02, -6})
	p.AddConstraint([]float64{0.25, -60, -0.04, 9}, LE, 0)
	p.AddConstraint([]float64{0.5, -90, -0.02, 3}, LE, 0)
	p.AddConstraint([]float64{0, 0, 1, 0}, LE, 1)
	sol := requireOptimal(t, p)
	if !almostEq(sol.Objective, 0.05, 1e-6) {
		t.Errorf("objective = %v, want 0.05", sol.Objective)
	}
	// The example's other common scaling: optimum 5/4 at (1, 0, 1, 0)
	// with duals (0, 3/2, 5/4), exactly as the rational solver finds.
	q := NewProblem(Maximize, []float64{0.75, -20, 0.5, -6})
	q.AddConstraint([]float64{0.25, -8, -1, 9}, LE, 0)
	q.AddConstraint([]float64{0.5, -12, -0.5, 3}, LE, 0)
	q.AddConstraint([]float64{0, 0, 1, 0}, LE, 1)
	sol = requireOptimal(t, q)
	if !almostEq(sol.Objective, 1.25, tol) {
		t.Errorf("second scaling: objective = %v, want 1.25", sol.Objective)
	}
	for i, w := range []float64{0, 1.5, 1.25} {
		if !almostEq(sol.Dual[i], w, 1e-6) {
			t.Errorf("second scaling: Dual[%d] = %v, want %v", i, sol.Dual[i], w)
		}
	}
}

func TestSolveRedundantEqualities(t *testing.T) {
	// Duplicate equality rows leave an artificial basic at zero; the
	// solver must still succeed.
	p := NewProblem(Maximize, []float64{1, 1})
	p.AddConstraint([]float64{1, 1}, EQ, 1)
	p.AddConstraint([]float64{1, 1}, EQ, 1)
	p.AddConstraint([]float64{2, 2}, EQ, 2)
	sol := requireOptimal(t, p)
	if !almostEq(sol.Objective, 1, tol) {
		t.Errorf("objective = %v, want 1", sol.Objective)
	}
	// Minimizing with a binding ≤ row next to the redundant pair: min
	// x + 2y over x + y = 2, x ≤ 1.5 is 2.5 at (1.5, 0.5).
	q := NewProblem(Minimize, []float64{1, 2})
	q.AddConstraint([]float64{1, 1}, EQ, 2)
	q.AddConstraint([]float64{2, 2}, EQ, 4)
	q.AddConstraint([]float64{1, 0}, LE, 1.5)
	sol = requireOptimal(t, q)
	if !almostEq(sol.Objective, 2.5, tol) {
		t.Errorf("minimize: objective = %v, want 2.5", sol.Objective)
	}
	requireStrongDuality(t, q, sol)
}

func TestSolveZeroObjective(t *testing.T) {
	// Pure feasibility problem.
	p := NewProblem(Maximize, []float64{0, 0})
	p.AddConstraint([]float64{1, 1}, EQ, 1)
	sol := requireOptimal(t, p)
	if !almostEq(sol.Objective, 0, tol) {
		t.Errorf("objective = %v, want 0", sol.Objective)
	}
}

func TestSolveSingleVariableBounds(t *testing.T) {
	p := NewProblem(Minimize, []float64{5})
	p.AddConstraint([]float64{1}, GE, 3)
	p.AddConstraint([]float64{1}, LE, 9)
	sol := requireOptimal(t, p)
	if !almostEq(sol.X[0], 3, tol) {
		t.Errorf("x = %v, want [3]", sol.X)
	}
}

func TestDualsKnownLP(t *testing.T) {
	// max 3x+5y with slack duals known: y* = (0, 1.5, 1). Scaling the
	// first cost and the second bound by 1.3 moves the optimum to
	// (0.8, 7.8), 42.12, with y* = (0, 1.2, 1.3).
	for _, tc := range []struct {
		scale float64
		want  []float64
	}{{1, []float64{0, 1.5, 1}}, {1.3, []float64{0, 1.2, 1.3}}} {
		p := NewProblem(Maximize, []float64{3 * tc.scale, 5})
		p.AddConstraint([]float64{1, 0}, LE, 4)
		p.AddConstraint([]float64{0, 2}, LE, 12*tc.scale)
		p.AddConstraint([]float64{3, 2}, LE, 18)
		sol := requireOptimal(t, p)
		for i, w := range tc.want {
			if !almostEq(sol.Dual[i], w, 1e-6) {
				t.Errorf("scale %v: Dual[%d] = %v, want %v", tc.scale, i, sol.Dual[i], w)
			}
		}
		requireStrongDuality(t, p, sol)
	}
}

// requireStrongDuality checks b·y = objective over the kept (non-vacuous)
// rows.
func requireStrongDuality(t *testing.T, p *Problem, sol *Solution) {
	t.Helper()
	var by float64
	for i, c := range p.Constraints {
		if !math.IsInf(c.RHS, 0) {
			by += c.RHS * sol.Dual[i]
		}
	}
	if !almostEq(by, sol.Objective, 1e-6) {
		t.Errorf("b·y = %v, want %v (strong duality)", by, sol.Objective)
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		p    *Problem
	}{
		{"no vars", NewProblem(Maximize, nil)},
		{"bad sense", &Problem{Sense: 0, Objective: []float64{1}}},
		{"nan objective", NewProblem(Maximize, []float64{math.NaN()})},
		{"inf objective", NewProblem(Minimize, []float64{math.Inf(1)})},
		{"dim mismatch", func() *Problem {
			p := NewProblem(Maximize, []float64{1, 2})
			p.AddConstraint([]float64{1}, LE, 1)
			return p
		}()},
		{"nan rhs", func() *Problem {
			p := NewProblem(Maximize, []float64{1})
			p.AddConstraint([]float64{1}, LE, math.NaN())
			return p
		}()},
		{"bad relation", func() *Problem {
			p := NewProblem(Maximize, []float64{1})
			p.Constraints = append(p.Constraints, Constraint{Coeffs: []float64{1}, Rel: 0, RHS: 1})
			return p
		}()},
		{"neg inf LE rhs", func() *Problem {
			p := NewProblem(Maximize, []float64{1})
			p.AddConstraint([]float64{1}, LE, math.Inf(-1))
			return p
		}()},
		{"name count", &Problem{Sense: Maximize, Objective: []float64{1, 2}, VarNames: []string{"a"}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Solve(tc.p); err == nil {
				t.Errorf("Solve accepted invalid problem %v", tc.p)
			}
		})
	}
}

func TestVerifyReportsViolations(t *testing.T) {
	p := NewProblem(Maximize, []float64{1, 1})
	p.AddNamedConstraint("cap", []float64{1, 1}, LE, 1)
	p.AddConstraint([]float64{1, 0}, GE, 0.5)
	p.AddConstraint([]float64{0, 1}, EQ, 0.25)

	if v := Verify(p, []float64{0.75, 0.25}, 1e-9); len(v) != 0 {
		t.Errorf("feasible point flagged: %v", v)
	}
	// x = [2,-1]: cap holds (lhs 1 ≤ 1), GE holds (2 ≥ 0.5); violations are
	// the sign of x[1] and the equality row.
	if v := Verify(p, []float64{2, -1}, 1e-9); len(v) != 2 {
		t.Errorf("got %d violations (%v), want 2", len(v), v)
	}
	if v := Verify(p, []float64{1}, 1e-9); len(v) != 1 || !math.IsInf(v[0].Amount, 1) {
		t.Errorf("dimension mismatch not flagged: %v", v)
	}
}

// TestRandomFeasibleLPs generates LPs with a known feasible point and checks
// the simplex result is feasible and at least as good as that point.
func TestRandomFeasibleLPs(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(8)
		m := 1 + rng.Intn(8)
		// Known feasible point.
		x0 := make([]float64, n)
		for j := range x0 {
			x0[j] = rng.Float64() * 5
		}
		obj := make([]float64, n)
		for j := range obj {
			obj[j] = rng.NormFloat64()
		}
		p := NewProblem(Maximize, obj)
		for i := 0; i < m; i++ {
			coeffs := make([]float64, n)
			var lhs float64
			for j := range coeffs {
				coeffs[j] = rng.NormFloat64()
				lhs += coeffs[j] * x0[j]
			}
			// Choose RHS so x0 is feasible.
			switch rng.Intn(3) {
			case 0:
				p.AddConstraint(coeffs, LE, lhs+rng.Float64())
			case 1:
				p.AddConstraint(coeffs, GE, lhs-rng.Float64())
			case 2:
				p.AddConstraint(coeffs, EQ, lhs)
			}
		}
		// Add a box to guarantee boundedness.
		for j := 0; j < n; j++ {
			coeffs := make([]float64, n)
			coeffs[j] = 1
			p.AddConstraint(coeffs, LE, 100)
		}
		sol, err := Solve(p)
		if err != nil {
			t.Fatalf("trial %d: %v\n%v", trial, err, p)
		}
		if sol.Status != Optimal {
			t.Fatalf("trial %d: status %v for feasible bounded LP\n%v\nx0=%v", trial, sol.Status, p, x0)
		}
		if viol := Verify(p, sol.X, 1e-6); len(viol) != 0 {
			t.Fatalf("trial %d: infeasible optimum: %v", trial, viol)
		}
		if sol.Objective < p.Value(x0)-1e-6 {
			t.Fatalf("trial %d: objective %v worse than feasible point %v", trial, sol.Objective, p.Value(x0))
		}
	}
}

// TestQuickTransportLP uses testing/quick to generate random bounded
// transportation-style LPs (simplex-friendly structure mirroring the
// paper's: one equality plus capacity rows) and checks optimality basics.
func TestQuickTransportLP(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		obj := make([]float64, n)
		for j := range obj {
			obj[j] = rng.Float64() // delivery probability in [0,1)
		}
		p := NewProblem(Maximize, obj)
		ones := make([]float64, n)
		for j := range ones {
			ones[j] = 1
		}
		p.AddConstraint(ones, EQ, 1)
		for i := 0; i < n/2; i++ {
			row := make([]float64, n)
			for j := range row {
				row[j] = rng.Float64() * 2
			}
			p.AddConstraint(row, LE, 0.5+rng.Float64())
		}
		sol, err := Solve(p)
		if err != nil {
			return false
		}
		if sol.Status == Unbounded {
			return false // impossible: simplex over a subset of the unit simplex
		}
		if sol.Status == Infeasible {
			// Possible if capacity rows exclude the whole simplex; accept.
			return true
		}
		if !Feasible(p, sol.X, 1e-6) {
			return false
		}
		// Objective within [min obj, max obj] since x sums to 1.
		lo, hi := obj[0], obj[0]
		for _, c := range obj {
			lo = math.Min(lo, c)
			hi = math.Max(hi, c)
		}
		return sol.Objective >= lo-1e-6 && sol.Objective <= hi+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickDualityGap checks strong duality b·y = c·x on random bounded
// feasible max/≤ LPs.
func TestQuickDualityGap(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		m := 1 + rng.Intn(6)
		obj := make([]float64, n)
		for j := range obj {
			obj[j] = rng.Float64()
		}
		p := NewProblem(Maximize, obj)
		for i := 0; i < m; i++ {
			row := make([]float64, n)
			for j := range row {
				row[j] = rng.Float64()
			}
			p.AddConstraint(row, LE, 1+rng.Float64())
		}
		// Box to bound (rows above may have near-zero coefficients).
		for j := 0; j < n; j++ {
			row := make([]float64, n)
			row[j] = 1
			p.AddConstraint(row, LE, 50)
		}
		sol, err := Solve(p)
		if err != nil || sol.Status != Optimal {
			return false
		}
		var by float64
		for i, c := range p.Constraints {
			if sol.Dual[i] < -1e-7 {
				return false // max/≤ duals must be nonnegative
			}
			by += c.RHS * sol.Dual[i]
		}
		return almostEq(by, sol.Objective, 1e-5*(1+math.Abs(by)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestLargeAspectRatio(t *testing.T) {
	// Many variables, few rows — the shape of the paper's LPs (n^m vars,
	// n+2 rows). 1331 variables, 12 rows.
	rng := rand.New(rand.NewSource(7))
	n := 1331
	obj := make([]float64, n)
	for j := range obj {
		obj[j] = rng.Float64()
	}
	p := NewProblem(Maximize, obj)
	ones := make([]float64, n)
	for j := range ones {
		ones[j] = 1
	}
	p.AddConstraint(ones, EQ, 1)
	for i := 0; i < 11; i++ {
		row := make([]float64, n)
		for j := range row {
			row[j] = rng.Float64()
		}
		p.AddConstraint(row, LE, 0.8)
	}
	sol := requireOptimal(t, p)
	if sol.Objective <= 0 || sol.Objective > 1 {
		t.Errorf("objective = %v, want in (0,1]", sol.Objective)
	}
}

// TestMixedScaleInfeasibility is a regression test: a unit-scale
// infeasible row must be detected even next to rows with 1e8-scale
// coefficients (bandwidth in bits/s). Without row equilibration the
// phase-1 tolerance was swamped by the large rows.
func TestMixedScaleInfeasibility(t *testing.T) {
	p := NewProblem(Minimize, []float64{1, 1})
	p.AddConstraint([]float64{8e7, 9e7}, LE, 1e8) // bandwidth-scale row
	p.AddConstraint([]float64{1, 1}, EQ, 1)       // conservation
	p.AddConstraint([]float64{0.999, 0.999}, GE, 1)
	sol := mustSolve(t, p)
	if sol.Status != Infeasible {
		t.Errorf("status = %v, want infeasible (max attainable 0.999 < 1)", sol.Status)
	}
	// The boundary case must stay feasible.
	p2 := NewProblem(Minimize, []float64{1, 1})
	p2.AddConstraint([]float64{8e7, 9e7}, LE, 1e8)
	p2.AddConstraint([]float64{1, 1}, EQ, 1)
	p2.AddConstraint([]float64{0.999, 0.999}, GE, 0.999)
	if sol2 := mustSolve(t, p2); sol2.Status != Optimal {
		t.Errorf("boundary case status = %v, want optimal", sol2.Status)
	}
}

func TestOptionsIterationLimit(t *testing.T) {
	p := NewProblem(Maximize, []float64{3, 5})
	p.AddConstraint([]float64{1, 0}, LE, 4)
	p.AddConstraint([]float64{0, 2}, LE, 12)
	p.AddConstraint([]float64{3, 2}, LE, 18)
	s := NewRevised()
	s.load(new(Sparse).setProblem(p), Options{})
	if want := 200 * (3 + 2 + 1); s.maxIter != want {
		t.Errorf("iteration cap %d, want 200·(rows+cols+1) = %d", s.maxIter, want)
	}
	s.maxIter = 1
	if _, err := s.run(coldStart); err == nil {
		t.Error("want iteration-limit error with a cap of 1")
	}
}

func TestStatusStrings(t *testing.T) {
	if Optimal.String() != "optimal" || Infeasible.String() != "infeasible" || Unbounded.String() != "unbounded" {
		t.Error("status strings wrong")
	}
	if Status(99).String() == "" || Sense(9).String() == "" || Relation(9).String() == "" {
		t.Error("unknown enum strings empty")
	}
	if Maximize.String() != "maximize" || Minimize.String() != "minimize" {
		t.Error("sense strings wrong")
	}
	if LE.String() != "<=" || EQ.String() != "=" || GE.String() != ">=" {
		t.Error("relation strings wrong")
	}
}

func TestProblemString(t *testing.T) {
	p := NewProblem(Maximize, []float64{1})
	p.AddNamedConstraint("cap", []float64{1}, LE, 2)
	s := p.String()
	if s == "" || len(s) < 10 {
		t.Errorf("String() = %q", s)
	}
}
