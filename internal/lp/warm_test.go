package lp

import (
	"math"
	"math/rand"
	"testing"
)

// warmProblem is a small LP whose optimal basis stays optimal under
// modest coefficient drift.
func warmProblem(scale float64) *Problem {
	p := NewProblem(Maximize, []float64{3 * scale, 5})
	p.AddConstraint([]float64{1, 0}, LE, 4)
	p.AddConstraint([]float64{0, 2}, LE, 12*scale)
	p.AddConstraint([]float64{3, 2}, LE, 18)
	return p
}

func TestWarmStartSkipsPhase1(t *testing.T) {
	s := NewRevised()
	cold, err := s.SolveWith(new(Sparse).setProblem(warmProblem(1)), Options{CaptureBasis: true})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Basis == nil {
		t.Fatal("optimal solution carries no basis")
	}
	if cold.WarmStarted {
		t.Fatal("cold solve reported warm start")
	}

	perturbed := warmProblem(1.05)
	warm, err := s.SolveWith(new(Sparse).setProblem(perturbed), Options{WarmBasis: cold.Basis})
	if err != nil {
		t.Fatal(err)
	}
	if !warm.WarmStarted {
		t.Fatal("compatible basis was not reused")
	}
	ref, err := NewSolver().Solve(perturbed)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(warm.Objective, ref.Objective, tol) {
		t.Fatalf("warm objective %v != cold %v", warm.Objective, ref.Objective)
	}
	if v := Verify(perturbed, warm.X, tol); len(v) != 0 {
		t.Fatalf("warm solution infeasible: %v", v)
	}
	if warm.Iterations > ref.Iterations+cold.Basis.m {
		t.Errorf("warm solve used %d pivots, cold %d: warm start saved nothing",
			warm.Iterations, ref.Iterations)
	}
}

func TestWarmStartIncompatibleBasisSolvesCold(t *testing.T) {
	cold, err := NewRevised().SolveWith(new(Sparse).setProblem(warmProblem(1)), Options{CaptureBasis: true})
	if err != nil {
		t.Fatal(err)
	}
	// Different row structure: extra constraint.
	p := warmProblem(1)
	p.AddConstraint([]float64{1, 1}, LE, 100)
	sol, err := NewRevised().SolveWith(new(Sparse).setProblem(p), Options{WarmBasis: cold.Basis})
	if err != nil {
		t.Fatal(err)
	}
	if sol.WarmStarted {
		t.Fatal("incompatible basis reported as warm start")
	}
	if sol.Status != Optimal || !almostEq(sol.Objective, 36, tol) {
		t.Fatalf("cold fallback wrong: %v obj %v", sol.Status, sol.Objective)
	}
}

func TestWarmStartInfeasibleBasisFallsBack(t *testing.T) {
	// Equality-constrained LP: max x+y s.t. x+y = 10, x ≤ 8.
	build := func(rhs float64) *Problem {
		p := NewProblem(Maximize, []float64{1, 1})
		p.AddConstraint([]float64{1, 1}, EQ, rhs)
		p.AddConstraint([]float64{1, 0}, LE, 8)
		return p
	}
	cold, err := NewRevised().SolveWith(new(Sparse).setProblem(build(10)), Options{CaptureBasis: true})
	if err != nil {
		t.Fatal(err)
	}
	// With the basis of rhs=10 (x and slack basic, say), shrinking the
	// equality to 3 keeps it factorizable; growing the LE bound past the
	// equality flips which rows bind. Either way the result must match a
	// cold solve exactly, warm-started or not.
	for _, rhs := range []float64{3, 10, 25} {
		p := build(rhs)
		warm, err := NewRevised().SolveWith(new(Sparse).setProblem(p), Options{WarmBasis: cold.Basis})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := Solve(build(rhs))
		if err != nil {
			t.Fatal(err)
		}
		if warm.Status != ref.Status || !almostEq(warm.Objective, ref.Objective, tol) {
			t.Fatalf("rhs=%v: warm %v obj %v, cold %v obj %v",
				rhs, warm.Status, warm.Objective, ref.Status, ref.Objective)
		}
	}
}

func TestWarmStartRejectsNegativeRHSBasis(t *testing.T) {
	// A basis that is primal infeasible for the perturbed RHS must be
	// detected and the solve must fall back to the cold path, not return
	// a negative "solution".
	p := NewProblem(Maximize, []float64{1})
	p.AddConstraint([]float64{1}, LE, 5)
	p.AddConstraint([]float64{1}, GE, 1)
	cold, err := NewRevised().SolveWith(new(Sparse).setProblem(p), Options{CaptureBasis: true})
	if err != nil {
		t.Fatal(err)
	}
	q := NewProblem(Maximize, []float64{1})
	q.AddConstraint([]float64{1}, LE, 5)
	q.AddConstraint([]float64{1}, GE, 6) // infeasible overall
	sol, err := NewRevised().SolveWith(new(Sparse).setProblem(q), Options{WarmBasis: cold.Basis})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Fatalf("status %v, want infeasible", sol.Status)
	}
}

func TestBasisRemapAppendedColumns(t *testing.T) {
	p := warmProblem(1)
	cold, err := NewRevised().SolveWith(new(Sparse).setProblem(p), Options{CaptureBasis: true})
	if err != nil {
		t.Fatal(err)
	}
	// Append a (useless) third column to the same rows.
	q := NewProblem(Maximize, []float64{3, 5, 0.1})
	q.AddConstraint([]float64{1, 0, 1}, LE, 4)
	q.AddConstraint([]float64{0, 2, 1}, LE, 12)
	q.AddConstraint([]float64{3, 2, 5}, LE, 18)
	remapped := cold.Basis.Remap(3, nil)
	if remapped == nil {
		t.Fatal("identity remap onto a superset failed")
	}
	warm, err := NewRevised().SolveWith(new(Sparse).setProblem(q), Options{WarmBasis: remapped})
	if err != nil {
		t.Fatal(err)
	}
	if !warm.WarmStarted {
		t.Fatal("remapped basis was not reused")
	}
	ref, err := Solve(q)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(warm.Objective, ref.Objective, tol) {
		t.Fatalf("warm objective %v != cold %v", warm.Objective, ref.Objective)
	}
}

func TestBasisRemapDroppedColumn(t *testing.T) {
	p := warmProblem(1)
	cold, err := NewRevised().SolveWith(new(Sparse).setProblem(p), Options{CaptureBasis: true})
	if err != nil {
		t.Fatal(err)
	}
	structural := cold.Basis.StructuralCols()
	var basic int = -1
	for _, c := range structural {
		if c >= 0 {
			basic = c
			break
		}
	}
	if basic < 0 {
		t.Fatal("no structural column basic at the optimum")
	}
	perm := []int{0, 1}
	perm[basic] = -1 // drop a basic column: remap must refuse
	if got := cold.Basis.Remap(2, perm); got != nil {
		t.Fatal("remap with a dropped basic column did not return nil")
	}
}

// TestWarmStartRandomDifferential perturbs random feasible LPs and
// checks Revised warm-started solves agree with cold solves everywhere.
func TestWarmStartRandomDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	warmUsed := 0
	solver := NewRevised()
	for trial := 0; trial < 200; trial++ {
		nVars := 2 + rng.Intn(5)
		nCons := 1 + rng.Intn(4)
		base := NewProblem(Maximize, randVec(rng, nVars, 1, 10))
		for c := 0; c < nCons; c++ {
			base.AddConstraint(randVec(rng, nVars, 0, 5), LE, 5+rng.Float64()*20)
		}
		cold, err := solver.SolveWith(new(Sparse).setProblem(base), Options{CaptureBasis: true})
		if err != nil || cold.Status != Optimal {
			continue
		}
		// Drift every coefficient by up to ±10%.
		drift := func(v float64) float64 { return v * (1 + (rng.Float64()-0.5)*0.2) }
		pert := NewProblem(base.Sense, base.Objective)
		for j := range pert.Objective {
			pert.Objective[j] = drift(pert.Objective[j])
		}
		for _, con := range base.Constraints {
			coeffs := make([]float64, len(con.Coeffs))
			for j, a := range con.Coeffs {
				coeffs[j] = drift(a)
			}
			pert.AddConstraint(coeffs, con.Rel, drift(con.RHS))
		}
		warm, err := solver.SolveWith(new(Sparse).setProblem(pert), Options{WarmBasis: cold.Basis})
		if err != nil {
			t.Fatalf("trial %d: warm solve: %v", trial, err)
		}
		ref, err := NewSolver().Solve(pert)
		if err != nil {
			t.Fatalf("trial %d: cold solve: %v", trial, err)
		}
		if warm.Status != ref.Status {
			t.Fatalf("trial %d: warm %v vs cold %v", trial, warm.Status, ref.Status)
		}
		if warm.Status == Optimal {
			scale := 1 + math.Abs(ref.Objective)
			if math.Abs(warm.Objective-ref.Objective) > 1e-6*scale {
				t.Fatalf("trial %d: warm objective %v != cold %v", trial, warm.Objective, ref.Objective)
			}
			if v := Verify(pert, warm.X, 1e-6); len(v) != 0 {
				t.Fatalf("trial %d: warm solution infeasible: %v", trial, v)
			}
		}
		if warm.WarmStarted {
			warmUsed++
		}
	}
	if warmUsed == 0 {
		t.Fatal("no trial ever warm-started; the warm path is dead")
	}
}

func randVec(rng *rand.Rand, n int, lo, hi float64) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = lo + rng.Float64()*(hi-lo)
	}
	return v
}

// TestWarmRepairPreservesDuals pins the repaired-basis dual convention:
// a Revised warm solve whose basis needed repair (repair columns) must
// return the same constraint multipliers as a cold solve — the repair
// column's negation must not leak into Solution.Dual.
func TestWarmRepairPreservesDuals(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	solver := NewRevised()
	checked := 0
	for trial := 0; trial < 300 && checked < 50; trial++ {
		nVars := 2 + rng.Intn(4)
		base := NewProblem(Maximize, randVec(rng, nVars, 1, 10))
		for c := 0; c < 1+rng.Intn(3); c++ {
			base.AddConstraint(randVec(rng, nVars, 0, 5), LE, 5+rng.Float64()*20)
		}
		base.AddConstraint(randVec(rng, nVars, 0.5, 2), EQ, 3+rng.Float64()*5)
		cold, err := solver.SolveWith(new(Sparse).setProblem(base), Options{CaptureBasis: true})
		if err != nil || cold.Status != Optimal {
			continue
		}
		// Violent RHS shrink: the old basis goes primal infeasible and
		// the repair path engages.
		pert := NewProblem(base.Sense, base.Objective)
		for _, con := range base.Constraints {
			pert.AddConstraint(con.Coeffs, con.Rel, con.RHS*(0.2+rng.Float64()*0.3))
		}
		warm, err := solver.SolveWith(new(Sparse).setProblem(pert), Options{WarmBasis: cold.Basis})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		ref, err := NewSolver().Solve(pert)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if warm.Status != Optimal || ref.Status != Optimal {
			continue
		}
		checked++
		for i := range ref.Dual {
			if math.Abs(warm.Dual[i]-ref.Dual[i]) > 1e-6*(1+math.Abs(ref.Dual[i])) {
				t.Fatalf("trial %d: dual[%d] = %v warm vs %v cold (warmStarted=%v)",
					trial, i, warm.Dual[i], ref.Dual[i], warm.WarmStarted)
			}
		}
	}
	if checked < 10 {
		t.Fatalf("only %d trials reached the dual comparison", checked)
	}
}
