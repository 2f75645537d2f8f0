package lp

import (
	"math"
	"math/rand"
	"testing"
)

// cgShapedProblem draws a bounded random LP shaped like the paper's
// restricted masters: a handful of ≤ resource rows plus one = 1
// convexity row over nVars columns.
func cgShapedProblem(rng *rand.Rand, nVars, nCons int) *Problem {
	p := NewProblem(Maximize, randVec(rng, nVars, 0.1, 1))
	for c := 0; c < nCons; c++ {
		// RHS ≥ 5 ≥ every coefficient: any convex mix satisfies the row,
		// so the instance is feasible by construction.
		p.AddConstraint(randVec(rng, nVars, 0.1, 5), LE, 5+rng.Float64()*10)
	}
	ones := make([]float64, nVars)
	for j := range ones {
		ones[j] = 1
	}
	p.AddConstraint(ones, EQ, 1)
	return p
}

// extendProblem returns p with k fresh columns appended to every row
// and the objective — the incremental step of a column-generation loop.
func extendProblem(rng *rand.Rand, p *Problem, k int) *Problem {
	nVars := p.NumVars()
	out := NewProblem(p.Sense, append(append([]float64(nil), p.Objective...), randVec(rng, k, 0.1, 1)...))
	for _, con := range p.Constraints {
		coeffs := append(append([]float64(nil), con.Coeffs...), randVec(rng, k, 0.1, 5)...)
		if con.Rel == EQ { // keep the convexity row all-ones
			for j := nVars; j < nVars+k; j++ {
				coeffs[j] = 1
			}
		}
		out.AddConstraint(coeffs, con.Rel, con.RHS)
	}
	return out
}

// appendColumnsFrom appends p's columns from index from on to sp, whose
// rows must be p's.
func appendColumnsFrom(sp *Sparse, p *Problem, from int) {
	rows := make([]int, len(p.Constraints))
	vals := make([]float64, len(p.Constraints))
	for j := from; j < p.NumVars(); j++ {
		for i, c := range p.Constraints {
			rows[i], vals[i] = i, c.Coeffs[j]
		}
		sp.AddColumn(p.Objective[j], rows, vals)
	}
}

// TestAppendSolveMatchesCold: columns appended to a Sparse problem and
// re-optimized by Revised.Append must reach the same optimum, duals
// included, as a cold solve of the extended problem, over
// randomized instances and multi-step append chains.
func TestAppendSolveMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewSource(0xa99e))
	chains := 0
	for trial := 0; trial < 150; trial++ {
		solver := NewRevised()
		p := cgShapedProblem(rng, 2+rng.Intn(6), 1+rng.Intn(4))
		sp := new(Sparse).setProblem(p)
		sol, err := solver.SolveWith(sp, Options{CaptureBasis: true})
		if err != nil || sol.Status != Optimal {
			t.Fatalf("trial %d: base solve: %v / %+v", trial, err, sol)
		}
		// Chain several appends on the same basis.
		steps := 1 + rng.Intn(4)
		for step := 0; step < steps; step++ {
			oldN := p.NumVars()
			p = extendProblem(rng, p, 1+rng.Intn(5))
			appendColumnsFrom(sp, p, oldN)
			got, err := solver.Append(sp)
			if err != nil {
				t.Fatalf("trial %d step %d: append solve: %v", trial, step, err)
			}
			ref, err := NewSolver().Solve(p)
			if err != nil || ref.Status != Optimal {
				t.Fatalf("trial %d step %d: cold solve: %v", trial, step, err)
			}
			scale := 1 + math.Abs(ref.Objective)
			if math.Abs(got.Objective-ref.Objective) > 1e-7*scale {
				t.Fatalf("trial %d step %d: append objective %v vs cold %v",
					trial, step, got.Objective, ref.Objective)
			}
			if v := Verify(p, got.X, 1e-7); len(v) != 0 {
				t.Fatalf("trial %d step %d: append solution infeasible: %v", trial, step, v)
			}
			for i := range ref.Dual {
				if math.Abs(got.Dual[i]-ref.Dual[i]) > 1e-6*(1+math.Abs(ref.Dual[i])) {
					t.Fatalf("trial %d step %d: dual[%d] %v vs cold %v",
						trial, step, i, got.Dual[i], ref.Dual[i])
				}
			}
			chains++
		}
	}
	if chains == 0 {
		t.Fatal("no append chain ever ran")
	}
}

// TestAppendSolveMinimize covers the Minimize sense (the min-cost
// master): appended columns must carry the sign-adjusted objective. Its
// ≥ row is too tight for some first masters, as a min-cost quality floor
// can be: their Dual must certify the infeasibility, and Append must
// resume Phase I from it, reaching a cold solve's optimum when the new
// columns restore feasibility and a fresh certificate when they do not.
func TestAppendSolveMinimize(t *testing.T) {
	rng := rand.New(rand.NewSource(0x317))
	var fromOptimal, restored, stillInfeasible int
	for trial := 0; trial < 60; trial++ {
		solver := NewRevised()
		nVars := 2 + rng.Intn(5)
		p := NewProblem(Minimize, randVec(rng, nVars, 0.1, 2))
		p.AddConstraint(randVec(rng, nVars, 0.2, 2), GE, 0.5+1.5*rng.Float64())
		ones := make([]float64, nVars)
		for j := range ones {
			ones[j] = 1
		}
		p.AddConstraint(ones, EQ, 1)
		sp := new(Sparse).setProblem(p)
		sol, err := solver.SolveWith(sp, Options{CaptureBasis: true})
		if err != nil || sol.Status == Unbounded {
			t.Fatalf("trial %d: first solve: %v / %+v", trial, err, sol)
		}
		if sol.Status == Infeasible {
			if v := certificateViolation(sp, sol.Dual, 1e-9); v != "" {
				t.Fatalf("trial %d: first solve's certificate: %s", trial, v)
			}
		}
		oldN := p.NumVars()
		ext := NewProblem(Minimize, append(append([]float64(nil), p.Objective...), randVec(rng, 2, 0.1, 2)...))
		for _, con := range p.Constraints {
			coeffs := append(append([]float64(nil), con.Coeffs...), randVec(rng, 2, 0.2, 2)...)
			if con.Rel == EQ {
				coeffs[oldN], coeffs[oldN+1] = 1, 1
			}
			ext.AddConstraint(coeffs, con.Rel, con.RHS)
		}
		appendColumnsFrom(sp, ext, oldN)
		got, err := solver.Append(sp)
		if err != nil {
			t.Fatalf("trial %d: append onto %v: %v", trial, sol.Status, err)
		}
		ref := mustSolve(t, ext)
		if got.Status != ref.Status {
			t.Fatalf("trial %d: append onto %v %v, cold %v", trial, sol.Status, got.Status, ref.Status)
		}
		switch {
		case got.Status == Infeasible:
			if v := certificateViolation(sp, got.Dual, 1e-9); v != "" {
				t.Fatalf("trial %d: appended certificate: %s", trial, v)
			}
			stillInfeasible++
			continue
		case sol.Status == Infeasible:
			restored++
		default:
			fromOptimal++
		}
		if math.Abs(got.Objective-ref.Objective) > 1e-7*(1+math.Abs(ref.Objective)) {
			t.Fatalf("trial %d: append min %v vs cold %v", trial, got.Objective, ref.Objective)
		}
		if v := Verify(ext, got.X, 1e-7); len(v) != 0 {
			t.Fatalf("trial %d: appended answer infeasible: %v", trial, v)
		}
	}
	if fromOptimal == 0 || restored == 0 || stillInfeasible == 0 {
		t.Fatalf("appends from an optimum %d, restoring feasibility %d, staying infeasible %d: want each > 0",
			fromOptimal, restored, stillInfeasible)
	}
}

// TestAppendSolveGuards: a solver that has solved nothing, another
// problem, a rebuilt problem with fewer columns, and one with a changed
// row must all be refused (the caller then solves in full) instead of
// producing answers for a problem that was never loaded.
func TestAppendSolveGuards(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := cgShapedProblem(rng, 4, 2)
	sp := new(Sparse).setProblem(p)

	if _, err := NewRevised().Append(sp); err == nil {
		t.Error("append on a solver with no solve accepted")
	}

	solver := NewRevised()
	if _, err := solver.SolveWith(sp, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := solver.Append(new(Sparse).setProblem(p)); err == nil {
		t.Error("append of a problem the solver never loaded accepted")
	}

	// Rebuilt with fewer columns.
	sp.Reset(p.Sense)
	for _, c := range p.Constraints {
		sp.AddRow(c.Name, c.Rel, c.RHS)
	}
	appendColumnsFrom(sp, &Problem{Sense: p.Sense, Objective: p.Objective[:3], Constraints: truncated(p.Constraints, 3)}, 0)
	if _, err := solver.Append(sp); err == nil {
		t.Error("shrunk column set accepted")
	}

	// Rebuilt with a changed row relation.
	if _, err := solver.SolveWith(sp, Options{}); err != nil {
		t.Fatal(err)
	}
	bad := extendProblem(rng, p, 1)
	bad.Constraints[0].Rel = GE
	sp.Reset(bad.Sense)
	for _, c := range bad.Constraints {
		sp.AddRow(c.Name, c.Rel, c.RHS)
	}
	appendColumnsFrom(sp, bad, 0)
	if _, err := solver.Append(sp); err == nil {
		t.Error("changed row relation accepted")
	}

	// A refused append leaves the solver usable for a full solve.
	sol, err := solver.SolveWith(sp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref := mustSolve(t, bad)
	if sol.Status != ref.Status || sol.Status == Optimal && !almostEq(sol.Objective, ref.Objective, 1e-7*(1+math.Abs(ref.Objective))) {
		t.Errorf("full solve after a refused append: %v %v, cold %v %v", sol.Status, sol.Objective, ref.Status, ref.Objective)
	}
}

// truncated returns the constraints cut to their first n coefficients.
func truncated(cons []Constraint, n int) []Constraint {
	out := make([]Constraint, len(cons))
	for i, c := range cons {
		out[i] = c
		out[i].Coeffs = c.Coeffs[:n]
	}
	return out
}

// TestAppendSolveAfterWarmStart: the append path must compose with a
// warm-started first solve (the resolve regime: install the basis, then
// keep appending CG columns).
func TestAppendSolveAfterWarmStart(t *testing.T) {
	rng := rand.New(rand.NewSource(0xbeef))
	solver := NewRevised()
	p := cgShapedProblem(rng, 5, 3)
	sp := new(Sparse).setProblem(p)
	first, err := solver.SolveWith(sp, Options{CaptureBasis: true})
	if err != nil || first.Status != Optimal {
		t.Fatal(err)
	}
	warm, err := solver.SolveWith(sp, Options{WarmBasis: first.Basis})
	if err != nil || !warm.WarmStarted {
		t.Fatalf("warm restart failed: %v %+v", err, warm)
	}
	oldN := p.NumVars()
	p = extendProblem(rng, p, 3)
	appendColumnsFrom(sp, p, oldN)
	got, err := solver.Append(sp)
	if err != nil {
		t.Fatalf("append after warm start: %v", err)
	}
	ref := mustSolve(t, p)
	if math.Abs(got.Objective-ref.Objective) > 1e-7*(1+math.Abs(ref.Objective)) {
		t.Fatalf("append %v vs cold %v", got.Objective, ref.Objective)
	}
}

// TestRHSShrinkRepairsBasis: shrinking only the right-hand sides leaves
// the old optimal basis primal infeasible. The Revised warm solve must
// re-install and repair it (WarmStarted without PhaseISkipped) on at
// least some trials, and still match cold solves.
func TestRHSShrinkRepairsBasis(t *testing.T) {
	rng := rand.New(rand.NewSource(0xd0a1))
	solver := NewRevised()
	repaired := 0
	for trial := 0; trial < 200; trial++ {
		nVars := 2 + rng.Intn(5)
		p := NewProblem(Maximize, randVec(rng, nVars, 1, 10))
		for c := 0; c < 1+rng.Intn(3); c++ {
			p.AddConstraint(randVec(rng, nVars, 0.5, 5), LE, 5+rng.Float64()*20)
		}
		cold, err := solver.SolveWith(new(Sparse).setProblem(p), Options{CaptureBasis: true})
		if err != nil || cold.Status != Optimal {
			continue
		}
		pert := NewProblem(p.Sense, p.Objective)
		for _, con := range p.Constraints {
			pert.AddConstraint(con.Coeffs, con.Rel, con.RHS*(0.2+rng.Float64()*0.5))
		}
		warm, err := solver.SolveWith(new(Sparse).setProblem(pert), Options{WarmBasis: cold.Basis})
		if err != nil {
			t.Fatalf("trial %d: warm: %v", trial, err)
		}
		ref, err := NewSolver().Solve(pert)
		if err != nil {
			t.Fatalf("trial %d: cold: %v", trial, err)
		}
		if warm.Status != ref.Status {
			t.Fatalf("trial %d: warm %v vs cold %v", trial, warm.Status, ref.Status)
		}
		if warm.Status == Optimal {
			if math.Abs(warm.Objective-ref.Objective) > 1e-6*(1+math.Abs(ref.Objective)) {
				t.Fatalf("trial %d: warm %v vs cold %v", trial, warm.Objective, ref.Objective)
			}
		}
		if warm.WarmStarted && !warm.PhaseISkipped {
			repaired++
		}
	}
	if repaired == 0 {
		t.Fatal("no trial ever repaired its re-installed basis; the path is dead")
	}
}
