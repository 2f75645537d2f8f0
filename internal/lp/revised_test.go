package lp

import (
	"math"
	"math/rand"
	"testing"
)

// TestRevisedValidates: malformed sparse problems are rejected unless
// AssumeValid is set.
func TestRevisedValidates(t *testing.T) {
	nan := NewSparse(Maximize)
	nan.AddRow("", LE, 1)
	nan.AddColumn(math.NaN(), []int{0}, []float64{1})
	badRow := NewSparse(Maximize)
	badRow.AddRow("", LE, 1)
	badRow.AddColumn(1, []int{3}, []float64{1})
	infRHS := NewSparse(Maximize)
	infRHS.AddRow("", EQ, math.Inf(1))
	infRHS.AddColumn(1, []int{0}, []float64{1})
	for i, p := range []*Sparse{NewSparse(Maximize), nan, badRow, infRHS} {
		if _, err := NewRevised().Solve(p); err == nil {
			t.Errorf("case %d: invalid problem accepted", i)
		}
	}
}

// TestRevisedWarmStartDifferential drifts random LPs with ≤ and = rows
// and re-solves them warm on the revised engine from its own basis,
// against cold solves. Both warm outcomes must occur: Phase I skipped
// outright, and repair.
func TestRevisedWarmStartDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5e7))
	solver := NewRevised()
	var skipped, repaired int
	for trial := 0; trial < 400; trial++ {
		nVars := 2 + rng.Intn(6)
		base := NewProblem(Maximize, randVec(rng, nVars, 1, 10))
		for c := 0; c < 1+rng.Intn(4); c++ {
			base.AddConstraint(randVec(rng, nVars, 0, 5), LE, 5+rng.Float64()*20)
		}
		if trial%2 == 0 {
			base.AddConstraint(randVec(rng, nVars, 0.5, 2), EQ, 1+rng.Float64()*3)
		}
		cold, err := solver.SolveWith(new(Sparse).setProblem(base), Options{CaptureBasis: true})
		if err != nil || cold.Status != Optimal {
			continue
		}
		shrink := trial%3 == 0
		drift := func(v float64) float64 { return v * (1 + (rng.Float64()-0.5)*0.3) }
		pert := NewProblem(base.Sense, base.Objective)
		for j := range pert.Objective {
			pert.Objective[j] = drift(pert.Objective[j])
		}
		for _, con := range base.Constraints {
			coeffs := make([]float64, len(con.Coeffs))
			for j, a := range con.Coeffs {
				coeffs[j] = drift(a)
			}
			rhs := drift(con.RHS)
			if shrink {
				rhs *= 0.3 + 0.4*rng.Float64()
			}
			pert.AddConstraint(coeffs, con.Rel, rhs)
		}
		ref := mustSolve(t, pert)
		warm, err := solver.SolveWith(new(Sparse).setProblem(pert), Options{WarmBasis: cold.Basis})
		if err != nil {
			t.Fatalf("trial %d: warm: %v", trial, err)
		}
		if warm.Status != ref.Status {
			t.Fatalf("trial %d: warm %v, cold %v", trial, warm.Status, ref.Status)
		}
		if warm.Status != Optimal {
			continue
		}
		if !almostEq(warm.Objective, ref.Objective, 1e-7*(1+math.Abs(ref.Objective))) {
			t.Fatalf("trial %d: warm %v, cold %v", trial, warm.Objective, ref.Objective)
		}
		if v := Verify(pert, warm.X, 1e-7); len(v) != 0 {
			t.Fatalf("trial %d: warm answer infeasible: %v", trial, v)
		}
		switch {
		case !warm.WarmStarted:
		case warm.PhaseISkipped:
			skipped++
		default:
			repaired++
		}
	}
	if skipped == 0 || repaired == 0 {
		t.Fatalf("warm outcomes: %d skipped, %d repaired; want each > 0", skipped, repaired)
	}
}

// TestPartialPricingResetsOnLoad: a Revised reused on problem A and then
// on problem B returns bitwise what a fresh Revised returns on B, cold and
// through Append. The problems hold enough columns for partial pricing,
// whose window offset must not carry from one load into the next.
func TestPartialPricingResetsOnLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(0x9a1))
	reused := NewRevised()
	for trial := 0; trial < 20; trial++ {
		a := cgShapedProblem(rng, partialFrom+rng.Intn(200), 3+rng.Intn(6))
		b := cgShapedProblem(rng, partialFrom+rng.Intn(200), 3+rng.Intn(6))
		ext := extendProblem(rng, b, 1+rng.Intn(priceWindow))
		if _, err := reused.Solve(new(Sparse).setProblem(a)); err != nil {
			t.Fatal(err)
		}
		fresh := NewRevised()
		var got, want [2]*Solution
		for i, s := range []*Revised{reused, fresh} {
			sp := new(Sparse).setProblem(b)
			sol, err := s.Solve(sp)
			if err != nil {
				t.Fatal(err)
			}
			appendColumnsFrom(sp, ext, b.NumVars())
			app, err := s.Append(sp)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				got = [2]*Solution{sol, app}
			} else {
				want = [2]*Solution{sol, app}
			}
		}
		for leg, what := range []string{"cold", "append"} {
			if !sameSolution(got[leg], want[leg]) {
				t.Fatalf("trial %d %s: reused solver took %d pivots to %v, fresh %d to %v",
					trial, what, got[leg].Iterations, got[leg].Objective, want[leg].Iterations, want[leg].Objective)
			}
		}
	}
}

// sameSolution reports whether a and b agree bit for bit.
func sameSolution(a, b *Solution) bool {
	if a.Status != b.Status || a.Iterations != b.Iterations ||
		math.Float64bits(a.Objective) != math.Float64bits(b.Objective) || len(a.X) != len(b.X) {
		return false
	}
	for j := range a.X {
		if math.Float64bits(a.X[j]) != math.Float64bits(b.X[j]) {
			return false
		}
	}
	for i := range a.Dual {
		if math.Float64bits(a.Dual[i]) != math.Float64bits(b.Dual[i]) {
			return false
		}
	}
	return true
}
