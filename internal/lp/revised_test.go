package lp

import (
	"math"
	"math/rand"
	"testing"
)

// TestRevisedMatchesTableau runs the fuzz target's differential check
// over a fixed range of seeds and shapes; some of its warm legs must
// re-install the basis.
func TestRevisedMatchesTableau(t *testing.T) {
	warm := 0
	for seed := int64(0); seed < 600; seed++ {
		if checkRevisedMatchesTableau(t, seed, uint16(seed*7919)) {
			warm++
		}
	}
	if warm == 0 {
		t.Fatal("no warm leg ever re-installed its basis")
	}
}

// TestRevisedSolvesTableauSuite replays the tableau's hand-built cases
// on the revised engine.
func TestRevisedSolvesTableauSuite(t *testing.T) {
	cases := []*Problem{warmProblem(1), warmProblem(1.3)}
	beale := NewProblem(Maximize, []float64{0.75, -20, 0.5, -6})
	beale.AddConstraint([]float64{0.25, -8, -1, 9}, LE, 0)
	beale.AddConstraint([]float64{0.5, -12, -0.5, 3}, LE, 0)
	beale.AddConstraint([]float64{0, 0, 1, 0}, LE, 1)
	cases = append(cases, beale)
	redundant := NewProblem(Minimize, []float64{1, 2})
	redundant.AddConstraint([]float64{1, 1}, EQ, 2)
	redundant.AddConstraint([]float64{2, 2}, EQ, 4)
	redundant.AddConstraint([]float64{1, 0}, LE, 1.5)
	cases = append(cases, redundant)
	vacuous := NewProblem(Maximize, []float64{1, 1})
	vacuous.AddConstraint([]float64{1, 0}, LE, math.Inf(1))
	vacuous.AddConstraint([]float64{1, 1}, LE, 3)
	vacuous.AddConstraint([]float64{-1, 0}, LE, -1)
	cases = append(cases, vacuous)
	infeasible := NewProblem(Maximize, []float64{1})
	infeasible.AddConstraint([]float64{1}, LE, 5)
	infeasible.AddConstraint([]float64{1}, GE, 6)
	cases = append(cases, infeasible)
	unbounded := NewProblem(Minimize, []float64{-1, 1})
	unbounded.AddConstraint([]float64{1, -1}, GE, 1)
	cases = append(cases, unbounded)
	for i, p := range cases {
		ref := mustSolve(t, p)
		got, err := NewRevised().Solve(toSparse(p))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got.Status != ref.Status {
			t.Fatalf("case %d: revised %v, tableau %v\n%v", i, got.Status, ref.Status, p)
		}
		if got.Status != Optimal {
			continue
		}
		if !almostEq(got.Objective, ref.Objective, tol*(1+math.Abs(ref.Objective))) {
			t.Fatalf("case %d: revised %v, tableau %v", i, got.Objective, ref.Objective)
		}
		for r := range ref.Dual {
			if !almostEq(got.Dual[r], ref.Dual[r], 1e-6*(1+math.Abs(ref.Dual[r]))) {
				t.Fatalf("case %d: dual[%d] revised %v, tableau %v", i, r, got.Dual[r], ref.Dual[r])
			}
		}
	}
}

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
// against cold tableau solves. All three warm outcomes must occur:
// Phase I skipped outright, dual-simplex repair, and primal repair.
func TestRevisedWarmStartDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5e7))
	solver := NewRevised()
	var skipped, dual, repaired int
	for trial := 0; trial < 400; trial++ {
		nVars := 2 + rng.Intn(6)
		base := NewProblem(Maximize, randVec(rng, nVars, 1, 10))
		for c := 0; c < 1+rng.Intn(4); c++ {
			base.AddConstraint(randVec(rng, nVars, 0, 5), LE, 5+rng.Float64()*20)
		}
		if trial%2 == 0 {
			base.AddConstraint(randVec(rng, nVars, 0.5, 2), EQ, 1+rng.Float64()*3)
		}
		cold, err := solver.SolveWith(toSparse(base), Options{CaptureBasis: true})
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
		warm, err := solver.SolveWith(toSparse(pert), Options{WarmBasis: cold.Basis})
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
		case warm.DualPivots > 0:
			dual++
		case warm.PhaseISkipped:
			skipped++
		default:
			repaired++
		}
	}
	if skipped == 0 || dual == 0 || repaired == 0 {
		t.Fatalf("warm outcomes: %d skipped, %d dual-repaired, %d primal-repaired; want each > 0", skipped, dual, repaired)
	}
}
