package lp_test

import (
	"fmt"
	"math"
	"math/big"
	"testing"

	"dmc/internal/lp"
	"dmc/internal/ratlp"
)

// FuzzRevisedMatchesExact generates random column-sparse LPs — 2–12 rows
// mixing ≤, ≥ and = with negative right-hand sides and, from bit 14 of
// the shape on, vacuous rows the solver skips, at most six nonzeros per
// column — and checks the revised engine against the exact rational
// solver: both must agree on the status; when optimal, on the objective
// to 1e-7 relative, with the revised answer passing Verify; when
// infeasible, the revised Dual must be a Farkas certificate
// (lp.CertificateViolation). The same columns appended in two or three
// batches must reach the same verdict, each batch's Append agreeing with
// a cold solve of the grown problem — from an optimal basis, and from an
// infeasible one, whose Phase I it resumes. An optimal instance is then
// re-solved warm from its basis twice — with every coefficient drifted,
// and with only the right-hand sides drifted, which can leave the basis
// primal infeasible and so exercises its repair — and on each drifted LP
// a cold and the warm solve must agree with the exact solver and with
// each other.
func FuzzRevisedMatchesExact(f *testing.F) {
	for seed := int64(0); seed < 6; seed++ {
		f.Add(seed, uint16(seed*37))
	}
	f.Fuzz(func(t *testing.T, seed int64, shape uint16) {
		checkRevisedMatchesExact(t, seed, shape)
	})
}

// TestRevisedMatchesExact runs the fuzz target's checks over a fixed range
// of seeds and shapes. Each leg must run somewhere: a warm leg that
// re-installs its basis, a right-hand-side leg that re-installs and
// repairs it, a certificate of an LP with a vacuous row, and appends that
// resume an infeasible basis, both restoring feasibility and not.
func TestRevisedMatchesExact(t *testing.T) {
	var seen revisedLegs
	for seed := int64(0); seed < 600; seed++ {
		legs := checkRevisedMatchesExact(t, seed, uint16(seed*7919))
		seen.warm = seen.warm || legs.warm
		seen.repaired = seen.repaired || legs.repaired
		seen.vacuousCertified = seen.vacuousCertified || legs.vacuousCertified
		seen.restored = seen.restored || legs.restored
		seen.stillInfeasible = seen.stillInfeasible || legs.stillInfeasible
	}
	if seen != (revisedLegs{true, true, true, true, true}) {
		t.Fatalf("legs never run: %+v", seen)
	}
}

// revisedLegs reports which of checkRevisedMatchesExact's legs ran on an
// instance: the coefficient-drift leg re-installed the basis; the
// right-hand-side leg re-installed and repaired it; an infeasible verdict
// on an LP with a vacuous row was certified; an append resumed from an
// infeasible basis and reached an optimum, or stayed infeasible.
type revisedLegs struct {
	warm, repaired, vacuousCertified, restored, stillInfeasible bool
}

// certTol is how far below zero a certificate y may price a column,
// y·aⱼ ≥ −certTol: the solver's optimality tolerance with room for the
// roundoff its multipliers gather over a solve.
const certTol = 1e-8

// exactOf returns p over exact rationals. big.Rat.SetFloat64 is exact, so
// it is the same LP, and ratlp solves it without a tolerance. A vacuous
// row becomes ratlp's nil right-hand side.
func exactOf(p *lp.Problem) *ratlp.Problem {
	rat := func(v float64) *big.Rat { return new(big.Rat).SetFloat64(v) }
	obj := make([]*big.Rat, len(p.Objective))
	for j, c := range p.Objective {
		obj[j] = rat(c)
	}
	q := ratlp.NewProblem(p.Sense, obj)
	for _, c := range p.Constraints {
		coeffs := make([]*big.Rat, len(c.Coeffs))
		for j, a := range c.Coeffs {
			coeffs[j] = rat(a)
		}
		if math.IsInf(c.RHS, 0) {
			q.AddConstraint(coeffs, lp.LE, nil)
			continue
		}
		q.AddConstraint(coeffs, c.Rel, rat(c.RHS))
	}
	return q
}

// exactSolution solves p over exact rationals and returns its status and,
// when optimal, its objective rounded to float64.
func exactSolution(t *testing.T, p *lp.Problem) *lp.Solution {
	t.Helper()
	ex, err := ratlp.Solve(exactOf(p))
	if err != nil {
		t.Fatalf("exact: %v\n%v", err, p)
	}
	ref := &lp.Solution{Status: ex.Status}
	if ex.Status == lp.Optimal {
		ref.Objective, _ = ex.Objective.Float64()
	}
	return ref
}

// checkRevisedMatchesExact runs the fuzz target's checks on one instance
// and reports which of its legs ran.
func checkRevisedMatchesExact(t *testing.T, seed int64, shape uint16) (legs revisedLegs) {
	sp := lp.RandomSparseLP(seed, shape)
	dense := sp.Dense()
	ref := exactSolution(t, dense)
	agree := func(what string, got, ref *lp.Solution, sp *lp.Sparse) {
		t.Helper()
		dense := sp.Dense()
		if got.Status != ref.Status {
			t.Fatalf("%s %v, reference %v\n%v", what, got.Status, ref.Status, dense)
		}
		switch got.Status {
		case lp.Infeasible:
			if v := lp.CertificateViolation(sp, got.Dual, certTol); v != "" {
				t.Fatalf("%s certificate: %s\n%v", what, v, dense)
			}
		case lp.Optimal:
			if math.Abs(got.Objective-ref.Objective) > 1e-7*(1+math.Abs(ref.Objective)) {
				t.Fatalf("%s objective %v, reference %v\n%v", what, got.Objective, ref.Objective, dense)
			}
			if v := lp.Verify(dense, got.X, 1e-7); len(v) != 0 {
				t.Fatalf("%s answer infeasible: %v\n%v", what, v, dense)
			}
		}
	}
	got, err := lp.NewRevised().SolveWith(sp, lp.Options{CaptureBasis: true})
	if err != nil {
		t.Fatalf("revised: %v\n%v", err, dense)
	}
	agree("revised", got, ref, sp)
	if got.Status == lp.Infeasible {
		for _, c := range dense.Constraints {
			legs.vacuousCertified = legs.vacuousCertified || math.IsInf(c.RHS, 0)
		}
	}

	// The same columns in batches, each appended onto the previous
	// optimal or infeasible basis.
	n := sp.NumVars()
	batches := 2 + int(seed&1)
	grown := lp.NewSparse(dense.Sense)
	for _, c := range dense.Constraints {
		grown.AddRow(c.Name, c.Rel, c.RHS)
	}
	solver := lp.NewRevised()
	var last *lp.Solution
	for b, from := 1, 0; b <= batches; b++ {
		to := max(from+1, n*b/batches)
		if b == batches {
			to = n
		}
		for j := from; j < to && j < n; j++ {
			rows, vals := sp.Column(j)
			grown.AddColumn(dense.Objective[j], rows, vals)
		}
		from = to
		if grown.NumVars() == 0 {
			continue
		}
		var sol *lp.Solution
		if last != nil && last.Status != lp.Unbounded {
			cold, err := lp.NewRevised().Solve(grown)
			if err != nil {
				t.Fatalf("batch %d cold: %v", b, err)
			}
			switch sol, err = solver.Append(grown); {
			case err == nil:
				agree(fmt.Sprintf("batch %d appended onto %v", b, last.Status), sol, cold, grown)
				if last.Status == lp.Infeasible {
					legs.restored = legs.restored || sol.Status == lp.Optimal
					legs.stillInfeasible = legs.stillInfeasible || sol.Status == lp.Infeasible
				}
			case cold.Status != lp.Unbounded:
				// Only an extension that is now unbounded may refuse it.
				t.Fatalf("batch %d: append refused a %v extension: %v\n%v", b, cold.Status, err, grown.Dense())
			}
		}
		if sol == nil {
			if sol, err = solver.Solve(grown); err != nil {
				t.Fatalf("batch %d: %v", b, err)
			}
		}
		last = sol
		if from >= n {
			break
		}
	}
	agree("appended", last, ref, sp)

	if got.Status != lp.Optimal {
		return legs
	}
	warm := func(what string, drifted *lp.Sparse) *lp.Solution {
		t.Helper()
		exact := exactSolution(t, drifted.Dense())
		cold, err := lp.NewRevised().Solve(drifted)
		if err != nil {
			t.Fatalf("%s cold: %v\n%v", what, err, drifted.Dense())
		}
		agree(what+" cold", cold, exact, drifted)
		sol, err := lp.NewRevised().SolveWith(drifted, lp.Options{WarmBasis: got.Basis})
		if err != nil {
			t.Fatalf("%s: %v\n%v", what, err, drifted.Dense())
		}
		agree(what, sol, exact, drifted)
		agree(what+" vs cold", sol, cold, drifted)
		return sol
	}
	legs.warm = warm("warm", lp.DriftSparse(sp, seed)).WarmStarted
	rhs := warm("rhs-drifted warm", lp.DriftRHS(sp, seed))
	legs.repaired = rhs.WarmStarted && !rhs.PhaseISkipped
	return legs
}
