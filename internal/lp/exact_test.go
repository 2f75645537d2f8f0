package lp_test

import (
	"math"
	"math/big"
	"testing"

	"dmc/internal/lp"
	"dmc/internal/ratlp"
)

// FuzzRevisedMatchesExact generates random column-sparse LPs — 2–12 rows
// mixing ≤, ≥ and = with negative right-hand sides, at most six nonzeros
// per column — and checks the revised engine against the exact rational
// solver: both must agree on the status and, when optimal, on the
// objective to 1e-7 relative, with the revised answer passing Verify;
// the same columns appended in two or three batches must reach the same
// verdict. An optimal instance is then re-solved warm from its basis
// twice — with every coefficient drifted, and with only the right-hand
// sides drifted, which can leave the basis primal infeasible and so
// exercises its repair — and on each drifted LP a cold and the warm solve
// must agree with the exact solver and with each other.
func FuzzRevisedMatchesExact(f *testing.F) {
	for seed := int64(0); seed < 6; seed++ {
		f.Add(seed, uint16(seed*37))
	}
	f.Fuzz(func(t *testing.T, seed int64, shape uint16) {
		checkRevisedMatchesExact(t, seed, shape)
	})
}

// TestRevisedMatchesExact runs the fuzz target's checks over a fixed range
// of seeds and shapes. Some warm leg must re-install its basis, and some
// right-hand-side leg must re-install and repair it.
func TestRevisedMatchesExact(t *testing.T) {
	warm, repaired := 0, 0
	for seed := int64(0); seed < 600; seed++ {
		w, r := checkRevisedMatchesExact(t, seed, uint16(seed*7919))
		if w {
			warm++
		}
		if r {
			repaired++
		}
	}
	if warm == 0 {
		t.Fatal("no warm leg ever re-installed its basis")
	}
	if repaired == 0 {
		t.Fatal("no right-hand-side leg ever repaired its re-installed basis")
	}
}

// exactOf returns p over exact rationals. big.Rat.SetFloat64 is exact, so
// it is the same LP, and ratlp solves it without a tolerance.
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
// and reports whether its coefficient-drift leg re-installed the basis and
// whether its right-hand-side leg re-installed and repaired it.
func checkRevisedMatchesExact(t *testing.T, seed int64, shape uint16) (warmStarted, repaired bool) {
	sp := lp.RandomSparseLP(seed, shape)
	dense := sp.Dense()
	ref := exactSolution(t, dense)
	agree := func(what string, got, ref *lp.Solution, dense *lp.Problem) {
		t.Helper()
		if got.Status != ref.Status {
			t.Fatalf("%s %v, reference %v\n%v", what, got.Status, ref.Status, dense)
		}
		if got.Status != lp.Optimal {
			return
		}
		if math.Abs(got.Objective-ref.Objective) > 1e-7*(1+math.Abs(ref.Objective)) {
			t.Fatalf("%s objective %v, reference %v\n%v", what, got.Objective, ref.Objective, dense)
		}
		if v := lp.Verify(dense, got.X, 1e-7); len(v) != 0 {
			t.Fatalf("%s answer infeasible: %v\n%v", what, v, dense)
		}
	}
	got, err := lp.NewRevised().SolveWith(sp, lp.Options{CaptureBasis: true})
	if err != nil {
		t.Fatalf("revised: %v\n%v", err, dense)
	}
	agree("revised", got, ref, dense)

	// The same columns in batches, appended onto the previous optimum.
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
		if last != nil && last.Status == lp.Optimal {
			sol, err = solver.Append(grown)
			if err != nil {
				// Only an extension that is no longer optimal (now
				// unbounded) may refuse the append.
				if full, _ := lp.NewRevised().Solve(grown); full != nil && full.Status == lp.Optimal {
					t.Fatalf("batch %d: append refused an optimal extension: %v\n%v", b, err, grown.Dense())
				}
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
	agree("appended", last, ref, dense)

	if got.Status != lp.Optimal {
		return false, false
	}
	warm := func(what string, drifted *lp.Sparse) *lp.Solution {
		t.Helper()
		driftedDense := drifted.Dense()
		exact := exactSolution(t, driftedDense)
		cold, err := lp.NewRevised().Solve(drifted)
		if err != nil {
			t.Fatalf("%s cold: %v\n%v", what, err, driftedDense)
		}
		agree(what+" cold", cold, exact, driftedDense)
		sol, err := lp.NewRevised().SolveWith(drifted, lp.Options{WarmBasis: got.Basis})
		if err != nil {
			t.Fatalf("%s: %v\n%v", what, err, driftedDense)
		}
		agree(what, sol, exact, driftedDense)
		agree(what+" vs cold", sol, cold, driftedDense)
		return sol
	}
	warmStarted = warm("warm", lp.DriftSparse(sp, seed)).WarmStarted
	rhs := warm("rhs-drifted warm", lp.DriftRHS(sp, seed))
	return warmStarted, rhs.WarmStarted && !rhs.PhaseISkipped
}
