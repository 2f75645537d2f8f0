package lp

import (
	"math"
	"math/rand"
	"testing"
)

// FuzzSolveSmallLP throws arbitrary 2-variable, 2-constraint problems at
// the solver: it must never panic, and any Optimal answer must verify
// feasible.
func FuzzSolveSmallLP(f *testing.F) {
	f.Add(1.0, 2.0, 1.0, 1.0, 3.0, 1.0, -1.0, 1.0, true, false)
	f.Add(-5.0, 0.5, 2.0, 0.0, -1.0, 0.0, 1.0, 10.0, false, true)
	f.Add(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, true, true)
	f.Fuzz(func(t *testing.T, c1, c2, a11, a12, b1, a21, a22, b2 float64, max bool, eq bool) {
		for _, v := range []float64{c1, c2, a11, a12, b1, a21, a22, b2} {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e12 {
				return // validated inputs rejected elsewhere; fuzz the solver core
			}
		}
		sense := Minimize
		if max {
			sense = Maximize
		}
		p := NewProblem(sense, []float64{c1, c2})
		p.AddConstraint([]float64{a11, a12}, LE, b1)
		rel := GE
		if eq {
			rel = EQ
		}
		p.AddConstraint([]float64{a21, a22}, rel, b2)
		// Box to keep everything bounded.
		p.AddConstraint([]float64{1, 0}, LE, 1e6)
		p.AddConstraint([]float64{0, 1}, LE, 1e6)

		sol, err := Solve(p)
		if err != nil {
			return // iteration-limit style errors are acceptable
		}
		if sol.Status == Optimal {
			if v := Verify(p, sol.X, 1e-5); len(v) != 0 {
				t.Fatalf("optimal but infeasible: %v\nproblem:\n%v", v, p)
			}
		}
	})
}

// FuzzRevisedMatchesTableau generates random column-sparse LPs — 2–12
// rows mixing ≤, ≥ and = with negative right-hand sides, at most six
// nonzeros per column — and checks the revised engine against the dense
// tableau: both must agree on the status and, when optimal, on the
// objective to 1e-7 relative, with the revised answer passing Verify;
// the same columns appended in two or three batches must reach the same
// verdict; and an optimal instance, drifted and re-solved warm from its
// revised basis, must agree with a cold tableau solve of the drifted LP.
func FuzzRevisedMatchesTableau(f *testing.F) {
	for seed := int64(0); seed < 6; seed++ {
		f.Add(seed, uint16(seed*37))
	}
	f.Fuzz(func(t *testing.T, seed int64, shape uint16) {
		checkRevisedMatchesTableau(t, seed, shape)
	})
}

// randomSparseLP draws the fuzz target's LP: small integer data, so the
// verdicts are not numerically borderline.
func randomSparseLP(seed int64, shape uint16) *Sparse {
	rng := rand.New(rand.NewSource(seed))
	m := 2 + int(shape%11)
	n := 1 + int(shape/11%20)
	sense := Maximize
	if shape&0x8000 != 0 {
		sense = Minimize
	}
	sp := NewSparse(sense)
	for i := 0; i < m; i++ {
		sp.AddRow("", []Relation{LE, LE, GE, EQ}[rng.Intn(4)], float64(rng.Intn(16)-5))
	}
	rows := make([]int, 0, 6)
	vals := make([]float64, 0, 6)
	for j := 0; j < n; j++ {
		rows, vals = rows[:0], vals[:0]
		for _, r := range rng.Perm(m)[:1+rng.Intn(min(6, m))] {
			rows = append(rows, r)
			vals = append(vals, float64(rng.Intn(7)-3)/float64(1+rng.Intn(2)))
		}
		sp.AddColumn(float64(rng.Intn(11)-5), rows, vals)
	}
	return sp
}

// driftSparse returns a copy of sp with each right-hand side scaled by a
// factor in [0.3, 1.3), each objective coefficient by one in [0.8, 1.2)
// and each nonzero by one in [0.9, 1.1), drawn from seed.
func driftSparse(sp *Sparse, seed int64) *Sparse {
	rng := rand.New(rand.NewSource(^seed))
	out := NewSparse(sp.sense)
	for _, r := range sp.rows {
		out.AddRow(r.name, r.rel, r.rhs*(0.3+rng.Float64()))
	}
	vals := make([]float64, 0, 6)
	for j := 0; j < sp.NumVars(); j++ {
		rows, v := sp.column(j)
		vals = vals[:0]
		for _, a := range v {
			vals = append(vals, a*(0.9+0.2*rng.Float64()))
		}
		out.AddColumn(sp.obj[j]*(0.8+0.4*rng.Float64()), rows, vals)
	}
	return out
}

// checkRevisedMatchesTableau runs the fuzz target's checks on one
// instance and reports whether its warm leg re-installed the basis.
func checkRevisedMatchesTableau(t *testing.T, seed int64, shape uint16) (warmStarted bool) {
	sp := randomSparseLP(seed, shape)
	dense := sp.Dense()
	ref, err := NewSolver().Solve(dense)
	if err != nil {
		t.Fatalf("tableau: %v\n%v", err, dense)
	}
	got, err := NewRevised().SolveWith(sp, Options{CaptureBasis: true})
	if err != nil {
		t.Fatalf("revised: %v\n%v", err, dense)
	}
	agree := func(what string, got, ref *Solution, dense *Problem) {
		t.Helper()
		if got.Status != ref.Status {
			t.Fatalf("%s %v, tableau %v\n%v", what, got.Status, ref.Status, dense)
		}
		if got.Status != Optimal {
			return
		}
		if math.Abs(got.Objective-ref.Objective) > 1e-7*(1+math.Abs(ref.Objective)) {
			t.Fatalf("%s objective %v, tableau %v\n%v", what, got.Objective, ref.Objective, dense)
		}
		if v := Verify(dense, got.X, 1e-7); len(v) != 0 {
			t.Fatalf("%s answer infeasible: %v\n%v", what, v, dense)
		}
	}
	agree("revised", got, ref, dense)

	// The same columns in batches, appended onto the previous optimum.
	n := sp.NumVars()
	batches := 2 + int(seed&1)
	grown := NewSparse(sp.sense)
	for _, r := range sp.rows {
		grown.AddRow(r.name, r.rel, r.rhs)
	}
	solver := NewRevised()
	var last *Solution
	for b, from := 1, 0; b <= batches; b++ {
		to := max(from+1, n*b/batches)
		if b == batches {
			to = n
		}
		for j := from; j < to && j < n; j++ {
			rows, vals := sp.column(j)
			grown.AddColumn(sp.obj[j], rows, vals)
		}
		from = to
		if grown.NumVars() == 0 {
			continue
		}
		var sol *Solution
		if last != nil && last.Status == Optimal {
			sol, err = solver.Append(grown)
			if err != nil {
				// Only an extension that is no longer optimal (now
				// unbounded) may refuse the append.
				if full, _ := NewRevised().Solve(grown); full != nil && full.Status == Optimal {
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

	if got.Status != Optimal {
		return false
	}
	drifted := driftSparse(sp, seed)
	driftedDense := drifted.Dense()
	driftedRef, err := NewSolver().Solve(driftedDense)
	if err != nil {
		t.Fatalf("drifted tableau: %v\n%v", err, driftedDense)
	}
	warm, err := NewRevised().SolveWith(drifted, Options{WarmBasis: got.Basis})
	if err != nil {
		t.Fatalf("warm: %v\n%v", err, driftedDense)
	}
	agree("warm", warm, driftedRef, driftedDense)
	return warm.WarmStarted
}
