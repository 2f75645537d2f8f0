package lp

import (
	"fmt"
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

		sol, err := NewSolver().Solve(p)
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

// randomSparseLP draws FuzzRevisedMatchesExact's LP: small integer data,
// so the verdicts are not numerically borderline. With bit 14 of shape
// set, every fourth ≤ or ≥ row from the second on is vacuous (≤ +Inf, ≥
// −Inf), a row the solver skips. It, the drifts below and
// certificateViolation reach that external test through export_test.go.
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
		rel, rhs := []Relation{LE, LE, GE, EQ}[rng.Intn(4)], float64(rng.Intn(16)-5)
		if shape&0x4000 != 0 && i%4 == 1 && rel != EQ {
			rhs = math.Inf(1)
			if rel == GE {
				rhs = math.Inf(-1)
			}
		}
		sp.AddRow("", rel, rhs)
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

// certificateViolation describes how y fails to be a Farkas certificate
// of p's infeasibility, the Dual of an Infeasible Solution, or returns
// "": y must be 0 on the vacuous rows the solver skips, ≥ 0 on ≤ rows
// and ≤ 0 on ≥ rows, with y·aⱼ ≥ −tol for every column aⱼ and y·b < 0.
func certificateViolation(p *Sparse, y []float64, tol float64) string {
	if len(y) != len(p.rows) {
		return fmt.Sprintf("%d multipliers for %d rows", len(y), len(p.rows))
	}
	var yb float64
	for i, r := range p.rows {
		switch {
		case math.IsInf(r.rhs, 0):
			if y[i] != 0 {
				return fmt.Sprintf("vacuous row %d has multiplier %v", i, y[i])
			}
			continue
		case r.rel == LE && y[i] < 0, r.rel == GE && y[i] > 0:
			return fmt.Sprintf("%v row %d has multiplier %v", r.rel, i, y[i])
		}
		yb += y[i] * r.rhs
	}
	if !(yb < 0) {
		return fmt.Sprintf("y·b = %v, want < 0", yb)
	}
	for j := range p.NumVars() {
		var ya float64
		rows, vals := p.column(j)
		for k, r := range rows {
			ya += y[r] * vals[k]
		}
		if ya < -tol {
			return fmt.Sprintf("y·a[%d] = %v < −%v", j, ya, tol)
		}
	}
	return ""
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

// driftRHS returns a copy of sp with only its right-hand sides scaled, each
// by a factor in [0.3, 1.3) drawn from seed. The objective and the columns
// are unchanged, so an optimal basis of sp stays dual feasible for it.
func driftRHS(sp *Sparse, seed int64) *Sparse {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	out := NewSparse(sp.sense)
	for _, r := range sp.rows {
		out.AddRow(r.name, r.rel, r.rhs*(0.3+rng.Float64()))
	}
	for j := 0; j < sp.NumVars(); j++ {
		rows, vals := sp.column(j)
		out.AddColumn(sp.obj[j], rows, vals)
	}
	return out
}
