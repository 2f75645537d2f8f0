package lp

import (
	"fmt"
	"math"
)

// Violation describes one constraint or sign violation found by Verify.
type Violation struct {
	// Row is the constraint index, or -1 for a variable sign violation.
	Row int
	// Var is the variable index for sign violations, or -1.
	Var int
	// Amount is the magnitude of the violation.
	Amount float64
	// Desc is a human-readable description.
	Desc string
}

// Verify checks that x satisfies every constraint of p and x ≥ 0 within
// tol, returning all violations found (empty means feasible).
func Verify(p *Problem, x []float64, tol float64) []Violation {
	var out []Violation
	if len(x) != p.NumVars() {
		return []Violation{{Row: -1, Var: -1, Amount: math.Inf(1),
			Desc: fmt.Sprintf("solution has %d entries, want %d", len(x), p.NumVars())}}
	}
	for j, v := range x {
		if v < -tol {
			out = append(out, Violation{Row: -1, Var: j, Amount: -v,
				Desc: fmt.Sprintf("x[%d] = %g < 0", j, v)})
		}
	}
	for i, c := range p.Constraints {
		var lhs float64
		for j, a := range c.Coeffs {
			lhs += a * x[j]
		}
		amt := rowExcess(c.Rel, lhs, c.RHS)
		// A row within 1+|RHS| passes without the second pass over its
		// coefficients.
		if amt <= tol*(1+math.Abs(c.RHS)) {
			continue
		}
		var rowMax float64
		for _, a := range c.Coeffs {
			rowMax = max(rowMax, math.Abs(a))
		}
		if rowViolated(c.Rel, lhs, c.RHS, rowMax, tol) {
			name := c.Name
			if name == "" {
				name = fmt.Sprintf("constraint %d", i)
			}
			out = append(out, Violation{Row: i, Var: -1, Amount: amt,
				Desc: fmt.Sprintf("%s: %g %s %g violated by %g", name, lhs, c.Rel, c.RHS, amt)})
		}
	}
	return out
}

// rowExcess is how far lhs overshoots the row lhs rel rhs (≤ 0 when it
// holds).
func rowExcess(rel Relation, lhs, rhs float64) float64 {
	switch rel {
	case LE:
		return lhs - rhs
	case GE:
		return rhs - lhs
	default:
		return math.Abs(lhs - rhs)
	}
}

// rowViolated applies Verify's row-scaled tolerance: a row whose largest
// coefficient magnitude is rowMax may miss its bound by tol times
// max(1+|rhs|, rowMax), so large-coefficient rows (bandwidth in bits/s)
// are not spuriously flagged.
func rowViolated(rel Relation, lhs, rhs, rowMax, tol float64) bool {
	return rowExcess(rel, lhs, rhs) > tol*max(1+math.Abs(rhs), rowMax)
}

// Feasible reports whether x satisfies p within tol.
func Feasible(p *Problem, x []float64, tol float64) bool {
	return len(Verify(p, x, tol)) == 0
}
