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
		var amt float64
		switch c.Rel {
		case LE:
			amt = lhs - c.RHS
		case GE:
			amt = c.RHS - lhs
		case EQ:
			amt = math.Abs(lhs - c.RHS)
		}
		// Scale tolerance by row magnitude so large-coefficient rows
		// (e.g. bandwidth in bits/s) are not spuriously flagged. The
		// scale is at least 1+|RHS|, so a row within that bound passes
		// without the second pass over its coefficients.
		scale := 1 + math.Abs(c.RHS)
		if amt <= tol*scale {
			continue
		}
		for _, a := range c.Coeffs {
			if abs := math.Abs(a); abs > scale {
				scale = abs
			}
		}
		if amt > tol*scale {
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

// Feasible reports whether x satisfies p within tol.
func Feasible(p *Problem, x []float64, tol float64) bool {
	return len(Verify(p, x, tol)) == 0
}
