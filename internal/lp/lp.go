// Package lp implements a simplex engine for linear programs over
// float64 with non-negative variables, maximization or minimization,
// and less-than, equality, and greater-than constraints.
//
// The paper solves its packet-to-path-combination assignment problem
// (Eq. 10) with an off-the-shelf LP library (CGAL). Go's ecosystem has no
// comparable standard solver, so this package provides one from scratch.
// The paper's problems have (n+1)^m variables (paths × transmissions)
// but only n+2 rows, and each variable touches at most m+2 of them.
//
// The engine is Revised, a revised simplex over a Sparse problem: rows
// fixed, columns stored sparsely and appended in place, an explicit
// basis inverse. A pivot costs O(rows² + nonzeros), and an append only
// its columns' nonzeros, which suits the fully enumerated LPs of small
// shapes and column generation's growing restricted masters alike. It
// equilibrates rows and the objective, so its tolerances are relative,
// and it warm-starts: it captures a Basis and re-installs it on a later
// solve of the same shape, where a basis the drift made infeasible is
// repaired by a short Phase I. Solver, and the package-level Solve and
// SolveWith, take a dense Problem, convert it to a Sparse and solve it
// on Revised. The companion package ratlp solves the same problems
// exactly over rationals, mirroring CGAL's exact arithmetic.
package lp

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// Sense selects the optimization direction of a Problem.
type Sense int

const (
	// Maximize maximizes the objective.
	Maximize Sense = iota + 1
	// Minimize minimizes the objective.
	Minimize
)

// String returns "maximize" or "minimize".
func (s Sense) String() string {
	switch s {
	case Maximize:
		return "maximize"
	case Minimize:
		return "minimize"
	default:
		return fmt.Sprintf("Sense(%d)", int(s))
	}
}

// Relation is the comparison operator of a constraint row.
type Relation int

const (
	// LE constrains a·x ≤ b.
	LE Relation = iota + 1
	// EQ constrains a·x = b.
	EQ
	// GE constrains a·x ≥ b.
	GE
)

// String returns the operator symbol.
func (r Relation) String() string {
	switch r {
	case LE:
		return "<="
	case EQ:
		return "="
	case GE:
		return ">="
	default:
		return fmt.Sprintf("Relation(%d)", int(r))
	}
}

// Constraint is a single linear constraint Coeffs·x Rel RHS.
//
// A LE constraint with RHS == +Inf is treated as vacuous and skipped; this
// lets callers express "unbounded bandwidth" (the blackhole path) without
// special-casing.
type Constraint struct {
	Coeffs []float64
	Rel    Relation
	RHS    float64
	// Name optionally labels the constraint for diagnostics.
	Name string
}

// Problem is a linear program over non-negative variables.
//
// All constraints must have len(Coeffs) == NumVars. The zero value is not
// usable; construct with NewProblem.
type Problem struct {
	Sense       Sense
	Objective   []float64
	Constraints []Constraint

	// VarNames optionally labels variables for diagnostics. If non-nil it
	// must have length NumVars.
	VarNames []string
}

// NewProblem returns a Problem with the given sense and objective vector and
// no constraints. The objective slice is copied.
func NewProblem(sense Sense, objective []float64) *Problem {
	obj := make([]float64, len(objective))
	copy(obj, objective)
	return &Problem{Sense: sense, Objective: obj}
}

// NumVars reports the number of decision variables.
func (p *Problem) NumVars() int { return len(p.Objective) }

// AddConstraint appends the constraint coeffs·x rel rhs. The coefficient
// slice is copied.
func (p *Problem) AddConstraint(coeffs []float64, rel Relation, rhs float64) {
	p.AddNamedConstraint("", coeffs, rel, rhs)
}

// AddNamedConstraint appends a labeled constraint. The coefficient slice is
// copied.
func (p *Problem) AddNamedConstraint(name string, coeffs []float64, rel Relation, rhs float64) {
	c := make([]float64, len(coeffs))
	copy(c, coeffs)
	p.Constraints = append(p.Constraints, Constraint{Coeffs: c, Rel: rel, RHS: rhs, Name: name})
}

// validate reports structural problems: dimension mismatches, NaNs, or
// infinities where they are not allowed.
func (p *Problem) validate() error {
	if p.Sense != Maximize && p.Sense != Minimize {
		return fmt.Errorf("lp: invalid sense %d", int(p.Sense))
	}
	if len(p.Objective) == 0 {
		return errors.New("lp: problem has no variables")
	}
	for j, c := range p.Objective {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return fmt.Errorf("lp: objective coefficient %d is %v", j, c)
		}
	}
	if p.VarNames != nil && len(p.VarNames) != len(p.Objective) {
		return fmt.Errorf("lp: %d variable names for %d variables", len(p.VarNames), len(p.Objective))
	}
	for i, con := range p.Constraints {
		if len(con.Coeffs) != len(p.Objective) {
			return fmt.Errorf("lp: constraint %d has %d coefficients, want %d", i, len(con.Coeffs), len(p.Objective))
		}
		for j, a := range con.Coeffs {
			if math.IsNaN(a) || math.IsInf(a, 0) {
				return fmt.Errorf("lp: constraint %d coefficient %d is %v", i, j, a)
			}
		}
		if err := checkRow(i, con.Rel, con.RHS); err != nil {
			return err
		}
	}
	return nil
}

// checkRow rejects an invalid relation, a NaN right-hand side, and an
// infinite one that is not vacuous (≤ +Inf or ≥ −Inf).
func checkRow(i int, rel Relation, rhs float64) error {
	if rel != LE && rel != EQ && rel != GE {
		return fmt.Errorf("lp: constraint %d has invalid relation %d", i, int(rel))
	}
	if math.IsNaN(rhs) {
		return fmt.Errorf("lp: constraint %d RHS is NaN", i)
	}
	if math.IsInf(rhs, 0) && !(rel == LE && rhs > 0) && !(rel == GE && rhs < 0) {
		return fmt.Errorf("lp: constraint %d has non-vacuous infinite RHS", i)
	}
	return nil
}

// Status is the outcome of a solve.
type Status int

const (
	// Optimal means an optimal basic feasible solution was found.
	Optimal Status = iota + 1
	// Infeasible means the constraints admit no solution.
	Infeasible
	// Unbounded means the objective is unbounded over the feasible region.
	Unbounded
)

// String returns the lowercase status name.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Solution is the result of solving a Problem.
type Solution struct {
	Status Status
	// X is the primal solution (valid only when Status == Optimal).
	X []float64
	// Objective is the optimal objective value in the problem's own sense.
	Objective float64
	// Dual holds one multiplier per constraint row, 0 on vacuous rows.
	// When Optimal these are the duals; for a maximization with ≤ rows
	// they are ≥ 0. When Infeasible they are a Farkas certificate y, the
	// Phase I multipliers at its optimum, which do not depend on the
	// objective: y ≥ 0 on ≤ rows and y ≤ 0 on ≥ rows, y·aⱼ ≥ −tol for
	// every column aⱼ and y·b < 0, so no x ≥ 0 meets the rows (it would
	// give 0 ≤ y·Ax ≤ y·b < 0). Nil otherwise.
	Dual []float64
	// Iterations counts simplex pivots across both phases.
	Iterations int

	// Basis is the optimal basis, captured when Options.CaptureBasis or
	// Options.WarmBasis was set (nil otherwise, and on non-Optimal
	// results). Pass it as Options.WarmBasis to warm-start a later solve
	// of a structurally identical problem with drifted coefficients.
	Basis *Basis
	// WarmStarted reports that the solve re-installed Options.WarmBasis
	// (either outright feasible, or repaired by a short Phase I).
	WarmStarted bool
	// PhaseISkipped reports Phase I was skipped entirely: the
	// re-installed basis was primal feasible for the perturbed
	// coefficients. A warm start with WarmStarted set and PhaseISkipped
	// clear was repaired.
	PhaseISkipped bool
}

// Value returns the objective value of x under the problem's objective,
// regardless of feasibility.
func (p *Problem) Value(x []float64) float64 {
	var v float64
	for j, c := range p.Objective {
		v += c * x[j]
	}
	return v
}

// String renders the problem in a compact human-readable form, useful in
// test failures.
func (p *Problem) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %v\n", p.Sense, p.Objective)
	for _, c := range p.Constraints {
		name := c.Name
		if name != "" {
			name += ": "
		}
		fmt.Fprintf(&b, "  %s%v %s %g\n", name, c.Coeffs, c.Rel, c.RHS)
	}
	b.WriteString("  x >= 0")
	return b.String()
}
