package core

import (
	"fmt"
)

// SolveMinCost solves the §VI-A variant on a zero Solver: minimize the
// expected total cost per second (objective Eq. 21) subject to the
// bandwidth rows, the conservation row, and a minimum communication
// quality (Eq. 22's constraint, implemented as p·x ≥ minQuality; the
// paper writes the negated form — see DESIGN.md erratum #3).
//
// Returns lp.Infeasible wrapped in an error when the requested quality is
// unattainable on the given network.
func SolveMinCost(n *Network, minQuality float64) (*Solution, error) {
	var s Solver
	return s.SolveMinCost(n, minQuality)
}

// ErrInfeasible marks quality targets that no sending strategy can meet.
var ErrInfeasible = fmt.Errorf("core: infeasible")
