package core

import (
	"fmt"
)

// SolveMinCost solves the §VI-A variant: minimize the expected total
// cost per second (objective Eq. 21) subject to the bandwidth rows, the
// conservation row, and a minimum communication quality (Eq. 22's
// constraint, implemented as p·x ≥ minQuality; the paper writes the
// negated form — see DESIGN.md erratum #3).
//
// Returns an error wrapping ErrInfeasible when the requested quality is
// unattainable on the given network.
//
// Dispatch and storage ownership follow SolveQuality. Column generation
// runs the one loop every objective runs: while the restricted master
// misses the floor, its Farkas certificate is priced, which grows the
// pool with the columns that close the gap or certifies ErrInfeasible
// over the whole combination space; from the first feasible master on,
// cost-reduced pricing runs to the certified minimum.
func SolveMinCost(n *Network, minQuality float64) (*Solution, error) {
	if err := checkFloor(minQuality); err != nil {
		return nil, err
	}
	return solve(n, resolveReq{obj: objMinCost, minQuality: minQuality}, nil, false)
}

// ErrInfeasible marks quality targets that no sending strategy can meet.
var ErrInfeasible = fmt.Errorf("core: infeasible")
