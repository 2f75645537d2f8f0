package core

import (
	"fmt"
	"math"
	"sync"

	"dmc/internal/lp"
)

// DefaultDenseThreshold is the combination count (n+1)^m up to which
// every objective solves by dense enumeration. Larger spaces — which
// dense enumeration could not even materialize past DenseLimit — solve
// by column generation. Dense still wins cold on the smallest shapes;
// past 2,048 combinations column generation won every warm measurement
// and every cold one but wide m = 2 spaces (README, "Scaling").
const DefaultDenseThreshold = 2048

// Solver is a reusable solve context: it owns the Resolve warm state
// (the dense column table; the CG pool, its basic-column stamps and the
// LP basis). Only column generation re-installs a basis: a dense
// re-solve solves its master cold. Everything else a solve needs is its
// workspace: the master, the revised simplex (lp.Revised) that solves
// it, the request's objective with the random objective's pair tables,
// the pricing oracle and the digit buffer. Each solve borrows one from
// a process-wide pool and returns it when the solve ends, so an idle
// Solver — one per served session — holds none of it.
// A Solver is NOT safe for concurrent use: use one per goroutine, or
// the package-level one-shot solves. A fleet of sessions re-solving as
// their estimates drift holds one Solver per session, as serve's
// sessions do.
type Solver struct {
	// work is the workspace borrowed for the solve in progress; nil
	// between solves.
	work *lpWork

	// rs is the persistent incremental re-solve state behind Resolve;
	// SolveQuality and the other one-shot entry points never touch it.
	rs resolveState

	// DenseThreshold overrides the combination count above which every
	// objective dispatches to column generation instead of dense
	// enumeration. Zero selects DefaultDenseThreshold; negative forces
	// column generation for every size; values above DenseLimit are
	// capped there (dense tables beyond it are never materialized).
	DenseThreshold int
}

// NewSolver returns a reusable Solver.
func NewSolver() *Solver { return &Solver{} }

// dispatchFor names the solve core the network's combination count
// selects under the dense threshold — the same rule for every
// objective. It only reads sizes, so it is safe on unvalidated input.
func (s *Solver) dispatchFor(n *Network) Dispatch {
	th := s.DenseThreshold
	if th == 0 {
		th = DefaultDenseThreshold
	}
	if th < 0 {
		return DispatchCG
	}
	if th > DenseLimit {
		th = DenseLimit
	}
	if _, ok := combinationCount(len(n.Paths)+1, n.transmissions(), th); !ok {
		return DispatchCG
	}
	return DispatchDense
}

// lpWork is the workspace of one solve, for either dispatch: the
// master, built in place, the revised simplex that solves it, the
// request's objective (objective builds one of the three), and the
// per-solve scratch — the pricing oracle, the combination digit buffer
// and the pool trim's marks, reduced costs and ranking. Each allocates
// its buffers on first use and grows them to the shape at hand.
type lpWork struct {
	master  cgMaster
	rev     lp.Revised
	quality qualityObjective
	minCost minCostObjective
	rnd     randomObjective
	pr      pricer
	digits  []int
	perm    []int
	rc      []float64
	order   []int
}

// lpPool holds the workspaces every Solver borrows for the length of
// one solve. A workspace carries nothing from one solve to the next —
// each starts with a fresh load, and lp.Revised.Append only continues
// within one column-generation loop — so any workspace serves any
// solve, and the pool keeps about one per concurrently running solve
// instead of one per Solver.
var lpPool = sync.Pool{New: func() any { return new(lpWork) }}

// scratch returns the workspace's digit buffer, sized for m digits.
func (w *lpWork) scratch(m int) []int {
	if cap(w.digits) < m {
		w.digits = make([]int, m)
	}
	return w.digits[:m]
}

// SolveQuality solves the deterministic-delay quality maximization
// (Eq. 10) and returns the optimal sending strategy. The problem is
// always feasible — the blackhole path absorbs any excess traffic — so a
// non-optimal status indicates an internal error.
//
// Dispatch scales with the combination count (n+1)^m: spaces up to the
// dense threshold are enumerated densely, anything larger — including
// counts that would overflow dense enumeration entirely — solves by
// column generation. Both reach the same LP optimum; Solution.Stats
// reports which core ran. This is the cold engine Resolve primes with,
// but the returned Solution owns all of its storage: no later solve on
// the Solver touches it.
func (s *Solver) SolveQuality(n *Network) (*Solution, error) {
	return s.solve(n, resolveReq{obj: objQuality}, nil, false)
}

// SolveMinCost solves the §VI-A variant: minimize the expected total cost
// per second (objective Eq. 21) subject to the bandwidth rows, the
// conservation row, and a minimum communication quality (Eq. 22's
// constraint, implemented as p·x ≥ minQuality; the paper writes the
// negated form — see DESIGN.md erratum #3).
//
// Returns ErrInfeasible wrapped in an error when the requested quality
// is unattainable on the given network.
//
// Dispatch and storage ownership follow SolveQuality. Column generation
// runs the one loop every objective runs: while the restricted master
// misses the floor, its Farkas certificate is priced, which grows the
// pool with the columns that close the gap or certifies ErrInfeasible
// over the whole combination space; from the first feasible master on,
// cost-reduced pricing runs to the certified minimum.
func (s *Solver) SolveMinCost(n *Network, minQuality float64) (*Solution, error) {
	if err := checkFloor(minQuality); err != nil {
		return nil, err
	}
	return s.solve(n, resolveReq{obj: objMinCost, minQuality: minQuality}, nil, false)
}

// checkFloor rejects a min-cost quality floor outside [0,1].
func checkFloor(minQuality float64) error {
	if math.IsNaN(minQuality) || minQuality < 0 || minQuality > 1 {
		return fmt.Errorf("core: min quality %v outside [0,1]", minQuality)
	}
	return nil
}

// bandwidthNames holds the first bandwidth rows' constraint names,
// built once at start-up, so building a master formats no strings for
// them.
var bandwidthNames = func() (names [128]string) {
	for i := range names {
		names[i] = fmt.Sprintf("bandwidth[%d]", i)
	}
	return names
}()

// bandwidthName names path i's bandwidth row.
func bandwidthName(i int) string {
	if i < len(bandwidthNames) {
		return bandwidthNames[i]
	}
	return fmt.Sprintf("bandwidth[%d]", i)
}

// newSolution assembles the public Solution from a solved x′ vector over
// the columns of a master of the given spec, sharing the column tables.
// colIndex maps a combination's packed key to its position in the
// column tables; nil means the columns cover the dense space in
// enumeration order.
func (m *model) newSolution(spec masterSpec, cols *columns, x []float64, quality float64, colIndex map[uint64]int) *Solution {
	return &Solution{
		Network:  m.net,
		X:        x,
		Quality:  clamp01(quality),
		m:        m,
		spec:     spec,
		cols:     *cols,
		colIndex: colIndex,
	}
}
