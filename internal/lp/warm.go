package lp

import (
	"math"

	"dmc/internal/fault"
)

// fpWarmInstall fires at the top of installBasis; an injected error
// reports installFailed (cold fallback), an injected panic unwinds
// through Resolve like a real numerical crash would.
var fpWarmInstall = fault.Register("lp.warm.install")

// Basis is the optimal simplex basis of a solved Problem, captured on
// Solution.Basis and reusable as Options.WarmBasis to warm-start a later
// solve of a structurally identical problem whose coefficients drifted.
//
// A basis is compatible with a problem when the kept constraint rows
// match in count, order, and relation, and the structural variable count
// matches; Remap translates a basis across column-set changes (columns
// appended, or a subset re-indexed) so column-generation masters and
// pruned column pools can reuse it too. The zero value is not useful;
// bases come from Solution.Basis.
type Basis struct {
	cols   []int // basic column per kept row, in solver column indexing
	n      int   // structural variable count at capture
	m      int   // kept constraint rows
	nSlack int
	nArt   int
	rel    []Relation // kept-row relations, in row order
}

// NumRows reports the kept constraint row count of the captured basis.
func (b *Basis) NumRows() int { return b.m }

// NumVars reports the structural variable count the basis was captured
// against.
func (b *Basis) NumVars() int { return b.n }

// StructuralCols returns, per kept row, the basic structural column
// index, or -1 where an auxiliary (slack/artificial) column is basic.
func (b *Basis) StructuralCols() []int {
	out := make([]int, len(b.cols))
	for i, c := range b.cols {
		if c < b.n {
			out[i] = c
		} else {
			out[i] = -1
		}
	}
	return out
}

// Remap translates the basis to a problem with newN structural columns.
// perm maps each old structural index to its new index (a negative entry
// means the column no longer exists); a nil perm is the identity, which
// covers the common warm-start cases of an unchanged column set and of
// columns appended at the end. Auxiliary (slack/artificial) columns shift
// with the structural count. Remap returns nil when a basic structural
// column has no image — the caller must then solve cold.
func (b *Basis) Remap(newN int, perm []int) *Basis {
	if b == nil {
		return nil
	}
	shift := newN - b.n
	cols := make([]int, len(b.cols))
	for i, c := range b.cols {
		if c < b.n {
			nc := c
			if perm != nil {
				if c >= len(perm) {
					return nil
				}
				nc = perm[c]
			}
			if nc < 0 || nc >= newN {
				return nil
			}
			cols[i] = nc
		} else {
			cols[i] = c + shift
		}
	}
	return &Basis{cols: cols, n: newN, m: b.m, nSlack: b.nSlack, nArt: b.nArt, rel: b.rel}
}

// captureBasis snapshots the solver's final basis for Solution.Basis.
func (s *Solver) captureBasis() *Basis {
	return &Basis{
		cols:   append([]int(nil), s.basis[:s.m]...),
		n:      s.n,
		m:      s.m,
		nSlack: s.nSlack,
		nArt:   s.nArt,
		rel:    append([]Relation(nil), s.rel[:s.m]...),
	}
}

// basisCompatible reports whether the warm basis matches the loaded
// problem's row structure and column counts exactly.
func (s *Solver) basisCompatible(b *Basis) bool {
	return b.fits(s.m, s.n, s.nSlack, s.nArt, s.rel)
}

// fits reports whether b was captured on a problem with this kept-row
// structure and these column counts.
func (b *Basis) fits(m, n, nSlack, nArt int, rel []Relation) bool {
	if b == nil || b.m != m || b.n != n || b.nSlack != nSlack || b.nArt != nArt {
		return false
	}
	for i := 0; i < m; i++ {
		if b.rel[i] != rel[i] {
			return false
		}
	}
	return true
}

// installPivotTol is the minimum pivot magnitude accepted while
// re-installing a warm basis. Rows are equilibrated to unit scale by
// load, so anything far below 1 signals a (near-)singular basis for the
// perturbed coefficients — and each Gauss–Jordan pivot amplifies
// roundoff by 1/|pivot|, so accepting tiny pivots corrupts the whole
// refactorization (observed as false "infeasible" verdicts on problems
// that are feasible by construction). Refusing early keeps the
// refactorization stable and falls back to the cold two-phase path.
const installPivotTol = 1e-5

// installResult is the outcome of re-installing a warm basis.
type installResult int

const (
	// installFailed: the basis is singular (or otherwise unusable) for
	// the perturbed coefficients. The tableau is dirty; reload and solve
	// cold.
	installFailed installResult = iota
	// installFeasible: the basis is a BFS of the perturbed problem.
	// Phase I can be skipped entirely.
	installFeasible
	// installDual: the basis drifted primal infeasible but stayed dual
	// feasible; dual-simplex pivots restored primal feasibility, so
	// Phase I is skipped and Phase II starts at (usually) the optimum.
	installDual
	// installRepaired: the basis went primal infeasible; the violated
	// rows were flipped onto repair columns, leaving a valid BFS of the
	// Phase I problem a few pivots from feasibility.
	installRepaired
)

// dualPivotTol is the minimum magnitude of a dual-simplex pivot element.
// Smaller entries make 1/|pivot| amplification unacceptable; rather than
// accept them, the repair bails out and the solve falls back cold.
const dualPivotTol = 1e-6

// installBasis re-expresses the freshly loaded tableau in terms of a
// prior basis by one Gauss–Jordan pivot per basic column, choosing the
// largest remaining pivot element per column (partial pivoting).
//
// If the resulting basic solution is primal feasible (and any basic
// artificial sits at zero), Phase I is unnecessary: installFeasible.
// Otherwise the basis is REPAIRED rather than discarded: each violated
// row (negative RHS) is sign-flipped and handed a fresh repair column
// (load reserved one per row) that enters the basis at the violation
// magnitude. That is a valid starting BFS for the standard Phase I
// objective — which already penalizes the repair region — so
// feasibility is restored in roughly one pivot per violated row instead
// of a cold restart from the all-slack basis: installRepaired.
func (s *Solver) installBasis(b *Basis) installResult {
	if fpWarmInstall.Hit() != nil {
		return installFailed
	}
	if cap(s.rowTaken) < s.m {
		s.rowTaken = make([]bool, s.m)
	}
	taken := s.rowTaken[:s.m]
	for i := range taken {
		taken[i] = false
	}

	// pivot leaves a zero reduced-cost row untouched (f == 0), so one
	// clear serves every install pivot.
	dummy := s.work
	clear(dummy)
	for _, col := range b.cols {
		best, bestAbs := -1, installPivotTol
		for i := 0; i < s.m; i++ {
			if taken[i] {
				continue
			}
			if abs := math.Abs(s.a[i*s.total+col]); abs > bestAbs {
				best, bestAbs = i, abs
			}
		}
		if best < 0 {
			return installFailed // singular under the perturbed coefficients
		}
		s.pivot(best, col, dummy)
		s.iters++
		taken[best] = true
	}

	ftol := s.opts.Tol * (1 + norm1(s.b[:s.m]))

	// Classify the re-installed point before mutating anything: rows
	// with negative RHS are primal violations; a basic artificial away
	// from zero means a GE/EQ row the old basis no longer satisfies
	// (its own column already carries +1 there and the Phase I
	// objective already penalizes it, so that row needs no flip — just
	// Phase I).
	violated, artAway := false, false
	for i := 0; i < s.m; i++ {
		if s.b[i] < -ftol {
			violated = true
		} else if s.basis[i] >= s.artCol && s.b[i] > ftol {
			artAway = true
		}
	}
	if !violated && !artAway {
		for i := 0; i < s.m; i++ {
			if s.b[i] < 0 {
				s.b[i] = 0
			}
		}
		return installFeasible
	}

	// Dual-simplex repair: when the drift left the basis dual feasible
	// for the new objective (every phase-2 reduced cost ≤ tol), dual
	// pivots walk back to primal feasibility along optimal bases — far
	// fewer pivots than a Phase I restart, and Phase II then usually
	// terminates immediately. Only attempted when no basic artificial
	// sits away from zero (dual pivots cannot drive those out: the
	// entering-column scan excludes artificials).
	if !artAway {
		z := s.z
		copy(z, s.obj)
		for i, col := range s.basis {
			if z[col] != 0 {
				c := z[col]
				row := s.a[i*s.total : (i+1)*s.total]
				for j := range z {
					z[j] -= c * row[j]
				}
			}
		}
		dualFeasible := true
		for j := 0; j < s.artCol; j++ {
			if z[j] > s.opts.Tol {
				dualFeasible = false
				break
			}
		}
		if dualFeasible {
			if s.dualSimplex(z, ftol) {
				// The pivots fixed every negative RHS, but a basic
				// artificial sitting AT zero before them may have been
				// pushed positive (its row's RHS moves with every
				// pivot) — that is a constraint violation Phase II
				// cannot repair (artificials never re-enter). Accept
				// the repair only if no basic artificial drifted.
				for i := 0; i < s.m; i++ {
					if s.basis[i] >= s.artCol && s.b[i] > ftol {
						return installFailed
					}
				}
				return installDual
			}
			// The tableau is dirty after partial dual pivots; reload
			// and solve cold.
			return installFailed
		}
	}

	repairCol := s.artCol + s.nArt
	for i := 0; i < s.m; i++ {
		if s.b[i] >= -ftol {
			if s.b[i] < 0 {
				s.b[i] = 0
			}
			continue
		}
		// Flip the violated row and make its repair column basic at the
		// violation magnitude: a feasible vertex of the Phase I problem.
		// Negating a tableau row is an elementary row operation — it
		// changes nothing about the problem (and in particular NOT the
		// dual sign bookkeeping in s.flip, which tracks the load-time
		// sign of the ORIGINAL row; the slack column's meaning is
		// untouched by row scaling).
		row := s.a[i*s.total : (i+1)*s.total]
		for j := range row {
			row[j] = -row[j]
		}
		s.b[i] = -s.b[i]
		row[repairCol+i] = 1
		s.basis[i] = repairCol + i
	}
	return installRepaired
}

// dualSimplex restores primal feasibility from a dual-feasible basis:
// while some RHS is negative, the most-violated row leaves and the
// column minimizing |z_j/a_ij| over decisively negative a_ij enters,
// which keeps every reduced cost ≤ 0. Returns false — leaving the
// tableau dirty, so the caller must reload and solve cold — when no
// eligible pivot exists (the problem may be infeasible, but that
// verdict is left to the authoritative cold path) or the iteration cap
// is hit.
func (s *Solver) dualSimplex(z []float64, ftol float64) bool {
	for {
		if s.iters >= s.opts.MaxIter {
			return false
		}
		leave, worst := -1, -ftol
		for i := 0; i < s.m; i++ {
			if s.b[i] < worst {
				leave, worst = i, s.b[i]
			}
		}
		if leave < 0 {
			for i := 0; i < s.m; i++ {
				if s.b[i] < 0 {
					s.b[i] = 0
				}
			}
			return true
		}
		row := s.a[leave*s.total : (leave+1)*s.total]
		enter, best := -1, 0.0
		for j := 0; j < s.artCol; j++ {
			aij := row[j]
			if aij >= -dualPivotTol {
				continue
			}
			// z[j] ≤ tol, aij < 0: ratio ≥ ~0 measures how much dual
			// slack the pivot burns; the minimum keeps z ≤ 0 everywhere.
			ratio := z[j] / aij
			if enter < 0 || ratio < best {
				enter, best = j, ratio
			}
		}
		if enter < 0 {
			return false
		}
		s.pivot(leave, enter, z)
		s.iters++
		s.dualPivots++
	}
}
