package lp

import "dmc/internal/fault"

// fpWarmInstall fires at the top of Revised.installBasis; an injected
// error fails the install (cold fallback), an injected panic
// unwinds through Resolve like a real numerical crash would.
var fpWarmInstall = fault.Register("lp.warm.install")

// Basis is the optimal simplex basis of a solve, captured on
// Solution.Basis and reusable as Options.WarmBasis to warm-start a later
// solve of a structurally identical problem whose coefficients drifted.
//
// It names one basic column per kept (non-vacuous) row, in a fixed
// column order: the n structural columns first, by index; then one
// slack or surplus column per ≤ or ≥ row, in row order; then one
// artificial column per ≥ or = row, in row order. A row's relation is
// read after a negative right-hand side has been negated, which swaps
// ≤ and ≥.
//
// A basis is compatible with a problem when the kept constraint rows
// match in count, order, and relation, and the structural variable count
// matches; Remap translates a basis across column-set changes (columns
// appended, or a subset re-indexed) so a column-generation master can
// reuse it after columns were priced in or its pool was trimmed. The
// zero value is not useful; bases come from Solution.Basis.
type Basis struct {
	cols   []int // basic column per kept row, in the order above
	n      int   // structural variable count at capture
	m      int   // kept constraint rows
	nSlack int
	nArt   int
	rel    []Relation // kept-row relations, in row order
}

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
// factorizing a warm basis. Rows are equilibrated to unit scale at
// load, so anything far below 1 signals a (near-)singular basis for the
// perturbed coefficients — and each Gauss–Jordan pivot amplifies
// roundoff by 1/|pivot|, so accepting tiny pivots corrupts the whole
// factorization (observed as false "infeasible" verdicts on problems
// that are feasible by construction). Refusing early keeps the
// factorization stable and falls back to the cold two-phase path.
const installPivotTol = 1e-5
