package lp

import "math"

// Options tunes the simplex solver. The zero value selects sensible
// defaults; use DefaultOptions to inspect them.
type Options struct {
	// Tol is the feasibility/optimality tolerance. Zero means 1e-9.
	Tol float64
	// MaxIter caps total pivots across both phases. Zero means
	// 200*(rows+cols), which is far beyond what non-degenerate problems
	// need and serves only as a cycling backstop behind Bland's rule.
	MaxIter int
	// BlandAfter switches pivoting from Dantzig's rule to Bland's rule
	// after this many consecutive degenerate pivots. Zero means 20.
	BlandAfter int
	// AssumeValid skips the structural validation pass (dimension and
	// NaN/Inf checks over every coefficient, O(rows·cols) per solve).
	// Only for callers that construct problems programmatically and
	// guarantee well-formedness; a malformed problem then produces
	// undefined results instead of an error.
	AssumeValid bool
	// WarmBasis, when non-nil, warm-starts the solve from a prior
	// optimal basis (Solution.Basis of an earlier solve of a
	// structurally identical problem). If the basis re-installs as a
	// basic feasible solution for the new coefficients, Phase I is
	// skipped entirely and Phase II starts at (usually) a near-optimal
	// vertex; a basis that no longer factorizes or is primal infeasible
	// falls back to the cold two-phase path automatically. The result is
	// identical to a cold solve either way (Solution.WarmStarted reports
	// which path ran). Setting WarmBasis implies CaptureBasis.
	WarmBasis *Basis
	// CaptureBasis snapshots the optimal basis onto Solution.Basis for
	// reuse as a later WarmBasis. Off by default: one-shot solves then
	// skip the (small) snapshot allocations on the hot path.
	CaptureBasis bool
}

// DefaultOptions returns the defaults applied for zero Options fields.
func DefaultOptions() Options {
	return Options{Tol: 1e-9, MaxIter: 0, BlandAfter: 20}
}

func (o Options) withDefaults(rows, cols int) Options {
	if o.Tol <= 0 {
		o.Tol = 1e-9
	}
	if o.BlandAfter <= 0 {
		o.BlandAfter = 20
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 200 * (rows + cols + 1)
	}
	return o
}

// grow resizes a workspace buffer to n entries, reusing capacity.
// Contents are unspecified; callers overwrite every entry they read.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// objectiveScale is the power of two at or just above the objective's
// largest coefficient magnitude (1 for a zero objective). The solver
// divides the objective by it at load, so its optimality tolerance is
// relative to the objective's magnitude — an absolute 1e-9 is below
// float64 resolution on a λ·cost objective near 1e9. A power of two
// keeps the division exact: an objective whose largest magnitude lies
// in [0.5, 1), such as delivery probabilities, is left bit for bit
// unchanged, and scaling an objective by a power of two leaves the
// pivot path unchanged.
func objectiveScale(obj []float64) float64 {
	var m float64
	for _, c := range obj {
		if a := math.Abs(c); a > m {
			m = a
		}
	}
	if m == 0 {
		return 1
	}
	_, e := math.Frexp(m)
	return math.Ldexp(1, e)
}

func norm1(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += math.Abs(x)
	}
	return s
}
