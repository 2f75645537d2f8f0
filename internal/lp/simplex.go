package lp

import "math"

// simplexTol is the feasibility and optimality tolerance. Rows and the
// objective are equilibrated at load, so it is relative to their scale.
const simplexTol = 1e-9

// blandAfter is how many consecutive degenerate pivots switch pricing
// from Dantzig's rule to Bland's rule, which cannot cycle.
const blandAfter = 20

// Options tunes the simplex solver. The zero value selects sensible
// defaults.
type Options struct {
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
	// vertex; if it is primal infeasible, each violated basic variable
	// is swapped for a repair column and a short Phase I restores
	// feasibility. A basis that no longer factorizes, a warm attempt
	// that runs past its pivot budget, or an answer that fails the primal
	// audit falls back to the cold two-phase path automatically. The
	// result is identical to a cold solve either way (Solution.WarmStarted
	// and Solution.PhaseISkipped report which path ran). Setting
	// WarmBasis implies CaptureBasis.
	WarmBasis *Basis
	// CaptureBasis snapshots the optimal basis onto Solution.Basis for
	// reuse as a later WarmBasis. Off by default: one-shot solves then
	// skip the (small) snapshot allocations on the hot path.
	CaptureBasis bool
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
