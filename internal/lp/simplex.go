package lp

import (
	"fmt"
	"math"
	"sync"
)

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

// solverPool backs the package-level Solve/SolveWith wrappers so that
// one-shot callers still reuse tableau memory across solves.
var solverPool = sync.Pool{New: func() any { return NewSolver() }}

// Solve solves the problem with default options, drawing a reusable
// Solver from an internal pool.
func Solve(p *Problem) (*Solution, error) { return SolveWith(p, Options{}) }

// SolveWith solves the problem with explicit options, drawing a reusable
// Solver from an internal pool.
func SolveWith(p *Problem, opts Options) (*Solution, error) {
	s := solverPool.Get().(*Solver)
	sol, err := s.SolveWith(p, opts)
	solverPool.Put(s)
	return sol, err
}

// Solver is a reusable two-phase dense simplex solver. It owns the
// tableau, basis, and reduced-cost workspaces and reuses them across
// solves, so repeated solves of same-shaped problems allocate only the
// returned Solution. The zero value is ready to use; a Solver must not
// be used concurrently from multiple goroutines (use one per worker, or
// the pooled package-level Solve).
//
// The algorithm is a textbook two-phase dense tableau simplex: phase 1
// minimizes the sum of artificial variables to find a basic feasible
// solution (detecting infeasibility), phase 2 optimizes the real
// objective (detecting unboundedness). Dantzig pricing is used until
// degeneracy is detected, then Bland's rule guarantees termination. The
// tableau is stored flat in row-major order so pivot loops run over
// contiguous memory.
type Solver struct {
	opts Options

	m, n    int // constraint rows (kept), structural variables
	nSlack  int
	nArt    int
	nRepair int // warm-start repair columns (0 on cold solves)
	total   int // columns: n + nSlack + nArt + nRepair
	artCol  int // first artificial column (repair columns live past nArt)
	sign    float64

	a     []float64 // m × total, flat row-major
	b     []float64 // RHS, kept ≥ 0
	scale []float64 // row equilibration factors
	flip  []float64 // -1 where the row was sign-flipped for negative RHS
	rel   []Relation
	orig  []int // kept row → original constraint index
	basis []int // basis[i] = column basic in row i
	// unit[i] is the auxiliary column that entered the tableau as +eᵢ
	// (the slack of a ≤ row, the artificial of a ≥/= row). Its current
	// values are therefore the i-th column of the accumulated row
	// transform — the implicit B⁻¹ the incremental column append
	// (AppendSolve) multiplies new raw columns by.
	unit []int

	obj  []float64 // phase-2 objective over all columns (maximization form)
	z    []float64 // reduced-cost row workspace
	work []float64 // phase-1 objective / scratch reduced-cost row

	rowTaken []bool // warm-start refactorization scratch

	iters      int
	degenerate int // consecutive degenerate pivots
	dualPivots int // dual-simplex repair pivots this solve

	// hot marks the tableau as holding an optimal basis for the problem
	// of the last SolveWith/AppendSolve on this Solver — the state
	// AppendSolve continues from. Any load (and any non-optimal outcome)
	// clears it.
	hot bool
}

// NewSolver returns a reusable Solver with default options.
func NewSolver() *Solver { return &Solver{} }

// grow resizes a workspace buffer to n entries, reusing capacity.
// Contents are unspecified; callers overwrite every entry they read.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// Solve solves the problem with the solver's default options.
func (s *Solver) Solve(p *Problem) (*Solution, error) { return s.SolveWith(p, Options{}) }

// SolveWith solves the problem, reusing the solver's workspaces.
func (s *Solver) SolveWith(p *Problem, opts Options) (*Solution, error) {
	if !opts.AssumeValid {
		if err := p.validate(); err != nil {
			return nil, err
		}
	}
	s.load(p, opts)
	if opts.WarmBasis != nil && s.basisCompatible(opts.WarmBasis) {
		if sol := s.solveWarm(p, opts.WarmBasis); sol != nil {
			return sol, nil
		}
		// A warm start must never change the outcome: a non-Optimal
		// status, an error such as the pivot budget, or an answer the
		// raw problem rejects off a re-installed basis is either a
		// genuine property of the problem (the cold path will reproduce
		// it) or numerical corruption from a marginal refactorization.
		// Either way — including a failed install, which leaves the
		// tableau dirty — rebuild and solve cold. A reload is one
		// O(rows·cols) copy pass, far cheaper than the Phase I it
		// precedes.
		s.load(p, opts)
	}
	return s.run(p, coldStart)
}

// warmPivotsPerRow bounds a warm attempt at this many pivots per kept
// row (plus one), counting the basis install, dual-simplex repair and
// both phases. The most a successful warm attempt was measured to take
// is about 9 per row (428 pivots at 46 rows on a 2,025-column
// random-delay master; 239 at 42 rows across five seeds of 40×4
// column-generation fleet replays), so 32 leaves over 3× headroom. An
// attempt past it has stalled — one drifted random-delay master spent
// the whole 200·(rows+cols+1) cold budget, 414,400 pivots, before a
// 2.6 ms cold solve — and the cold path takes over.
const warmPivotsPerRow = 32

// solveWarm re-installs the basis on the loaded tableau and solves from
// it within the warm pivot budget. It returns nil — the caller reloads
// and solves cold — when the install fails, the budget runs out, the
// outcome is not Optimal, or the answer fails a feasibility audit
// against p's raw data (as AppendSolve's does: a re-installed basis can
// claim optimality for a point the raw problem rejects).
func (s *Solver) solveWarm(p *Problem, b *Basis) *Solution {
	limit := s.opts.MaxIter
	s.opts.MaxIter = min(limit, warmPivotsPerRow*(s.m+1))
	var sol *Solution
	switch s.installBasis(b) {
	case installFeasible:
		sol, _ = s.run(p, warmFeasible)
	case installDual:
		sol, _ = s.run(p, warmDual)
	case installRepaired:
		sol, _ = s.run(p, warmRepaired)
	}
	// Later AppendSolve calls continue under the options' full limit.
	s.opts.MaxIter = limit
	if sol == nil || sol.Status != Optimal || !Feasible(p, sol.X, 1e2*s.opts.Tol) {
		return nil
	}
	return sol
}

// start describes how run begins: cold (all-slack basis, full Phase I),
// warm with a feasible re-installed basis (Phase I skipped), warm with a
// basis made feasible again by dual-simplex pivots (Phase I skipped),
// or warm with a repaired basis (short Phase I from the near-feasible
// point).
type start int

const (
	coldStart start = iota
	warmFeasible
	warmDual
	warmRepaired
)

// load normalizes the problem into the solver's flat tableau: vacuous
// rows (≤ +Inf) dropped, negative RHS sign-flipped so b ≥ 0, rows
// equilibrated by their largest coefficient magnitude, slack/surplus and
// artificial columns appended, and the initial basis chosen.
func (s *Solver) load(p *Problem, opts Options) {
	n := p.NumVars()

	// First pass: count kept rows and auxiliary columns.
	m, nSlack, nArt := 0, 0, 0
	for _, c := range p.Constraints {
		if math.IsInf(c.RHS, 0) {
			continue
		}
		m++
		rel := c.Rel
		if c.RHS < 0 {
			switch rel {
			case LE:
				rel = GE
			case GE:
				rel = LE
			}
		}
		if rel == LE || rel == GE {
			nSlack++
		}
		if rel != LE {
			nArt++
		}
	}

	s.m, s.n, s.nSlack, s.nArt = m, n, nSlack, nArt
	// A warm-start attempt reserves one repair column per row: when the
	// re-installed basis is primal infeasible, violated rows are flipped
	// onto these artificial-like columns and a short Phase I repairs the
	// basis instead of restarting from the all-slack basis. They sit past
	// the regular artificials, so the existing Phase I objective,
	// drive-out, and Phase II entering-column exclusion cover them with
	// no further changes.
	s.nRepair = 0
	if opts.WarmBasis != nil {
		s.nRepair = m
	}
	s.total = n + nSlack + nArt + s.nRepair
	s.artCol = n + nSlack
	s.opts = opts.withDefaults(m, n)
	s.iters, s.degenerate, s.dualPivots = 0, 0, 0
	s.hot = false

	s.a = grow(s.a, m*s.total)
	s.b = grow(s.b, m)
	s.scale = grow(s.scale, m)
	s.flip = grow(s.flip, m)
	s.rel = grow(s.rel, m)
	s.orig = grow(s.orig, m)
	s.basis = grow(s.basis, m)
	s.obj = grow(s.obj, s.total)
	s.z = grow(s.z, s.total)
	s.work = grow(s.work, s.total)
	s.unit = grow(s.unit, m)

	// Second pass: fill rows.
	slack, art := n, s.artCol
	i := 0
	for ci, c := range p.Constraints {
		if math.IsInf(c.RHS, 0) {
			continue
		}
		row := s.a[i*s.total : (i+1)*s.total]
		clear(row[n:]) // structural columns are overwritten below
		flip := 1.0
		rhs := c.RHS
		rel := c.Rel
		if rhs < 0 {
			flip = -1
			rhs = -rhs
			switch rel {
			case LE:
				rel = GE
			case GE:
				rel = LE
			}
		}
		// Row equilibration: divide each row by its largest coefficient
		// magnitude so rows in wildly different units (bits/s bandwidth
		// next to unit-scale probabilities) carry comparable weight in
		// the feasibility test and pivoting.
		sc := math.Abs(rhs)
		for _, a := range c.Coeffs {
			if abs := math.Abs(a); abs > sc {
				sc = abs
			}
		}
		if sc == 0 {
			sc = 1
		}
		inv := flip / sc
		for j, a := range c.Coeffs {
			row[j] = a * inv
		}
		s.b[i] = rhs / sc
		s.scale[i] = sc
		s.flip[i] = flip
		s.rel[i] = rel
		s.orig[i] = ci
		switch rel {
		case LE:
			row[slack] = 1
			s.basis[i] = slack
			s.unit[i] = slack
			slack++
		case GE:
			row[slack] = -1
			slack++
			row[art] = 1
			s.basis[i] = art
			s.unit[i] = art
			art++
		case EQ:
			row[art] = 1
			s.basis[i] = art
			s.unit[i] = art
			art++
		}
		i++
	}

	s.sign = 1
	if p.Sense == Minimize {
		s.sign = -1
	}
	clear(s.obj)
	for j := 0; j < n; j++ {
		s.obj[j] = s.sign * p.Objective[j]
	}
}

// run executes both phases and extracts the solution. A warmFeasible
// start skips Phase I (the re-installed basis is already a BFS); a
// warmDual start skips it too (dual-simplex pivots already restored
// primal feasibility); a warmRepaired start runs Phase I, but from the
// repaired basis — a few pivots to clear the violated rows instead of a
// cold restart.
func (s *Solver) run(p *Problem, from start) (*Solution, error) {
	tol := s.opts.Tol

	runPhase1 := s.nArt > 0
	switch from {
	case warmFeasible, warmDual:
		runPhase1 = false
	case warmRepaired:
		runPhase1 = true
	}
	if runPhase1 {
		// Phase 1: maximize -(sum of artificials).
		phase1 := s.work
		clear(phase1)
		for j := s.artCol; j < s.total; j++ {
			phase1[j] = -1
		}
		status, err := s.optimize(phase1, true)
		if err != nil {
			return nil, err
		}
		if status == Unbounded {
			// Cannot happen: phase-1 objective is bounded above by 0.
			return nil, fmt.Errorf("lp: internal error: phase 1 unbounded")
		}
		var artSum float64
		for i, col := range s.basis {
			if col >= s.artCol {
				artSum += s.b[i]
			}
		}
		if artSum > tol*(1+norm1(s.b[:s.m])) {
			return &Solution{Status: Infeasible, Iterations: s.iters}, nil
		}
		s.driveOutArtificials()
	}

	status, err := s.optimize(s.obj, false)
	if err != nil {
		return nil, err
	}
	if status == Unbounded {
		return &Solution{Status: Unbounded, Iterations: s.iters}, nil
	}

	x := make([]float64, s.n)
	for i, col := range s.basis {
		if col < s.n {
			x[col] = s.b[i]
		}
	}
	// Clamp tiny negatives introduced by roundoff.
	for j := range x {
		if x[j] < 0 && x[j] > -tol {
			x[j] = 0
		}
	}

	var basis *Basis
	if s.opts.CaptureBasis || s.opts.WarmBasis != nil {
		basis = s.captureBasis()
	}
	s.hot = true
	return &Solution{
		Status:        Optimal,
		X:             x,
		Objective:     p.Value(x),
		Dual:          s.extractDuals(p),
		Iterations:    s.iters,
		Basis:         basis,
		WarmStarted:   from != coldStart,
		PhaseISkipped: from == warmFeasible || from == warmDual,
		DualPivots:    s.dualPivots,
	}, nil
}

// optimize runs simplex pivots until the reduced costs certify optimality
// for the given maximization objective, or unboundedness is detected.
// phase1 restricts leaving-variable preference to kick artificials out.
func (s *Solver) optimize(obj []float64, phase1 bool) (Status, error) {
	tol := s.opts.Tol
	// z holds the current reduced-cost row: obj - cB·B⁻¹A, maintained by
	// eliminating basic columns.
	z := s.z
	copy(z, obj)
	for i, col := range s.basis {
		if z[col] != 0 {
			c := z[col]
			row := s.a[i*s.total : (i+1)*s.total]
			for j := range z {
				z[j] -= c * row[j]
			}
		}
	}

	limit := s.total
	if !phase1 {
		// Never let artificials re-enter in phase 2.
		limit = s.artCol
	}

	for {
		if s.iters >= s.opts.MaxIter {
			return 0, fmt.Errorf("lp: iteration limit %d exceeded (cycling?)", s.opts.MaxIter)
		}

		useBland := s.degenerate >= s.opts.BlandAfter
		enter := -1
		if useBland {
			for j := 0; j < limit; j++ {
				if z[j] > tol {
					enter = j
					break
				}
			}
		} else {
			best := tol
			for j, zj := range z[:limit] {
				if zj > best {
					best = zj
					enter = j
				}
			}
		}
		if enter < 0 {
			return Optimal, nil
		}

		// Ratio test.
		leave := -1
		var minRatio float64
		for i := 0; i < s.m; i++ {
			aij := s.a[i*s.total+enter]
			if aij <= tol {
				continue
			}
			ratio := s.b[i] / aij
			if leave < 0 || ratio < minRatio-tol ||
				(math.Abs(ratio-minRatio) <= tol && s.betterLeave(i, leave, useBland)) {
				leave = i
				minRatio = ratio
			}
		}
		if leave < 0 {
			return Unbounded, nil
		}
		if minRatio <= tol {
			s.degenerate++
		} else {
			s.degenerate = 0
		}

		s.pivot(leave, enter, z)
		s.iters++
	}
}

// betterLeave breaks ratio-test ties. Under Bland's rule the smaller basis
// column wins (required for the anti-cycling guarantee); otherwise prefer
// kicking out artificial columns, then the larger pivot element for
// numerical stability.
func (s *Solver) betterLeave(cand, cur int, bland bool) bool {
	if bland {
		return s.basis[cand] < s.basis[cur]
	}
	candArt := s.basis[cand] >= s.artCol
	curArt := s.basis[cur] >= s.artCol
	if candArt != curArt {
		return candArt
	}
	return false
}

// pivot performs a Gauss–Jordan pivot on (leave, enter) and updates the
// reduced-cost row z in place.
func (s *Solver) pivot(leave, enter int, z []float64) {
	prow := s.a[leave*s.total : (leave+1)*s.total]
	pv := prow[enter]
	inv := 1 / pv
	for j := range prow {
		prow[j] *= inv
	}
	s.b[leave] *= inv
	prow[enter] = 1 // exact

	for i := 0; i < s.m; i++ {
		if i == leave {
			continue
		}
		row := s.a[i*s.total : (i+1)*s.total]
		f := row[enter]
		if f == 0 {
			continue
		}
		for j, pj := range prow {
			row[j] -= f * pj
		}
		row[enter] = 0 // exact
		s.b[i] -= f * s.b[leave]
		if s.b[i] < 0 && s.b[i] > -s.opts.Tol {
			s.b[i] = 0
		}
	}
	f := z[enter]
	if f != 0 {
		for j, pj := range prow {
			z[j] -= f * pj
		}
		z[enter] = 0
	}
	s.basis[leave] = enter
}

// driveOutArtificials pivots basic artificial variables (necessarily at
// value 0 after a feasible phase 1) out of the basis where a non-artificial
// column with a nonzero entry exists; rows with no such column are
// redundant and are left with the artificial basic at zero, pinned by
// excluding artificials from phase-2 entering columns.
func (s *Solver) driveOutArtificials() {
	for i := 0; i < s.m; i++ {
		if s.basis[i] < s.artCol {
			continue
		}
		enter := -1
		row := s.a[i*s.total : (i+1)*s.total]
		for j := 0; j < s.artCol; j++ {
			if math.Abs(row[j]) > s.opts.Tol {
				enter = j
				break
			}
		}
		if enter < 0 {
			continue
		}
		dummy := s.work
		clear(dummy)
		s.pivot(i, enter, dummy)
		s.iters++
	}
}

// extractDuals recovers constraint multipliers from the final reduced
// costs. For row i with slack column s(i): y_i = sign * (c_s - z_s) where
// c_s = 0, i.e. y_i = -sign*z_s for the phase-2 objective; for equality
// rows (no slack) the dual comes from the artificial column. Duals are
// reported in the problem's original sense and original constraint
// indexing (vacuous rows get 0). s.z still holds the phase-2 reduced
// costs at termination (optimize maintains it through every pivot and
// nothing pivots afterwards), so no re-elimination pass is needed.
func (s *Solver) extractDuals(p *Problem) []float64 {
	z := s.z
	// Attribute auxiliary columns to original rows by replaying the column
	// assignment order of load; negative-RHS sign flips are undone via the
	// per-row flip factor, and row equilibration via scale.
	duals := make([]float64, len(p.Constraints))
	slack, art := s.n, s.artCol
	for i := 0; i < s.m; i++ {
		var y float64
		switch s.rel[i] {
		case LE:
			y = -s.sign * z[slack] * s.flip[i] / s.scale[i]
			slack++
		case GE:
			y = s.sign * z[slack] * s.flip[i] / s.scale[i]
			slack++
			art++
		case EQ:
			y = -s.sign * z[art] * s.flip[i] / s.scale[i]
			art++
		}
		duals[s.orig[i]] = y
	}
	return duals
}

func norm1(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += math.Abs(x)
	}
	return s
}
