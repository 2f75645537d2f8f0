package lp

import (
	"errors"
	"fmt"
	"math"

	"dmc/internal/fault"
)

// fpAppend fires at the top of Revised.Append; every caller falls back
// to a full SolveWith on error.
var fpAppend = fault.Register("lp.append")

// refactorEvery is how many basis-inverse updates the Revised solver
// chains before it recomputes B⁻¹ from the basis columns, bounding the
// roundoff the updates accumulate.
const refactorEvery = 64

// singularTol is the pivot floor of a periodic refactorization. A basis
// that every pivot kept nonsingular fails it only through roundoff; the
// solver then keeps the updated inverse rather than failing the solve.
const singularTol = 1e-12

// Revised is a reusable bounded revised simplex solver for Sparse
// problems. It keeps an explicit dense m×m basis inverse, updated on
// every pivot and refactorized every refactorEvery pivots, and prices
// the column-sparse problem through the simplex multipliers, so a pivot
// costs O(m² + nonzeros) however many columns the problem holds. Rows
// are equilibrated by their largest coefficient magnitude and the
// objective by the power of two above its own, so every tolerance is
// relative.
//
// It is the package's warm-start engine: a Basis captured by one solve
// (Options.CaptureBasis) warm-starts a later solve of a problem of the
// same shape (Options.WarmBasis), with three outcomes — feasible, so
// Phase I is skipped; repaired by dual-simplex pivots; or primal
// repaired plus a short Phase I — within a pivot budget and with a cold
// fallback. Append re-optimizes after columns were appended to the
// problem of the last solve — the step column generation repeats — at
// the cost of the new columns' nonzeros.
//
// The zero value is ready to use; a Revised must not be used
// concurrently from multiple goroutines.
type Revised struct {
	opts Options
	// p and gen identify the loaded problem; hot marks an optimal basis
	// for it, the state Append continues from.
	p   *Sparse
	gen uint64
	hot bool

	m, n                  int // kept rows, structural columns
	nSlack, nArt, nRepair int
	sign, objScale        float64

	orig  []int      // kept row → original row
	kept  []int      // original row → kept row, −1 for vacuous rows
	rel   []Relation // kept-row relations after sign normalization
	scale []float64  // row equilibration factors
	flip  []float64  // −1 where the row was negated for a negative RHS
	b     []float64  // equilibrated RHS, ≥ 0

	// Equilibrated structural columns, indexed by kept row, and their
	// phase-II costs in maximization form.
	start  []int
	rowIdx []int
	val    []float64
	cost   []float64

	// Auxiliary column k (id ^k) is slack k for k < nSlack, artificial
	// k−nSlack below nSlack+nArt, and repair column k−nSlack−nArt past
	// that. Slacks and artificials are ±e_row; a repair column is the
	// negation of the column repairOf names.
	auxRow   []int
	auxSign  []float64
	repairOf []int

	basis  []int     // column id per basis position: ≥ 0 structural, ^k auxiliary
	basicS []bool    // per structural column
	basicA []bool    // per auxiliary column
	binv   []float64 // B⁻¹, column-major: (B⁻¹)ᵢₖ at binv[k*m+i]
	xB     []float64 // basic values
	cB     []float64 // basic costs in the current phase
	y      []float64 // simplex multipliers cB·B⁻¹
	alpha  []float64 // entering column B⁻¹a_q
	rho    []float64 // a row of B⁻¹
	fac    []float64 // refactorization scratch, 2·m×m
	lhs    []float64 // audit scratch, one per original row
	rowMax []float64

	iters, sinceFactor, degenerate, dualPivots int
}

// NewRevised returns a reusable Revised solver.
func NewRevised() *Revised { return &Revised{} }

// Solve solves p with default options.
func (s *Revised) Solve(p *Sparse) (*Solution, error) { return s.SolveWith(p, Options{}) }

// SolveWith solves p, reusing the solver's workspaces. A WarmBasis that
// fits p starts the solve from it; anything the warm attempt cannot
// finish within its budget, or an answer that fails the primal audit
// against p's raw columns, falls back to a cold solve.
func (s *Revised) SolveWith(p *Sparse, opts Options) (*Solution, error) {
	if !opts.AssumeValid {
		if err := p.validate(); err != nil {
			return nil, err
		}
	}
	s.load(p, opts)
	if opts.WarmBasis != nil && s.basisCompatible(opts.WarmBasis) {
		if sol := s.solveWarm(opts.WarmBasis); sol != nil {
			s.hot = true
			return sol, nil
		}
		s.coldBasis()
	}
	sol, err := s.run(coldStart)
	s.hot = err == nil && sol.Status == Optimal
	return sol, err
}

// Append re-optimizes p after columns were appended to it since this
// solver's last SolveWith or Append of p returned an optimal answer.
// The basis stays optimal for the old columns and primal feasible with
// the new ones at zero, so only Phase II runs, and B⁻¹ is untouched:
// appending k columns costs their nonzeros. Options are those of the
// solve that loaded p.
//
// Append returns an error — the caller then solves p in full — when the
// solver holds no optimal basis for p, p's rows were rebuilt or its
// columns shrank, the re-solve is not optimal, or its answer fails the
// primal audit against p's raw columns.
func (s *Revised) Append(p *Sparse) (*Solution, error) {
	if err := fpAppend.Hit(); err != nil {
		return nil, err
	}
	if !s.hot || p != s.p || p.gen != s.gen {
		return nil, errors.New("lp: Append without an optimal solve of this problem")
	}
	if p.NumVars() < s.n {
		return nil, fmt.Errorf("lp: Append shrank the column set (%d -> %d)", s.n, p.NumVars())
	}
	s.hot = false
	if !s.opts.AssumeValid {
		if err := p.validate(); err != nil {
			return nil, err
		}
	}
	s.addColumns(p, s.n)
	s.iters, s.degenerate, s.dualPivots = 0, 0, 0
	sol, err := s.run(warmFeasible)
	if err != nil {
		return nil, err
	}
	if sol.Status != Optimal {
		// Appending columns cannot make a feasible master infeasible; a
		// non-optimal verdict is left to an authoritative full solve.
		return nil, fmt.Errorf("lp: append re-solve unexpectedly %v", sol.Status)
	}
	if !s.audit(sol.X) {
		return nil, errors.New("lp: append re-solve drifted infeasible")
	}
	s.hot = true
	return sol, nil
}

// load equilibrates p into the solver: vacuous rows dropped, negative
// RHS rows negated so b ≥ 0, each row divided by its largest magnitude
// (RHS included) and the objective by objectiveScale, and the
// all-slack/artificial starting basis installed.
func (s *Revised) load(p *Sparse, opts Options) {
	rows := len(p.rows)
	s.kept = grow(s.kept, rows)
	m, nSlack, nArt := 0, 0, 0
	for i, r := range p.rows {
		if math.IsInf(r.rhs, 0) {
			s.kept[i] = -1
			continue
		}
		s.kept[i] = m
		m++
		rel := normalizedRel(r.rel, r.rhs)
		if rel != EQ {
			nSlack++
		}
		if rel != LE {
			nArt++
		}
	}
	s.m, s.nSlack, s.nArt, s.nRepair = m, nSlack, nArt, 0
	s.opts = opts.withDefaults(m, p.NumVars())
	s.p, s.gen, s.hot = p, p.gen, false

	s.orig = grow(s.orig, m)
	s.rel = grow(s.rel, m)
	s.scale = grow(s.scale, m)
	s.flip = grow(s.flip, m)
	s.b = grow(s.b, m)
	nAux := nSlack + nArt
	s.auxRow = grow(s.auxRow, nAux)
	s.auxSign = grow(s.auxSign, nAux)
	s.repairOf = grow(s.repairOf, m)
	s.basicA = grow(s.basicA, nAux+m)
	s.basis = grow(s.basis, m)
	s.binv = grow(s.binv, m*m)
	s.xB = grow(s.xB, m)
	s.cB = grow(s.cB, m)
	s.y = grow(s.y, m)
	s.alpha = grow(s.alpha, m)
	s.rho = grow(s.rho, m)
	s.fac = grow(s.fac, 2*m*m)
	s.lhs = grow(s.lhs, rows)
	s.rowMax = grow(s.rowMax, rows)

	for i, r := range p.rows {
		k := s.kept[i]
		if k < 0 {
			continue
		}
		s.orig[k] = i
		s.rel[k] = normalizedRel(r.rel, r.rhs)
		s.flip[k] = 1
		if r.rhs < 0 {
			s.flip[k] = -1
		}
		s.scale[k] = math.Abs(r.rhs)
	}
	for e, r := range p.rowIdx {
		if k := s.kept[r]; k >= 0 {
			s.scale[k] = max(s.scale[k], math.Abs(p.val[e]))
		}
	}
	slack, art := 0, nSlack
	for k := 0; k < m; k++ {
		if s.scale[k] == 0 {
			s.scale[k] = 1
		}
		s.b[k] = math.Abs(p.rows[s.orig[k]].rhs) / s.scale[k]
		switch s.rel[k] {
		case LE:
			s.auxRow[slack], s.auxSign[slack] = k, 1
			slack++
		case GE:
			s.auxRow[slack], s.auxSign[slack] = k, -1
			slack++
			s.auxRow[art], s.auxSign[art] = k, 1
			art++
		case EQ:
			s.auxRow[art], s.auxSign[art] = k, 1
			art++
		}
	}

	s.sign = 1
	if p.sense == Minimize {
		s.sign = -1
	}
	s.objScale = objectiveScale(p.obj)
	s.n = 0
	s.start = append(s.start[:0], 0)
	s.rowIdx = s.rowIdx[:0]
	s.val = s.val[:0]
	s.cost = s.cost[:0]
	s.basicS = s.basicS[:0]
	s.addColumns(p, 0)
	s.coldBasis()
}

// normalizedRel is rel after negating a row with a negative RHS.
func normalizedRel(rel Relation, rhs float64) Relation {
	if rhs < 0 {
		switch rel {
		case LE:
			return GE
		case GE:
			return LE
		}
	}
	return rel
}

// addColumns equilibrates p's columns from `from` on into the solver.
func (s *Revised) addColumns(p *Sparse, from int) {
	for j := from; j < p.NumVars(); j++ {
		rows, vals := p.column(j)
		for e, r := range rows {
			if k := s.kept[r]; k >= 0 {
				s.rowIdx = append(s.rowIdx, k)
				s.val = append(s.val, vals[e]*s.flip[k]/s.scale[k])
			}
		}
		s.start = append(s.start, len(s.val))
		s.cost = append(s.cost, s.sign*p.obj[j]/s.objScale)
		s.basicS = append(s.basicS, false)
	}
	s.n = p.NumVars()
}

// coldBasis installs the starting basis — each row's slack (≤ rows) or
// artificial (≥ and = rows), so B = I — and resets the pivot counters.
func (s *Revised) coldBasis() {
	m := s.m
	clear(s.basicS)
	clear(s.basicA)
	s.nRepair = 0
	slack, art := 0, s.nSlack
	for k := 0; k < m; k++ {
		id := art
		if s.rel[k] == LE {
			id = slack
		}
		if s.rel[k] != EQ {
			slack++
		}
		if s.rel[k] != LE {
			art++
		}
		s.basis[k] = ^id
		s.basicA[id] = true
	}
	clear(s.binv)
	for k := 0; k < m; k++ {
		s.binv[k*m+k] = 1
	}
	copy(s.xB, s.b)
	s.iters, s.sinceFactor, s.degenerate, s.dualPivots = 0, 0, 0, 0
}

// isArtificial reports whether column id is an artificial or repair
// column: penalized in Phase I, never entering.
func (s *Revised) isArtificial(id int) bool { return id < 0 && ^id >= s.nSlack }

// phaseCost is column id's objective coefficient in Phase I (−1 on
// artificials) or Phase II.
func (s *Revised) phaseCost(id int, phase1 bool) float64 {
	switch {
	case phase1:
		if s.isArtificial(id) {
			return -1
		}
		return 0
	case id >= 0:
		return s.cost[id]
	default:
		return 0
	}
}

func (s *Revised) setBasic(id int, basic bool) {
	if id >= 0 {
		s.basicS[id] = basic
	} else {
		s.basicA[^id] = basic
	}
}

// dot returns v·a_id over kept rows.
func (s *Revised) dot(id int, v []float64) float64 {
	if id >= 0 {
		var d float64
		for e := s.start[id]; e < s.start[id+1]; e++ {
			d += s.val[e] * v[s.rowIdx[e]]
		}
		return d
	}
	k := ^id
	if k < s.nSlack+s.nArt {
		return s.auxSign[k] * v[s.auxRow[k]]
	}
	return -s.dot(s.repairOf[k-s.nSlack-s.nArt], v)
}

// scatter adds f·a_id into the dense row-space vector out.
func (s *Revised) scatter(id int, f float64, out []float64) {
	if id >= 0 {
		for e := s.start[id]; e < s.start[id+1]; e++ {
			out[s.rowIdx[e]] += f * s.val[e]
		}
		return
	}
	k := ^id
	if k < s.nSlack+s.nArt {
		out[s.auxRow[k]] += f * s.auxSign[k]
		return
	}
	s.scatter(s.repairOf[k-s.nSlack-s.nArt], -f, out)
}

// ftran adds f·B⁻¹a_id into out: one axpy over a column of B⁻¹ per
// nonzero of a_id.
func (s *Revised) ftran(id int, f float64, out []float64) {
	m := s.m
	if id >= 0 {
		for e := s.start[id]; e < s.start[id+1]; e++ {
			r := s.rowIdx[e]
			axpy(f*s.val[e], s.binv[r*m:(r+1)*m], out)
		}
		return
	}
	k := ^id
	if k < s.nSlack+s.nArt {
		r := s.auxRow[k]
		axpy(f*s.auxSign[k], s.binv[r*m:(r+1)*m], out)
		return
	}
	s.ftran(s.repairOf[k-s.nSlack-s.nArt], -f, out)
}

func axpy(f float64, x, y []float64) {
	x = x[:len(y)]
	for i, v := range x {
		y[i] += f * v
	}
}

// factor recomputes B⁻¹ from the basis columns by Gauss–Jordan
// elimination with partial pivoting. Row i of Bᵀ is basis column i, so
// inverting Bᵀ row-major yields B⁻¹ column-major. It reports false —
// leaving B⁻¹ untouched — when a pivot falls to pivTol or below.
func (s *Revised) factor(pivTol float64) bool {
	m := s.m
	a, inv := s.fac[:m*m], s.fac[m*m:2*m*m]
	clear(a)
	clear(inv)
	for i, id := range s.basis {
		s.scatter(id, 1, a[i*m:(i+1)*m])
		inv[i*m+i] = 1
	}
	for c := 0; c < m; c++ {
		p, best := -1, pivTol
		for r := c; r < m; r++ {
			if v := math.Abs(a[r*m+c]); v > best {
				p, best = r, v
			}
		}
		if p < 0 {
			return false
		}
		if p != c {
			pr, cr := a[p*m:(p+1)*m], a[c*m:(c+1)*m]
			for j := c; j < m; j++ {
				pr[j], cr[j] = cr[j], pr[j]
			}
			pi, ci := inv[p*m:(p+1)*m], inv[c*m:(c+1)*m]
			for j := range pi {
				pi[j], ci[j] = ci[j], pi[j]
			}
		}
		rowA, rowI := a[c*m:(c+1)*m], inv[c*m:(c+1)*m]
		d := 1 / rowA[c]
		for j := c; j < m; j++ {
			rowA[j] *= d
		}
		for j := range rowI {
			rowI[j] *= d
		}
		for r := 0; r < m; r++ {
			if r == c {
				continue
			}
			f := a[r*m+c]
			if f == 0 {
				continue
			}
			ra := a[r*m : (r+1)*m]
			for j := c; j < m; j++ {
				ra[j] -= f * rowA[j]
			}
			axpy(-f, rowI, inv[r*m:(r+1)*m])
		}
	}
	copy(s.binv, inv)
	return true
}

// refactor recomputes B⁻¹ and the basic values from scratch.
func (s *Revised) refactor() {
	s.factor(singularTol)
	s.sinceFactor = 0
	s.computeXB()
}

// computeXB sets the basic values to B⁻¹b, clamping roundoff negatives.
func (s *Revised) computeXB() {
	m := s.m
	clear(s.xB)
	for k, bk := range s.b[:m] {
		if bk != 0 {
			axpy(bk, s.binv[k*m:(k+1)*m], s.xB)
		}
	}
	for i, v := range s.xB {
		if v < 0 && v > -s.opts.Tol {
			s.xB[i] = 0
		}
	}
}

// loadCB sets the basic costs for the phase.
func (s *Revised) loadCB(phase1 bool) {
	for i, id := range s.basis {
		s.cB[i] = s.phaseCost(id, phase1)
	}
}

// computeY sets the simplex multipliers y = cB·B⁻¹.
func (s *Revised) computeY() {
	m := s.m
	for k := 0; k < m; k++ {
		col := s.binv[k*m : (k+1)*m]
		var v float64
		for i, c := range s.cB[:m] {
			if c != 0 {
				v += c * col[i]
			}
		}
		s.y[k] = v
	}
}

// pivot replaces basis position r by column enter, whose B⁻¹ column is
// in s.alpha, updating the basic values and B⁻¹ in place.
func (s *Revised) pivot(r, enter int, phase1 bool) {
	m := s.m
	alpha := s.alpha[:m]
	ar := alpha[r]
	theta := s.xB[r] / ar
	for i, a := range alpha {
		if i == r || a == 0 {
			continue
		}
		v := s.xB[i] - theta*a
		if v < 0 && v > -s.opts.Tol {
			v = 0
		}
		s.xB[i] = v
	}
	s.xB[r] = theta
	for k := 0; k < m; k++ {
		col := s.binv[k*m : (k+1)*m]
		t := col[r]
		if t == 0 {
			continue
		}
		t /= ar
		axpy(-t, alpha, col)
		col[r] = t
	}
	s.setBasic(s.basis[r], false)
	s.basis[r] = enter
	s.setBasic(enter, true)
	s.cB[r] = s.phaseCost(enter, phase1)
	s.iters++
	s.sinceFactor++
}

// price returns the entering column: the largest reduced cost above tol
// (Dantzig), or under Bland's rule the first in Basis column order.
// Artificials never enter.
func (s *Revised) price(phase1, bland bool) (int, bool) {
	enter, best, found := 0, s.opts.Tol, false
	y := s.y
	for j := 0; j < s.n; j++ {
		if s.basicS[j] {
			continue
		}
		var d float64
		for e := s.start[j]; e < s.start[j+1]; e++ {
			d -= s.val[e] * y[s.rowIdx[e]]
		}
		if !phase1 {
			d += s.cost[j]
		}
		if d > best {
			if bland {
				return j, true
			}
			enter, best, found = j, d, true
		}
	}
	for k := 0; k < s.nSlack; k++ {
		if s.basicA[k] {
			continue
		}
		if d := -s.auxSign[k] * y[s.auxRow[k]]; d > best {
			if bland {
				return ^k, true
			}
			enter, best, found = ^k, d, true
		}
	}
	return enter, found
}

// order is column id's index in Basis column order — structural
// columns, then slacks, then artificials and repair columns — which
// Bland's rule follows.
func (s *Revised) order(id int) int {
	if id >= 0 {
		return id
	}
	return s.n + ^id
}

// ratioTest picks the leaving position for the entering column in
// s.alpha, breaking near-ties under Bland's rule by the smallest column
// in Basis order, otherwise by an artificial first, then the larger
// pivot element. In Phase II an artificial still basic (at zero, on a
// row that was redundant) blocks at ratio 0 whichever sign its entry
// has, so it leaves rather than moving off zero — columns appended later
// can make its row binding. It returns −1 when the column is unbounded.
func (s *Revised) ratioTest(bland, phase1 bool) (int, float64) {
	tol := s.opts.Tol
	leave, minRatio := -1, 0.0
	for i, a := range s.alpha[:s.m] {
		if !phase1 && a < -tol && s.isArtificial(s.basis[i]) {
			s.xB[i] = 0
			a = -a
		}
		if a <= tol {
			continue
		}
		ratio := s.xB[i] / a
		if leave < 0 || ratio < minRatio-tol ||
			(math.Abs(ratio-minRatio) <= tol && s.betterLeave(i, leave, bland)) {
			leave, minRatio = i, ratio
		}
	}
	return leave, minRatio
}

func (s *Revised) betterLeave(cand, cur int, bland bool) bool {
	if bland {
		return s.order(s.basis[cand]) < s.order(s.basis[cur])
	}
	candArt, curArt := s.isArtificial(s.basis[cand]), s.isArtificial(s.basis[cur])
	if candArt != curArt {
		return candArt
	}
	return s.alpha[cand] > s.alpha[cur]
}

// optimize runs primal simplex pivots until no column prices above tol
// (Optimal) or an entering column has no leaving row (Unbounded).
func (s *Revised) optimize(phase1 bool) (Status, error) {
	s.loadCB(phase1)
	for {
		if s.iters >= s.opts.MaxIter {
			return 0, fmt.Errorf("lp: iteration limit %d exceeded (cycling?)", s.opts.MaxIter)
		}
		if s.sinceFactor >= refactorEvery {
			s.refactor()
		}
		s.computeY()
		bland := s.degenerate >= s.opts.BlandAfter
		enter, ok := s.price(phase1, bland)
		if !ok {
			return Optimal, nil
		}
		clear(s.alpha)
		s.ftran(enter, 1, s.alpha)
		leave, ratio := s.ratioTest(bland, phase1)
		if leave < 0 {
			return Unbounded, nil
		}
		if ratio <= s.opts.Tol {
			s.degenerate++
		} else {
			s.degenerate = 0
		}
		s.pivot(leave, enter, phase1)
	}
}

// start describes how run begins: cold (the slack/artificial basis,
// full Phase I), warm with a feasible re-installed basis (Phase I
// skipped), warm with a basis made feasible again by dual-simplex
// pivots (Phase I skipped), or warm with a repaired basis (a short
// Phase I from the near-feasible point).
type start int

const (
	coldStart start = iota
	warmFeasible
	warmDual
	warmRepaired
)

// run executes the phases from the given start and extracts the
// solution.
func (s *Revised) run(from start) (*Solution, error) {
	tol := s.opts.Tol
	runPhase1 := s.nArt > 0
	switch from {
	case warmFeasible, warmDual:
		runPhase1 = false
	case warmRepaired:
		runPhase1 = true
	}
	if runPhase1 {
		status, err := s.optimize(true)
		if err != nil {
			return nil, err
		}
		if status == Unbounded {
			return nil, fmt.Errorf("lp: internal error: phase 1 unbounded")
		}
		var artSum float64
		for i, id := range s.basis {
			if s.isArtificial(id) {
				artSum += s.xB[i]
			}
		}
		if artSum > tol*(1+norm1(s.b[:s.m])) {
			return &Solution{Status: Infeasible, Iterations: s.iters}, nil
		}
		s.driveOutArtificials()
	}
	status, err := s.optimize(false)
	if err != nil {
		return nil, err
	}
	if status == Unbounded {
		return &Solution{Status: Unbounded, Iterations: s.iters}, nil
	}

	x := make([]float64, s.n)
	for i, id := range s.basis {
		if id >= 0 {
			x[id] = s.xB[i]
		}
	}
	for j := range x {
		if x[j] < 0 && x[j] > -tol {
			x[j] = 0
		}
	}
	// optimize computed y for the final basis before certifying it.
	duals := make([]float64, len(s.p.rows))
	for k := 0; k < s.m; k++ {
		duals[s.orig[k]] = s.sign * s.objScale * s.y[k] * s.flip[k] / s.scale[k]
	}
	var basis *Basis
	if s.opts.CaptureBasis || s.opts.WarmBasis != nil {
		basis = s.captureBasis()
	}
	return &Solution{
		Status:        Optimal,
		X:             x,
		Objective:     s.p.value(x),
		Dual:          duals,
		Iterations:    s.iters,
		Basis:         basis,
		WarmStarted:   from != coldStart,
		PhaseISkipped: from == warmFeasible || from == warmDual,
		DualPivots:    s.dualPivots,
	}, nil
}

// driveOutArtificials pivots each basic artificial (at zero after a
// feasible Phase I) out against the non-artificial column with the
// largest entry in its row of B⁻¹A; a row with none is redundant and
// keeps its artificial basic at zero.
func (s *Revised) driveOutArtificials() {
	m := s.m
	for i := 0; i < m; i++ {
		if !s.isArtificial(s.basis[i]) {
			continue
		}
		for k := 0; k < m; k++ {
			s.rho[k] = s.binv[k*m+i]
		}
		enter, best := 0, s.opts.Tol
		found := false
		for j := 0; j < s.n; j++ {
			if !s.basicS[j] {
				if v := math.Abs(s.dot(j, s.rho)); v > best {
					enter, best, found = j, v, true
				}
			}
		}
		for k := 0; k < s.nSlack; k++ {
			if !s.basicA[k] {
				if v := math.Abs(s.rho[s.auxRow[k]]); v > best {
					enter, best, found = ^k, v, true
				}
			}
		}
		if !found {
			continue
		}
		clear(s.alpha)
		s.ftran(enter, 1, s.alpha)
		s.xB[i] = 0
		s.pivot(i, enter, true)
	}
}

// audit checks x against p's raw columns at 1e2·Tol under Verify's
// row-scaled rule.
func (s *Revised) audit(x []float64) bool {
	return s.p.feasible(x, s.lhs, s.rowMax, 1e2*s.opts.Tol)
}

// captureBasis snapshots the basis in Basis column order.
func (s *Revised) captureBasis() *Basis {
	cols := make([]int, s.m)
	for i, id := range s.basis {
		cols[i] = s.order(id)
	}
	return &Basis{
		cols:   cols,
		n:      s.n,
		m:      s.m,
		nSlack: s.nSlack,
		nArt:   s.nArt,
		rel:    append([]Relation(nil), s.rel[:s.m]...),
	}
}

// basisCompatible reports whether b matches the loaded problem's row
// structure and column counts.
func (s *Revised) basisCompatible(b *Basis) bool {
	return b.fits(s.m, s.n, s.nSlack, s.nArt, s.rel)
}

// warmPivotsPerRow bounds a warm attempt at this many pivots per kept
// row (plus one), counting the basis install, dual-simplex repair and
// both phases. The most a successful warm attempt was measured to take
// is under 6 per row (239 pivots at 42 rows across five seeds of 40×4
// column-generation fleet replays), so 32 leaves over 5× headroom. An
// attempt past it has stalled, and the cold path takes over.
const warmPivotsPerRow = 32

// solveWarm solves from basis b within the warm pivot budget, returning
// nil — the caller solves cold — when the install fails, the budget
// runs out, the outcome is not Optimal, or the answer fails the audit.
func (s *Revised) solveWarm(b *Basis) *Solution {
	limit := s.opts.MaxIter
	s.opts.MaxIter = min(limit, warmPivotsPerRow*(s.m+1))
	var sol *Solution
	switch s.installBasis(b) {
	case installFeasible:
		sol, _ = s.run(warmFeasible)
	case installDual:
		sol, _ = s.run(warmDual)
	case installRepaired:
		sol, _ = s.run(warmRepaired)
	}
	s.opts.MaxIter = limit
	if sol == nil || sol.Status != Optimal || !s.audit(sol.X) {
		return nil
	}
	return sol
}

// installBasis factorizes the captured basis b and classifies it:
// feasible (Phase I skipped), dual feasible and repaired by dual-simplex
// pivots, or primal repaired — each violated basic variable swapped for
// a repair column −a_old, which enters at the violation's magnitude
// (negating its row of B⁻¹ and of x_B), for a short Phase I.
func (s *Revised) installBasis(b *Basis) installResult {
	if fpWarmInstall.Hit() != nil {
		return installFailed
	}
	clear(s.basicS)
	clear(s.basicA)
	for i, c := range b.cols {
		id := c
		if c >= s.n {
			k := c - s.n
			if k >= s.nSlack+s.nArt {
				return installFailed
			}
			id = ^k
		}
		if id >= 0 && s.basicS[id] || id < 0 && s.basicA[^id] {
			return installFailed
		}
		s.basis[i] = id
		s.setBasic(id, true)
	}
	if !s.factor(installPivotTol) {
		return installFailed
	}
	s.computeXB()

	ftol := s.opts.Tol * (1 + norm1(s.b[:s.m]))
	violated, artAway := false, false
	for i, v := range s.xB[:s.m] {
		if v < -ftol {
			violated = true
		} else if s.isArtificial(s.basis[i]) && v > ftol {
			artAway = true
		}
	}
	if !violated && !artAway {
		s.clampXB()
		return installFeasible
	}

	if !artAway {
		s.loadCB(false)
		s.computeY()
		if s.dualFeasible() {
			if !s.dualSimplex(ftol) {
				return installFailed
			}
			for i, id := range s.basis {
				if s.isArtificial(id) && s.xB[i] > ftol {
					return installFailed
				}
			}
			return installDual
		}
	}

	m := s.m
	for i := 0; i < m; i++ {
		if s.xB[i] >= -ftol {
			s.xB[i] = max(s.xB[i], 0)
			continue
		}
		r := s.nRepair
		s.nRepair++
		s.repairOf[r] = s.basis[i]
		s.setBasic(s.basis[i], false)
		s.basis[i] = ^(s.nSlack + s.nArt + r)
		s.setBasic(s.basis[i], true)
		for k := 0; k < m; k++ {
			s.binv[k*m+i] = -s.binv[k*m+i]
		}
		s.xB[i] = -s.xB[i]
	}
	return installRepaired
}

func (s *Revised) clampXB() {
	for i, v := range s.xB[:s.m] {
		s.xB[i] = max(v, 0)
	}
}

// dualFeasible reports whether every non-artificial column prices at or
// below tol under the current multipliers.
func (s *Revised) dualFeasible() bool {
	for j := 0; j < s.n; j++ {
		if !s.basicS[j] && s.cost[j]-s.dot(j, s.y) > s.opts.Tol {
			return false
		}
	}
	for k := 0; k < s.nSlack; k++ {
		if !s.basicA[k] && -s.auxSign[k]*s.y[s.auxRow[k]] > s.opts.Tol {
			return false
		}
	}
	return true
}

// dualSimplex restores primal feasibility from a dual-feasible basis:
// the most violated basic variable leaves, and the column with the
// smallest reduced-cost ratio over decisively negative entries of its
// row of B⁻¹A enters. It returns false when no pivot qualifies or the
// budget runs out.
func (s *Revised) dualSimplex(ftol float64) bool {
	m := s.m
	for {
		if s.iters >= s.opts.MaxIter {
			return false
		}
		if s.sinceFactor >= refactorEvery {
			s.refactor()
		}
		leave, worst := -1, -ftol
		for i, v := range s.xB[:m] {
			if v < worst {
				leave, worst = i, v
			}
		}
		if leave < 0 {
			s.clampXB()
			return true
		}
		s.computeY()
		for k := 0; k < m; k++ {
			s.rho[k] = s.binv[k*m+leave]
		}
		enter, best, found := 0, 0.0, false
		consider := func(id int, a, d float64) {
			if a >= -dualPivotTol {
				return
			}
			if ratio := d / a; !found || ratio < best {
				enter, best, found = id, ratio, true
			}
		}
		for j := 0; j < s.n; j++ {
			if !s.basicS[j] {
				consider(j, s.dot(j, s.rho), s.cost[j]-s.dot(j, s.y))
			}
		}
		for k := 0; k < s.nSlack; k++ {
			if !s.basicA[k] {
				r := s.auxRow[k]
				consider(^k, s.auxSign[k]*s.rho[r], -s.auxSign[k]*s.y[r])
			}
		}
		if !found {
			return false
		}
		clear(s.alpha)
		s.ftran(enter, 1, s.alpha)
		s.pivot(leave, enter, false)
		s.dualPivots++
	}
}
