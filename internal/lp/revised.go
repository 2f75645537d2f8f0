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

// Partial pricing: from partialFrom structural columns on, Dantzig
// pricing scans a window of priceWindow columns, starting where the last
// window ended, plus the slacks, and picks the best candidate among them;
// only a window with none passes on to the next. Pricing therefore
// reports optimality only after a full pass without a candidate. Smaller
// problems, and Bland's rule, scan every column. Every load starts the
// window at column 0, so a reused solver prices a problem exactly as a
// fresh one does. It takes more pivots but fewer priced columns: on the
// dense 10×3 master (1,331 columns) about twice the pivots in half the
// time; from 81 to 121 columns the two came out even, and below that
// the window would cover most of the problem anyway.
const (
	partialFrom = 64
	priceWindow = 32
)

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
// relative. The solver reads the problem's columns in place: the row
// equilibration is folded into the multipliers it prices with, so a
// load copies no column.
//
// It is the package's one simplex engine; Solver runs dense Problems on
// it. A Basis captured by one solve (Options.CaptureBasis) warm-starts a
// later solve of a problem of the same shape (Options.WarmBasis), with
// three outcomes — feasible, so Phase I is skipped; repaired, each
// violated basic variable swapped for a repair column ahead of a short
// Phase I; or a cold solve, when the basis no longer factorizes, the
// warm attempt overruns its pivot budget or its answer fails the primal
// audit. Append re-optimizes after columns were appended to the problem
// of the last solve — the step column generation repeats — at the cost
// of the new columns' nonzeros, from an optimal basis or from an
// infeasible solve's Phase I optimum, whose multipliers are the Farkas
// certificate an Infeasible Solution carries in Dual.
//
// The zero value is ready to use; a Revised must not be used
// concurrently from multiple goroutines.
type Revised struct {
	opts Options
	// p and gen identify the loaded problem; resume is how Append
	// continues from the basis the last solve of it ended at: Phase II
	// from an optimal basis (warmFeasible), Phase I from an infeasible
	// one's (warmRepaired), or not at all (coldStart).
	p      *Sparse
	gen    uint64
	resume start

	m, n                  int // kept rows, structural columns
	nSlack, nArt, nRepair int
	sign, objScale        float64
	// costMul is sign/objScale: structural column j's phase-II cost in
	// maximization form is costMul·p.obj[j].
	costMul float64

	orig  []int      // kept row → original row
	kept  []int      // original row → kept row, −1 for vacuous rows
	rmul  []float64  // original row → flip/scale, 0 for vacuous rows
	rel   []Relation // kept-row relations after sign normalization
	scale []float64  // row equilibration factors
	flip  []float64  // −1 where the row was negated for a negative RHS
	b     []float64  // equilibrated RHS, ≥ 0

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
	yt     []float64 // y folded onto original rows: y[kept[r]]·rmul[r]
	alpha  []float64 // entering column B⁻¹a_q
	rho    []float64 // a row of B⁻¹
	fac    []float64 // refactorization scratch, 2·m×m
	lhs    []float64 // audit scratch, one per original row
	rowMax []float64

	// next is where the next partial-pricing window starts.
	next int

	iters, sinceFactor, degenerate int
	// maxIter caps the solve's pivots across both phases at
	// 200·(rows+cols+1), far beyond what non-degenerate problems need: a
	// cycling backstop behind Bland's rule. solveWarm lowers it to the
	// warm budget for the warm attempt.
	maxIter int
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
	if opts.WarmBasis != nil && opts.WarmBasis.fits(s.m, s.n, s.nSlack, s.nArt, s.rel) {
		if sol := s.solveWarm(opts.WarmBasis); sol != nil {
			s.resume = warmFeasible
			return sol, nil
		}
		s.coldBasis()
	}
	sol, err := s.run(coldStart)
	if err == nil {
		s.resume = resumeFrom[sol.Status]
	}
	return sol, err
}

// resumeFrom is how Append continues from a solve that ended in a status.
var resumeFrom = [...]start{Optimal: warmFeasible, Infeasible: warmRepaired, Unbounded: coldStart}

// Append re-optimizes p after columns were appended to it since this
// solver's last SolveWith or Append of p returned an optimal or an
// infeasible answer. B⁻¹ is untouched, so appending k columns costs
// their nonzeros. From an optimal basis, which stays primal feasible
// with the new columns at zero, only Phase II runs. From an infeasible
// one, Phase I resumes at its optimum, the run's repaired start: it
// either certifies the grown problem infeasible too, with a fresh
// certificate in Dual, or reaches a feasible basis and goes on to
// Phase II. Options are those of the solve that loaded p.
//
// Append returns an error — the caller then solves p in full — when the
// solver holds no such basis for p, p's rows were rebuilt or its
// columns shrank, the re-solve is unbounded, or an optimal answer fails
// the primal audit against p's raw columns.
func (s *Revised) Append(p *Sparse) (*Solution, error) {
	if err := fpAppend.Hit(); err != nil {
		return nil, err
	}
	from := s.resume
	if from == coldStart || p != s.p || p.gen != s.gen {
		return nil, errors.New("lp: Append without an optimal or infeasible solve of this problem")
	}
	if p.NumVars() < s.n {
		return nil, fmt.Errorf("lp: Append shrank the column set (%d -> %d)", s.n, p.NumVars())
	}
	s.resume = coldStart
	if !s.opts.AssumeValid {
		if err := p.validate(); err != nil {
			return nil, err
		}
	}
	for range p.NumVars() - s.n {
		s.basicS = append(s.basicS, false)
	}
	s.n = p.NumVars()
	s.iters, s.degenerate = 0, 0
	sol, err := s.run(from)
	if err != nil {
		return nil, err
	}
	if sol.Status == Unbounded {
		return nil, fmt.Errorf("lp: append re-solve unexpectedly %v", sol.Status)
	}
	if sol.Status == Optimal && !s.audit(sol.X) {
		return nil, errors.New("lp: append re-solve drifted infeasible")
	}
	s.resume = resumeFrom[sol.Status]
	return sol, nil
}

// load equilibrates p into the solver: vacuous rows dropped, negative
// RHS rows negated so b ≥ 0, each row divided by its largest magnitude
// (RHS included) and the objective by objectiveScale, and the
// all-slack/artificial starting basis installed. The columns stay in p:
// rmul and costMul carry the equilibration.
func (s *Revised) load(p *Sparse, opts Options) {
	rows, n := len(p.rows), p.NumVars()
	s.kept, s.rmul, s.yt = grow(s.kept, rows), grow(s.rmul, rows), grow(s.yt, rows)
	s.orig, s.rel = grow(s.orig, rows), grow(s.rel, rows)
	s.scale, s.flip = grow(s.scale, rows), grow(s.flip, rows)
	m, nSlack, nArt := 0, 0, 0
	for i, r := range p.rows {
		s.kept[i], s.rmul[i], s.yt[i] = -1, 0, 0
		if math.IsInf(r.rhs, 0) {
			continue
		}
		rel := normalizedRel(r.rel, r.rhs)
		s.kept[i], s.orig[m], s.rel[m], s.flip[m], s.scale[m] = m, i, rel, 1, math.Abs(r.rhs)
		if r.rhs < 0 {
			s.flip[m] = -1
		}
		if rel != EQ {
			nSlack++
		}
		if rel != LE {
			nArt++
		}
		m++
	}
	s.orig, s.rel, s.scale, s.flip = s.orig[:m], s.rel[:m], s.scale[:m], s.flip[:m]
	s.m, s.n, s.nSlack, s.nArt, s.nRepair = m, n, nSlack, nArt, 0
	s.opts, s.maxIter = opts, 200*(m+n+1)
	s.p, s.gen, s.resume = p, p.gen, coldStart

	s.b = grow(s.b, m)
	nAux := nSlack + nArt
	s.auxRow = grow(s.auxRow, nAux)
	s.auxSign = grow(s.auxSign, nAux)
	s.repairOf = grow(s.repairOf, m)
	s.basicS = grow(s.basicS, n)
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

	val := p.val[:len(p.rowIdx)]
	for e, r := range p.rowIdx {
		if k := s.kept[r]; k >= 0 {
			if a := math.Abs(val[e]); a > s.scale[k] {
				s.scale[k] = a
			}
		}
	}
	slack, art := 0, nSlack
	for k := 0; k < m; k++ {
		if s.scale[k] == 0 {
			s.scale[k] = 1
		}
		i := s.orig[k]
		s.rmul[i] = s.flip[k] / s.scale[k]
		s.b[k] = math.Abs(p.rows[i].rhs) / s.scale[k]
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
	s.costMul = s.sign / s.objScale
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

// coldBasis installs the starting basis — each row's slack (≤ rows) or
// artificial (≥ and = rows), so B = I — and resets the pivot counters
// and the partial-pricing window. It then crashes the artificials: a ≥
// or = row takes instead the first structural column that is a
// singleton on it, with an entry of at least installPivotTol, basic at
// b/a. B stays diagonal, and Phase I has that much less to do. Every
// master of the paper's LP holds the all-blackhole column, a singleton
// on the conservation row, so a quality master skips Phase I outright.
func (s *Revised) coldBasis() {
	m := s.m
	clear(s.basicS)
	clear(s.basicA)
	s.nRepair = 0
	for k := range s.nSlack + s.nArt {
		if k >= s.nSlack || s.auxSign[k] > 0 { // an artificial, or a ≤ row's slack
			s.basis[s.auxRow[k]] = ^k
			s.basicA[k] = true
		}
	}
	clear(s.binv)
	for k := 0; k < m; k++ {
		s.binv[k*m+k] = 1
	}
	copy(s.xB, s.b)
	p, left := s.p, s.nArt
	for j := 0; j < s.n && left > 0; j++ {
		e := p.start[j]
		if p.start[j+1] != e+1 {
			continue
		}
		r := p.rowIdx[e]
		k := s.kept[r]
		if k < 0 || !s.isArtificial(s.basis[k]) {
			continue
		}
		if a := p.val[e] * s.rmul[r]; a >= installPivotTol {
			s.basicA[^s.basis[k]] = false
			s.basis[k] = j
			s.basicS[j] = true
			s.binv[k*m+k] = 1 / a
			s.xB[k] = s.b[k] / a
			left--
		}
	}
	s.next = 0
	s.iters, s.sinceFactor, s.degenerate = 0, 0, 0
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
		return s.costMul * s.p.obj[id]
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

// each calls f with the kept row and equilibrated value of every entry
// of column a_id.
func (s *Revised) each(id int, f func(k int, a float64)) {
	if id >= 0 {
		rows, vals := s.p.column(id)
		for e, r := range rows {
			if k := s.kept[r]; k >= 0 {
				f(k, vals[e]*s.rmul[r])
			}
		}
		return
	}
	k := ^id
	if k < s.nSlack+s.nArt {
		f(s.auxRow[k], s.auxSign[k])
		return
	}
	s.each(s.repairOf[k-s.nSlack-s.nArt], func(k int, a float64) { f(k, -a) })
}

// dot returns v·a_id over kept rows.
func (s *Revised) dot(id int, v []float64) (d float64) {
	s.each(id, func(k int, a float64) { d += a * v[k] })
	return d
}

// ftran adds f·B⁻¹a_id into out: one axpy over a column of B⁻¹ per
// nonzero of a_id. It runs on every pivot, so it walks the entries
// itself rather than through each's callback.
func (s *Revised) ftran(id int, f float64, out []float64) {
	m := s.m
	if id >= 0 {
		rows, vals := s.p.column(id)
		for e, r := range rows {
			if k := s.kept[r]; k >= 0 {
				axpy(f*(vals[e]*s.rmul[r]), s.binv[k*m:(k+1)*m], out)
			}
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
		row := a[i*m : (i+1)*m]
		s.each(id, func(k int, v float64) { row[k] += v })
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
		if v < 0 && v > -simplexTol {
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

// computeY sets the simplex multipliers y = cB·B⁻¹ and folds them onto
// the original rows.
func (s *Revised) computeY() {
	m := s.m
	cB := s.cB[:m]
	for k := 0; k < m; k++ {
		col := s.binv[k*m : (k+1)*m]
		col = col[:len(cB)]
		var v float64
		for i, c := range cB {
			v += c * col[i]
		}
		s.y[k] = v
		s.yt[s.orig[k]] = v * s.rmul[s.orig[k]]
	}
}

// pivot replaces basis position r by column enter, whose B⁻¹ column is
// in s.alpha and whose reduced cost is dq, updating the basic values,
// B⁻¹ and the multipliers in place: y gains dq/α_r times row r of the
// old B⁻¹. Callers that recompute y pass dq = 0.
func (s *Revised) pivot(r, enter int, phase1 bool, dq float64) {
	m := s.m
	alpha := s.alpha[:m]
	ar := alpha[r]
	theta := s.xB[r] / ar
	for i, a := range alpha {
		if i == r || a == 0 {
			continue
		}
		v := s.xB[i] - theta*a
		if v < 0 && v > -simplexTol {
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
		if dq != 0 {
			s.y[k] += dq * t
			s.yt[s.orig[k]] = s.y[k] * s.rmul[s.orig[k]]
		}
	}
	s.setBasic(s.basis[r], false)
	s.basis[r] = enter
	s.setBasic(enter, true)
	s.cB[r] = s.phaseCost(enter, phase1)
	s.iters++
	s.sinceFactor++
}

// price returns the entering column and its reduced cost: under
// Dantzig's rule the largest reduced cost above tol — among the slacks
// and one partial-pricing window of structural columns, or every
// structural column below partialFrom — and under Bland's rule the
// first in Basis column order. Artificials never enter.
func (s *Revised) price(phase1, bland bool) (int, float64, bool) {
	cm := s.costMul
	if phase1 {
		cm = 0
	}
	n := s.n
	if bland || n < partialFrom {
		enter, best, found := s.priceColumns(0, n, cm, 0, simplexTol, false, bland)
		if found && bland {
			return enter, best, true
		}
		return s.priceSlacks(enter, best, found, bland)
	}
	enter, best, found := s.priceSlacks(0, simplexTol, false, false)
	lo := s.next
	for scanned := 0; scanned < n; {
		hi := min(lo+priceWindow, n)
		enter, best, found = s.priceColumns(lo, hi, cm, enter, best, found, false)
		scanned += hi - lo
		lo = hi
		if lo == n {
			lo = 0
		}
		if found {
			break
		}
	}
	s.next = lo
	return enter, best, found
}

// priceColumns prices structural columns lo..hi−1 against the folded
// multipliers, returning the best candidate so far (the first one under
// Bland's rule).
func (s *Revised) priceColumns(lo, hi int, cm float64, enter int, best float64, found, bland bool) (int, float64, bool) {
	p, yt := s.p, s.yt
	ends, obj, basic := p.start[lo+1:hi+1], p.obj[lo:hi], s.basicS[lo:hi]
	obj, basic = obj[:len(ends)], basic[:len(ends)]
	rowIdx, val := p.rowIdx, p.val[:len(p.rowIdx)]
	e := p.start[lo]
	for j, end := range ends {
		if basic[j] {
			e = end
			continue
		}
		d := cm * obj[j]
		for ; e < end; e++ {
			d -= val[e] * yt[rowIdx[e]]
		}
		if d > best {
			enter, best, found = lo+j, d, true
			if bland {
				break
			}
		}
	}
	return enter, best, found
}

// priceSlacks prices the slack and surplus columns, continuing from the
// best candidate so far.
func (s *Revised) priceSlacks(enter int, best float64, found, bland bool) (int, float64, bool) {
	for k := 0; k < s.nSlack; k++ {
		if s.basicA[k] {
			continue
		}
		if d := -s.auxSign[k] * s.y[s.auxRow[k]]; d > best {
			enter, best, found = ^k, d, true
			if bland {
				break
			}
		}
	}
	return enter, best, found
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
	leave, minRatio := -1, 0.0
	for i, a := range s.alpha[:s.m] {
		if !phase1 && a < -simplexTol && s.isArtificial(s.basis[i]) {
			s.xB[i] = 0
			a = -a
		}
		if a <= simplexTol {
			continue
		}
		ratio := s.xB[i] / a
		if leave < 0 || ratio < minRatio-simplexTol ||
			(math.Abs(ratio-minRatio) <= simplexTol && s.betterLeave(i, leave, bland)) {
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
// (Optimal) or an entering column has no leaving row (Unbounded). Phase
// I also ends as soon as no artificial is basic at a positive value:
// its objective then sits at its bound, zero. The multipliers are
// computed from B⁻¹ at the start and after each refactorization, and
// updated by every pivot in between.
func (s *Revised) optimize(phase1 bool) (Status, error) {
	if phase1 && s.artificialsOut() {
		return Optimal, nil
	}
	s.loadCB(phase1)
	s.computeY()
	for {
		if s.iters >= s.maxIter {
			return 0, fmt.Errorf("lp: iteration limit %d exceeded (cycling?)", s.maxIter)
		}
		if s.sinceFactor >= refactorEvery {
			s.refactor()
			s.computeY()
		}
		bland := s.degenerate >= blandAfter
		enter, dq, ok := s.price(phase1, bland)
		if !ok {
			return Optimal, nil
		}
		clear(s.alpha)
		s.ftran(enter, 1, s.alpha)
		leave, ratio := s.ratioTest(bland, phase1)
		if leave < 0 {
			return Unbounded, nil
		}
		if ratio <= simplexTol {
			s.degenerate++
		} else {
			s.degenerate = 0
		}
		s.pivot(leave, enter, phase1, dq)
		if phase1 && s.artificialsOut() {
			return Optimal, nil
		}
	}
}

// artificialsOut reports whether no artificial or repair column is
// basic at a positive value.
func (s *Revised) artificialsOut() bool {
	for i, id := range s.basis {
		if s.xB[i] > 0 && s.isArtificial(id) {
			return false
		}
	}
	return true
}

// start describes how run begins, and is what re-installing a warm
// basis yields: cold (the slack/artificial basis, full Phase I; for an
// install, a basis that is singular or otherwise unusable for the
// drifted coefficients), warm with a feasible re-installed basis (Phase
// I skipped), or warm with a repaired basis (each violated basic
// variable swapped for a repair column, for a short Phase I from the
// near-feasible point). Append resumes from the last solve's basis the
// same two warm ways: an optimal one as feasible, an infeasible one's
// Phase I optimum as repaired.
type start int

const (
	coldStart start = iota
	warmFeasible
	warmRepaired
)

// run executes the phases from the given start and extracts the
// solution.
func (s *Revised) run(from start) (*Solution, error) {
	if from == warmRepaired || from == coldStart && s.nArt > 0 {
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
		if artSum > simplexTol*(1+norm1(s.b[:s.m])) {
			return &Solution{Status: Infeasible, Dual: s.certificate(), Iterations: s.iters}, nil
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
		if x[j] < 0 && x[j] > -simplexTol {
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
		PhaseISkipped: from == warmFeasible,
	}, nil
}

// certificate returns an infeasible Phase I's Farkas certificate: the
// multipliers optimize left computed at its optimum, folded onto the
// original rows as yt is. Each is within tolerance of its row's sign,
// which its slack prices; clamping the roundoff makes the signs exact.
func (s *Revised) certificate() []float64 {
	y := make([]float64, len(s.p.rows))
	for k, i := range s.orig {
		v := s.y[k]
		switch s.rel[k] {
		case LE:
			v = max(v, 0)
		case GE:
			v = min(v, 0)
		}
		y[i] = v * s.rmul[i]
	}
	return y
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
		enter, best := 0, simplexTol
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
		s.pivot(i, enter, true, 0)
	}
}

// audit checks x against p's raw columns at 1e2·simplexTol under Verify's
// row-scaled rule.
func (s *Revised) audit(x []float64) bool {
	return s.p.feasible(x, s.lhs, s.rowMax, 1e2*simplexTol)
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

// warmPivotsPerRow bounds a warm attempt at this many pivots per kept
// row (plus one), counting the basis install and both phases. The most
// a warm attempt was measured to take is under 4 per row (162 pivots at
// 42 rows, replaying three seeds of the 40×4 column-generation fleet
// traffic), so 32 leaves 8× headroom. An attempt past it has stalled,
// and the cold path takes over.
const warmPivotsPerRow = 32

// solveWarm solves from basis b within the warm pivot budget, returning
// nil — the caller solves cold — when the install fails, the budget
// runs out, the outcome is not Optimal, or the answer fails the audit.
func (s *Revised) solveWarm(b *Basis) *Solution {
	limit := s.maxIter
	s.maxIter = min(limit, warmPivotsPerRow*(s.m+1))
	var sol *Solution
	if from := s.installBasis(b); from != coldStart {
		sol, _ = s.run(from)
	}
	s.maxIter = limit
	if sol == nil || sol.Status != Optimal || !s.audit(sol.X) {
		return nil
	}
	return sol
}

// installBasis factorizes the captured basis b and classifies it:
// feasible, so Phase I is skipped; or repaired — each violated basic
// variable swapped for a repair column −a_old, which enters at the
// violation's magnitude (negating its row of B⁻¹ and of x_B), for a
// short Phase I that also drives out any artificial left basic at a
// positive value. coldStart means the install failed and left the basis
// dirty.
func (s *Revised) installBasis(b *Basis) start {
	if fpWarmInstall.Hit() != nil {
		return coldStart
	}
	clear(s.basicS)
	clear(s.basicA)
	for i, c := range b.cols {
		id := c
		if c >= s.n {
			k := c - s.n
			if k >= s.nSlack+s.nArt {
				return coldStart
			}
			id = ^k
		}
		if id >= 0 && s.basicS[id] || id < 0 && s.basicA[^id] {
			return coldStart
		}
		s.basis[i] = id
		s.setBasic(id, true)
	}
	if !s.factor(installPivotTol) {
		return coldStart
	}
	s.computeXB()

	m, ftol := s.m, simplexTol*(1+norm1(s.b[:s.m]))
	from := warmFeasible
	for i := 0; i < m; i++ {
		if v := s.xB[i]; v >= -ftol {
			if v > ftol && s.isArtificial(s.basis[i]) {
				from = warmRepaired
			}
			s.xB[i] = max(v, 0)
			continue
		}
		from = warmRepaired
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
	return from
}
