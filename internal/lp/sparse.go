package lp

import (
	"errors"
	"fmt"
	"math"
	"sync"
)

// Sparse is a linear program over non-negative variables stored by
// column: its rows are declared first and its columns are appended in
// place, each holding only its nonzero entries. It is the problem form
// the Revised solver takes, and suits LPs that grow by columns — the
// restricted masters of column generation, whose columns touch a
// handful of rows each.
//
// Rows follow Problem's conventions: a LE row with RHS +Inf (or a GE
// row with RHS −Inf) is vacuous and skipped, with a zero dual.
// Construct with NewSparse, or Reset a zero value.
type Sparse struct {
	sense Sense
	rows  []sparseRow
	obj   []float64
	// Column j's entries are rowIdx[start[j]:start[j+1]] and
	// val[start[j]:start[j+1]].
	start  []int
	rowIdx []int
	val    []float64
	// gen changes whenever the row set does (Reset, AddRow), so a
	// Revised solver can tell its loaded problem from a rebuilt one.
	gen uint64
}

type sparseRow struct {
	name string
	rel  Relation
	rhs  float64
}

// NewSparse returns an empty problem with the given sense.
func NewSparse(sense Sense) *Sparse {
	p := &Sparse{}
	p.Reset(sense)
	return p
}

// Reset empties the problem, keeping its storage for reuse.
func (p *Sparse) Reset(sense Sense) {
	p.sense = sense
	p.rows = p.rows[:0]
	p.obj = p.obj[:0]
	p.start = append(p.start[:0], 0)
	p.rowIdx = p.rowIdx[:0]
	p.val = p.val[:0]
	p.gen++
}

// NumVars reports the number of columns.
func (p *Sparse) NumVars() int { return len(p.obj) }

// AddRow appends the constraint row (name) rel rhs. Columns already
// present hold zero in it.
func (p *Sparse) AddRow(name string, rel Relation, rhs float64) {
	p.rows = append(p.rows, sparseRow{name: name, rel: rel, rhs: rhs})
	p.gen++
}

// AddColumn appends a column with objective coefficient obj and the
// entries vals[k] in rows rows[k]; AddEntry can add more to it. Zero
// entries are dropped; the slices are copied.
func (p *Sparse) AddColumn(obj float64, rows []int, vals []float64) {
	p.obj = append(p.obj, obj)
	p.start = append(p.start, len(p.val))
	for k, r := range rows {
		p.AddEntry(r, vals[k])
	}
}

// AddEntry appends the entry v in row r to the column added last, before
// the problem is next solved. A zero entry is dropped.
func (p *Sparse) AddEntry(r int, v float64) {
	if v != 0 {
		p.rowIdx = append(p.rowIdx, r)
		p.val = append(p.val, v)
		p.start[len(p.start)-1] = len(p.val)
	}
}

// column returns column j's row indices and values.
func (p *Sparse) column(j int) ([]int, []float64) {
	lo, hi := p.start[j], p.start[j+1]
	return p.rowIdx[lo:hi], p.val[lo:hi]
}

// value returns the objective value of x.
func (p *Sparse) value(x []float64) float64 {
	var v float64
	for j, c := range p.obj {
		v += c * x[j]
	}
	return v
}

// setProblem resets sp to p's rows and columns, keeping only the
// nonzero entries. It is the package's one Problem→Sparse conversion.
func (sp *Sparse) setProblem(p *Problem) *Sparse {
	sp.Reset(p.Sense)
	for _, c := range p.Constraints {
		sp.AddRow(c.Name, c.Rel, c.RHS)
	}
	for j, c := range p.Objective {
		sp.AddColumn(c, nil, nil)
		for i, con := range p.Constraints {
			sp.AddEntry(i, con.Coeffs[j])
		}
	}
	return sp
}

// Solver solves dense Problems: each solve converts its Problem into a
// column-sparse copy kept for reuse and solves that on the Revised
// engine, with the same Options and the same Solution. The zero value is
// ready to use; a Solver must not be used concurrently from multiple
// goroutines (use one per worker, or the pooled package-level Solve).
type Solver struct {
	sp  Sparse
	rev Revised
}

// NewSolver returns a reusable Solver.
func NewSolver() *Solver { return &Solver{} }

// Solve solves the problem with default options.
func (s *Solver) Solve(p *Problem) (*Solution, error) { return s.SolveWith(p, Options{}) }

// SolveWith solves the problem, reusing the solver's workspaces.
func (s *Solver) SolveWith(p *Problem, opts Options) (*Solution, error) {
	if !opts.AssumeValid {
		if err := p.validate(); err != nil {
			return nil, err
		}
		opts.AssumeValid = true
	}
	return s.rev.SolveWith(s.sp.setProblem(p), opts)
}

// solverPool backs the package-level Solve and SolveWith.
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

// Dense returns the problem as a freshly allocated dense Problem.
func (p *Sparse) Dense() *Problem {
	n := p.NumVars()
	out := NewProblem(p.sense, p.obj)
	backing := make([]float64, n*len(p.rows))
	out.Constraints = make([]Constraint, len(p.rows))
	for i, r := range p.rows {
		out.Constraints[i] = Constraint{Coeffs: backing[i*n : (i+1)*n : (i+1)*n], Rel: r.rel, RHS: r.rhs, Name: r.name}
	}
	for j := 0; j < n; j++ {
		rows, vals := p.column(j)
		for k, r := range rows {
			out.Constraints[r].Coeffs[j] += vals[k]
		}
	}
	return out
}

// validate reports structural problems, as Problem.validate does.
func (p *Sparse) validate() error {
	if p.sense != Maximize && p.sense != Minimize {
		return fmt.Errorf("lp: invalid sense %d", int(p.sense))
	}
	if len(p.obj) == 0 {
		return errors.New("lp: problem has no variables")
	}
	for j, c := range p.obj {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return fmt.Errorf("lp: objective coefficient %d is %v", j, c)
		}
	}
	for i, r := range p.rows {
		if err := checkRow(i, r.rel, r.rhs); err != nil {
			return err
		}
	}
	for k, r := range p.rowIdx {
		if r < 0 || r >= len(p.rows) {
			return fmt.Errorf("lp: column entry %d names row %d of %d", k, r, len(p.rows))
		}
		if a := p.val[k]; math.IsNaN(a) || math.IsInf(a, 0) {
			return fmt.Errorf("lp: row %d coefficient is %v", r, a)
		}
	}
	return nil
}

// feasible reports whether x satisfies p within tol under Verify's
// row-scaled rule: the primal audit of the Revised solver's warm and
// appended answers, read against the raw columns.
func (p *Sparse) feasible(x []float64, lhs, rowMax []float64, tol float64) bool {
	clear(lhs)
	clear(rowMax)
	for j, xj := range x {
		if xj < -tol {
			return false
		}
		rows, vals := p.column(j)
		for k, r := range rows {
			lhs[r] += vals[k] * xj
			if a := math.Abs(vals[k]); a > rowMax[r] {
				rowMax[r] = a
			}
		}
	}
	for i, r := range p.rows {
		if rowViolated(r.rel, lhs[i], r.rhs, rowMax[i], tol) {
			return false
		}
	}
	return true
}
