package lp

// The generators of FuzzRevisedMatchesExact's instances, for the external
// test package, which imports ratlp (and ratlp imports lp).
var (
	RandomSparseLP       = randomSparseLP
	DriftSparse          = driftSparse
	DriftRHS             = driftRHS
	CertificateViolation = certificateViolation
)

// Column returns column j's entries in their stored order.
func (p *Sparse) Column(j int) ([]int, []float64) { return p.column(j) }

// SparseOf returns p as a Sparse problem.
func SparseOf(p *Problem) *Sparse { return new(Sparse).setProblem(p) }
