package consumer

import (
	"dmc/internal/core"
	"dmc/internal/estimate"
)

var cache *core.Solution

type holder struct{ sol *core.Solution }

func badGlobal(p *core.WarmPool, n *core.Network) {
	sol, _ := p.SolveSession("s", n)
	cache = sol // want `stored outside the call frame`
}

func badField(p *core.WarmPool, n *core.Network, h *holder) {
	sol, _ := p.SolveSession("s", n)
	h.sol = sol // want `stored outside the call frame`
}

func badReturn(p *core.WarmPool, n *core.Network) *core.Solution {
	sol, _ := p.SolveSession("s", n)
	return sol // want `returned to the caller`
}

func badReturnSlice(p *core.WarmPool, n *core.Network) []float64 {
	sol, _ := p.SolveSession("s", n)
	return sol.X // want `returned to the caller`
}

func badSend(p *core.WarmPool, n *core.Network, ch chan *core.Solution) {
	sol, _ := p.SolveSession("s", n)
	ch <- sol // want `sent on a channel`
}

func badGoroutine(p *core.WarmPool, n *core.Network) {
	sol, _ := p.SolveSession("s", n)
	go func() {
		_ = sol.Quality // want `goroutine captures pool-backed Solution`
	}()
}

func badAdaptor(a *estimate.Adaptor, n *core.Network) {
	sol, _ := a.Solution(n)
	cache = sol // want `stored outside the call frame`
}

func badResolve(s *core.Solver, n *core.Network, h *holder) {
	sol, _ := s.Resolve(n)
	h.sol = sol // want `stored outside the call frame`
}

func badRebindStillEscapes(p *core.WarmPool, n *core.Network) *core.Solution {
	sol, _ := p.SolveSession("s", n)
	alias := sol
	return alias // want `returned to the caller`
}

// goodScalar extracts a value copy; scalars do not alias pool storage.
func goodScalar(p *core.WarmPool, n *core.Network) float64 {
	sol, _ := p.SolveSession("s", n)
	return sol.Quality
}

// goodResolveScalar extracts a value copy from a session solver's
// re-solve.
func goodResolveScalar(s *core.Solver, n *core.Network) float64 {
	sol, _ := s.Resolve(n)
	return sol.Quality
}

// goodCopy extracts into fresh storage before returning.
func goodCopy(p *core.WarmPool, n *core.Network) []float64 {
	sol, _ := p.SolveSession("s", n)
	out := make([]float64, len(sol.X))
	copy(out, sol.X)
	return out
}

// goodOneShot: package-level solves return fresh storage; retaining
// them is fine (internal/proto's simulation Config does exactly this).
func goodOneShot(n *core.Network) *core.Solution {
	sol, _ := core.SolveQuality(n)
	return sol
}

// goodLocalUse: synchronous consumption inside the frame is the
// sanctioned pattern.
func goodLocalUse(p *core.WarmPool, n *core.Network) float64 {
	sol, _ := p.SolveSession("s", n)
	total := 0.0
	for _, x := range sol.X {
		total += x
	}
	return total
}
