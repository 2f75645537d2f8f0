package core

import "sync"

// sessionSlot is one session's warm solver, created by the session's
// first solve. The slot mutex serializes solves on the same key (a
// Solver is not safe for concurrent use); distinct keys never contend.
type sessionSlot struct {
	mu sync.Mutex
	sv *Solver
}

// WarmPool keeps one warm Solver per session key. The §VIII-A adaptive
// loop re-solves one session at a time as its estimates drift, so each
// session keeps its column tables and, under column generation, its
// pool and LP basis across its own solves, however the surrounding
// fleet reorders, grows, or shrinks. Distinct keys solve concurrently; calls on the same key
// serialize.
//
// A returned Solution shares storage with its session's warm state: the
// session's next solve rebuilds that storage in place, invalidating it.
// Extract what you need from a Solution before the next solve on the
// same key, or use the package-level one-shot solves, which never reuse
// result storage. This contract is machine-checked in consumer packages
// by the poolescape analyzer (internal/analysis/poolescape, run via
// `make lint`).
//
// The zero WarmPool is empty and ready to use. A WarmPool is safe for
// concurrent use.
type WarmPool struct {
	smu      sync.Mutex
	sessions map[string]*sessionSlot
}

// NewWarmPool returns an empty warm solver pool.
func NewWarmPool() *WarmPool { return &WarmPool{} }

// SolveSession solves the quality maximization (Eq. 10) on the warm
// solver dedicated to the session key (Solver.Resolve), creating the
// solver on the key's first solve. The returned Solution is valid until
// the session's next solve.
func (p *WarmPool) SolveSession(key string, n *Network) (*Solution, error) {
	return p.solveSession(key, func(sv *Solver) (*Solution, error) {
		return sv.Resolve(n)
	})
}

// SolveSessionMinCost is SolveSession for the §VI-A cost minimization
// under a quality floor (Solver.ResolveMinCost).
func (p *WarmPool) SolveSessionMinCost(key string, n *Network, minQuality float64) (*Solution, error) {
	return p.solveSession(key, func(sv *Solver) (*Solution, error) {
		return sv.ResolveMinCost(n, minQuality)
	})
}

// SolveSessionRandom is SolveSession for the §VI-B random-delay model
// with the given timeout table (Solver.ResolveQualityRandom).
func (p *WarmPool) SolveSessionRandom(key string, n *Network, to *Timeouts) (*Solution, error) {
	return p.solveSession(key, func(sv *Solver) (*Solution, error) {
		return sv.ResolveQualityRandom(n, to)
	})
}

func (p *WarmPool) solveSession(key string, run func(sv *Solver) (*Solution, error)) (*Solution, error) {
	p.smu.Lock()
	if p.sessions == nil {
		p.sessions = make(map[string]*sessionSlot)
	}
	slot := p.sessions[key]
	if slot == nil {
		slot = &sessionSlot{}
		p.sessions[key] = slot
	}
	p.smu.Unlock()

	slot.mu.Lock()
	defer slot.mu.Unlock()
	if slot.sv == nil {
		slot.sv = NewSolver()
	}
	return run(slot.sv)
}

// DropSession removes the session key. Its warm solver becomes garbage
// once no solve holds it: a solve already waiting on the key finishes
// on it, and the key's next solve starts a fresh, cold one. Dropping a
// key that was never solved is a no-op. Solutions the session returned
// stay readable.
func (p *WarmPool) DropSession(key string) {
	p.smu.Lock()
	delete(p.sessions, key)
	p.smu.Unlock()
}

// QuarantineSession discards the session's warm solver after a solver
// panic: the poisoned warm state (columns, CG pool, basis) is dropped,
// so the session's next solve re-primes cold on a fresh solver and later
// solves warm up again on clean state. The panicked solve's LP
// workspace never went back to its pool either (Solver.solve).
// Quarantining an unknown or dropped key is a no-op. Callers must not
// hold the session's solve in progress (the panic has already unwound
// it).
func (p *WarmPool) QuarantineSession(key string) {
	p.smu.Lock()
	slot := p.sessions[key]
	p.smu.Unlock()
	if slot == nil {
		return
	}
	slot.mu.Lock()
	slot.sv = nil
	slot.mu.Unlock()
}

// Sessions returns the number of live session keys.
func (p *WarmPool) Sessions() int {
	p.smu.Lock()
	defer p.smu.Unlock()
	return len(p.sessions)
}
