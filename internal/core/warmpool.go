package core

import (
	"fmt"
	"math"
	"sync"

	"dmc/internal/conc"
)

// warmPoolStripes is the lock-striping width of a WarmPool: shape keys
// hash onto independent mutexes so a 64-network fleet storm does not
// serialize its check-outs on one lock.
const warmPoolStripes = 16

// warmKey identifies the network shape a pooled warm solver was primed
// on. A solver whose last Resolve saw the same shape re-solves warm; a
// mismatched one transparently re-primes cold (Resolve's own guard), so
// the key is a hit-rate optimization, never a correctness requirement.
type warmKey struct {
	nPaths  int
	trans   int
	hasCost bool
}

func keyOf(n *Network) warmKey {
	return warmKey{
		nPaths:  len(n.Paths),
		trans:   n.transmissions(),
		hasCost: !math.IsInf(n.CostBound, 1),
	}
}

func (k warmKey) stripe() int {
	h := uint64(k.nPaths)*0x9e3779b97f4a7c15 + uint64(k.trans)*0x85ebca6b
	if k.hasCost {
		h += 0xc2b2ae35
	}
	return int((h >> 32) % warmPoolStripes)
}

type warmStripe struct {
	mu sync.Mutex
	m  map[warmKey][]*Solver
}

// sessionSlot is one session's persistent warm solver. The slot mutex
// serializes solves on the same key (a Solver is not safe for concurrent
// use); distinct keys never contend.
type sessionSlot struct {
	mu sync.Mutex
	sv *Solver
	// shape is the last solved network shape, for retiring the solver to
	// the right stripe on DropSession.
	shape warmKey
	// dropped marks a slot DropSession detached while a solve was
	// waiting on its mutex: the late solve runs on a throwaway solver.
	dropped bool
}

// WarmPool shares persistent incremental re-solve state across fleet
// re-solve storms: a striped, shape-keyed pool of warm Solvers, with two
// access idioms on top of it.
//
// Session-keyed (SolveSession, SolveSessionMinCost, SolveSessionRandom,
// DropSession): the caller names each session with a stable key and the
// pool keeps one warm solver per key, so basis/column affinity survives
// fleet reordering, adds, and drops — the online-serving idiom, where a
// fleet is a churning set of identified sessions, not a fixed slice.
// Distinct keys solve concurrently; calls on the same key serialize.
//
// Positional (SolveMany): when a batch has the same size as the pool's
// previous batch, network i gets the solver that solved index i last
// time — the fleet-sweep idiom keeps each drifting network at a stable
// index, and a warm state is only genuinely warm for the network whose
// drift trajectory primed it. Solvers that cannot be matched by
// position (first batch, changed batch size, a concurrent batch already
// claimed the positional set) fall back to the shape-keyed stripes,
// where any same-shaped warm solver still saves the structural work; a
// full mismatch just re-primes cold inside Resolve.
//
// Within one batch each pooled solver serves at most one network
// (checked-out solvers return to the pool only after the whole batch
// completes), so the returned Solutions are never clobbered mid-batch.
// They DO share storage with the pooled warm states: a later solve
// drawing the same solver — the next SolveMany on the pool, or the next
// SolveSession on the same key — rebuilds that storage in place,
// invalidating them. Extract what you need from a Solution before
// issuing the next solve that could reuse its solver, or use the
// package-level SolveMany, which never reuses result storage. This
// contract is machine-checked in consumer packages by the poolescape
// analyzer (internal/analysis/poolescape, run via `make lint`).
//
// A WarmPool is safe for concurrent use; concurrent batches simply
// check out disjoint solvers.
type WarmPool struct {
	mu sync.Mutex
	// byIdx holds the previous batch's solvers by network index.
	byIdx []*Solver

	stripes [warmPoolStripes]warmStripe

	smu      sync.Mutex
	sessions map[string]*sessionSlot
}

// NewWarmPool returns an empty warm solver pool.
func NewWarmPool() *WarmPool {
	p := &WarmPool{sessions: make(map[string]*sessionSlot)}
	for i := range p.stripes {
		p.stripes[i].m = make(map[warmKey][]*Solver)
	}
	return p
}

// acquire pops a warm solver primed on the key's shape, or returns a
// fresh one when none is pooled.
func (p *WarmPool) acquire(k warmKey) *Solver {
	st := &p.stripes[k.stripe()]
	st.mu.Lock()
	defer st.mu.Unlock()
	stack := st.m[k]
	if len(stack) == 0 {
		return NewSolver()
	}
	s := stack[len(stack)-1]
	st.m[k] = stack[:len(stack)-1]
	return s
}

// release returns a solver to its shape's stack.
func (p *WarmPool) release(k warmKey, s *Solver) {
	st := &p.stripes[k.stripe()]
	st.mu.Lock()
	st.m[k] = append(st.m[k], s)
	st.mu.Unlock()
}

// SolveMany solves the quality maximization (Eq. 10) for every network
// across min(GOMAXPROCS, len(nets)) workers, each solve running on a
// pooled warm solver's incremental path (Solver.Resolve). Results are
// returned in input order; on error the first failure is returned
// together with the partial results, and entries that did not solve are
// nil. See the WarmPool type comment for the result-invalidation
// contract.
func (p *WarmPool) SolveMany(nets []*Network) ([]*Solution, error) {
	// Claim the positional solver set when the batch shape allows it.
	p.mu.Lock()
	var byIdx []*Solver
	if len(p.byIdx) == len(nets) {
		byIdx, p.byIdx = p.byIdx, nil
	}
	p.mu.Unlock()

	sols := make([]*Solution, len(nets))
	solvers := make([]*Solver, len(nets))
	err := conc.ForEach(len(nets), func(i int) error {
		var sv *Solver
		if byIdx != nil {
			sv = byIdx[i]
		}
		if sv == nil {
			sv = p.acquire(keyOf(nets[i]))
		}
		solvers[i] = sv
		sol, err := sv.Resolve(nets[i])
		if err != nil {
			return fmt.Errorf("core: warm batch solve %d: %w", i, err)
		}
		sols[i] = sol
		return nil
	})
	// Solvers re-enter the pool only after every worker finished: no
	// state is reused twice within a batch, so no Solution above is
	// rebuilt under a caller mid-batch. The completed batch becomes the
	// next positional set; if a concurrent batch already installed one,
	// these solvers retire to the shape stripes instead.
	for i := range solvers {
		if solvers[i] == nil {
			// The error fan-out skipped this index: backfill from the
			// claimed positional set so no solver leaks.
			if byIdx != nil {
				solvers[i] = byIdx[i]
			}
		}
	}
	p.mu.Lock()
	if p.byIdx == nil {
		p.byIdx = solvers
		p.mu.Unlock()
	} else {
		p.mu.Unlock()
		for i, sv := range solvers {
			if sv != nil {
				p.release(keyOf(nets[i]), sv)
			}
		}
	}
	return sols, err
}

// SolveSession solves the quality maximization (Eq. 10) on the warm
// solver dedicated to the session key, creating one (seeded from the
// shape stripes when a same-shaped solver is pooled) on first use. A
// session re-solved under drift keeps its column tables, CG pool, and
// LP basis across calls no matter how the surrounding fleet reorders,
// grows, or shrinks — the keyed counterpart of SolveMany's positional
// affinity.
//
// Calls on the same key serialize; distinct keys solve concurrently.
// The returned Solution is valid until the session's next solve (it
// shares storage with the session's warm state, exactly like
// Solver.Resolve).
func (p *WarmPool) SolveSession(key string, n *Network) (*Solution, error) {
	return p.solveSession(key, keyOf(n), func(sv *Solver) (*Solution, error) {
		return sv.Resolve(n)
	})
}

// SolveSessionMinCost is SolveSession for the §VI-A cost minimization
// under a quality floor (Solver.ResolveMinCost).
func (p *WarmPool) SolveSessionMinCost(key string, n *Network, minQuality float64) (*Solution, error) {
	return p.solveSession(key, keyOf(n), func(sv *Solver) (*Solution, error) {
		return sv.ResolveMinCost(n, minQuality)
	})
}

// SolveSessionRandom is SolveSession for the §VI-B random-delay model
// with the given timeout table (Solver.ResolveQualityRandom).
func (p *WarmPool) SolveSessionRandom(key string, n *Network, to *Timeouts) (*Solution, error) {
	return p.solveSession(key, keyOf(n), func(sv *Solver) (*Solution, error) {
		return sv.ResolveQualityRandom(n, to)
	})
}

func (p *WarmPool) solveSession(key string, shape warmKey, run func(sv *Solver) (*Solution, error)) (*Solution, error) {
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
	if slot.dropped {
		// DropSession detached this slot while we waited for its mutex
		// and already retired its solver. Solve on a throwaway solver
		// (acquired warm when the stripes have one) that is deliberately
		// NOT released: releasing it would let a concurrent acquire
		// rebuild the storage the returned Solution still references.
		return run(p.acquire(shape))
	}
	if slot.sv == nil {
		slot.sv = p.acquire(shape)
	}
	slot.shape = shape
	return run(slot.sv)
}

// DropSession removes the session key and retires its warm solver to
// the shape-keyed stripes, where a future same-shaped session (keyed or
// positional) can pick the structural state back up. Dropping a key
// that was never solved is a no-op. Any Solution the dropped session
// returned remains readable but stops being protected from storage
// reuse — extract what you need before dropping.
func (p *WarmPool) DropSession(key string) {
	p.smu.Lock()
	slot := p.sessions[key]
	delete(p.sessions, key)
	p.smu.Unlock()
	if slot == nil {
		return
	}
	slot.mu.Lock()
	slot.dropped = true
	sv, shape := slot.sv, slot.shape
	slot.sv = nil
	slot.mu.Unlock()
	if sv != nil {
		p.release(shape, sv)
	}
}

// QuarantineSession discards the session's warm solver after a solver
// panic: the poisoned warm state (columns, CG pool, basis) is dropped
// on the floor — never retired to the shape-keyed stripes, where
// another session could inherit it — and replaced with a fresh cold
// solver, so the session's next solve re-primes from scratch and later
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
	defer slot.mu.Unlock()
	if slot.dropped {
		return
	}
	slot.sv = NewSolver()
}

// Sessions returns the number of live session keys.
func (p *WarmPool) Sessions() int {
	p.smu.Lock()
	defer p.smu.Unlock()
	return len(p.sessions)
}
