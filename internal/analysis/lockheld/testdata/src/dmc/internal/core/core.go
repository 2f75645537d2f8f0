// Package core is a fixture stub shadowing dmc/internal/core: the
// guarded registry (WarmPool.smu) and slot (sessionSlot.mu) mutexes
// with representative good and bad critical sections.
package core

import (
	"sync"
	"time"
)

type sessionSlot struct {
	mu sync.Mutex
}

type WarmPool struct {
	smu   sync.Mutex
	ch    chan int
	slots map[string]*sessionSlot
}

// Solve stands in for the solver entry points the registry tier must
// never span.
func (p *WarmPool) Solve() int { return 1 }

func (p *WarmPool) badSend() {
	p.smu.Lock()
	p.ch <- 1 // want `channel send while registry mutex core.WarmPool.smu is held`
	p.smu.Unlock()
}

func (p *WarmPool) badSleep() {
	p.smu.Lock()
	defer p.smu.Unlock()
	time.Sleep(time.Millisecond) // want `time.Sleep call while registry mutex core.WarmPool.smu is held`
}

func (p *WarmPool) badSolve() {
	p.smu.Lock()
	defer p.smu.Unlock()
	_ = p.Solve() // want `solver call .* registry locks must never span a solve`
}

func (p *WarmPool) badSelect(done chan struct{}) {
	p.smu.Lock()
	defer p.smu.Unlock()
	select { // want `select without default while registry mutex core.WarmPool.smu is held`
	case <-done:
	case p.ch <- 1:
	}
}

// recvHelper blocks; callers under a guarded lock inherit that through
// the may-block fact.
func (p *WarmPool) recvHelper() int { return <-p.ch }

func (p *WarmPool) badTransitive() {
	p.smu.Lock()
	defer p.smu.Unlock()
	_ = p.recvHelper() // want `which may block`
}

// WaitOn is exported so dependent fixture packages exercise the
// cross-package may-block fact.
func WaitOn(c chan int) int { return <-c }

// goodNonBlockingSend is the sanctioned bounded-queue idiom: a select
// with a default never blocks.
func (p *WarmPool) goodNonBlockingSend() bool {
	p.smu.Lock()
	defer p.smu.Unlock()
	select {
	case p.ch <- 1:
		return true
	default:
		return false
	}
}

// goodAfterUnlock blocks only once the region is closed.
func (p *WarmPool) goodAfterUnlock() {
	p.smu.Lock()
	p.smu.Unlock()
	p.ch <- 1
}

// goodLiteralLater: a literal's body runs outside the region.
func (p *WarmPool) goodLiteralLater() func() {
	p.smu.Lock()
	defer p.smu.Unlock()
	return func() { p.ch <- 1 }
}

// slotSolveOK: holding the slot mutex across a solve is the slot tier's
// purpose.
func (s *sessionSlot) slotSolveOK(p *WarmPool) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return p.Solve()
}

func (s *sessionSlot) slotRecvBad(c chan int) {
	s.mu.Lock()
	<-c // want `channel receive while session-slot mutex core.sessionSlot.mu is held`
	s.mu.Unlock()
}

func (s *sessionSlot) slotRangeBad(c chan int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for range c { // want `range over channel while session-slot mutex core.sessionSlot.mu is held`
	}
}
