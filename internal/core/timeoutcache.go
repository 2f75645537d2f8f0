package core

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"weak"

	"dmc/internal/dist"
)

// TimeoutCache memoizes OptimalTimeouts tables keyed by the inputs the
// Eq. 26/34 search actually depends on: the per-path delay
// distributions, the data lifetime δ, and the search options — NOT the
// rate λ, cost budget µ, losses, bandwidths, or costs. The timeout
// t_{i,j} balances two delay tails and nothing else, so adaptive
// re-solves under λ/µ/loss drift (§VIII-A) can reuse the table for free
// while a delay-estimate change recomputes exactly the affected key.
//
// The cache holds its tables weakly: a table stays cached while some
// caller still references it — a serve session keeps the table of its
// latest request — and its entry goes once the garbage collector frees
// it. Drifting delay estimates make a new key per drift, so a cache
// that held its tables itself would keep every table a long-running
// daemon ever computed; this one holds no more than its callers do.
//
// Cached tables are shared between callers and must be treated as
// read-only (do not call Timeouts.Set on them). A TimeoutCache is safe
// for concurrent use.
type TimeoutCache struct {
	mu      sync.Mutex
	entries map[string]weak.Pointer[Timeouts]
	hits    int64
	misses  int64
}

// timeoutEntry names one stored table for the cleanup that removes it.
type timeoutEntry struct {
	key string
	wp  weak.Pointer[Timeouts]
}

// NewTimeoutCache returns an empty cache.
func NewTimeoutCache() *TimeoutCache {
	return &TimeoutCache{entries: make(map[string]weak.Pointer[Timeouts])}
}

// OptimalTimeouts returns the Eq. 34 timeout table for the network,
// computing it on first use per distinct (delays, lifetime, options)
// key. Paths whose delay model is not one of the built-in distributions
// (Deterministic, Uniform, ShiftedGamma) defeat keying; such networks
// are solved directly on every call and counted as misses.
func (c *TimeoutCache) OptimalTimeouts(n *Network, opts TimeoutOptions) (*Timeouts, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	key, ok := timeoutKey(n, opts.withDefaults())
	if !ok {
		c.mu.Lock()
		c.misses++
		c.mu.Unlock()
		return OptimalTimeouts(n, opts)
	}

	c.mu.Lock()
	if to := c.entries[key].Value(); to != nil {
		c.hits++
		c.mu.Unlock()
		return to, nil
	}
	c.misses++
	c.mu.Unlock()

	// Compute outside the lock: timeout searches are milliseconds-long
	// and concurrent callers with different keys must not serialize.
	// Concurrent same-key callers may both compute; last store wins and
	// both tables are identical (the search is deterministic).
	to, err := OptimalTimeouts(n, opts)
	if err != nil {
		return nil, err
	}
	e := timeoutEntry{key: key, wp: weak.Make(to)}
	c.mu.Lock()
	c.entries[key] = e.wp
	c.mu.Unlock()
	runtime.AddCleanup(to, c.forget, e)
	return to, nil
}

// forget removes a freed table's entry, unless a later store has
// replaced it.
func (c *TimeoutCache) forget(e timeoutEntry) {
	c.mu.Lock()
	if c.entries[e.key] == e.wp {
		delete(c.entries, e.key)
	}
	c.mu.Unlock()
}

// Stats returns how many lookups hit and missed the cache.
func (c *TimeoutCache) Stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Len returns the number of cached tables. A table no caller holds
// any more counts until a garbage collection has freed it.
func (c *TimeoutCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// timeoutKey serializes everything the Eq. 34 search reads. ok = false
// when a path carries a delay model the key cannot identify.
func timeoutKey(n *Network, opts TimeoutOptions) (string, bool) {
	var b strings.Builder
	fmt.Fprintf(&b, "δ=%d|grid=%d|refine=%d|nodes=%d",
		int64(n.Lifetime), int64(opts.GridStep), opts.RefineLevels, opts.ConvolutionNodes)
	for _, p := range n.Paths {
		b.WriteByte('|')
		if !writeDelayKey(&b, p.delayDist()) {
			return "", false
		}
	}
	return b.String(), true
}

// writeDelayKey appends a canonical encoding of a built-in delay
// distribution; unknown implementations report false (not cacheable —
// two distinct instances cannot be told apart safely).
func writeDelayKey(b *strings.Builder, d dist.Delay) bool {
	switch v := d.(type) {
	case dist.Deterministic:
		fmt.Fprintf(b, "det:%d", int64(v.D))
	case dist.Uniform:
		fmt.Fprintf(b, "uni:%d,%d", int64(v.Lo), int64(v.Hi))
	case dist.ShiftedGamma:
		fmt.Fprintf(b, "gam:%d,%x,%d", int64(v.Loc), v.Shape, int64(v.Scale))
	default:
		return false
	}
	return true
}
