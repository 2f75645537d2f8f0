package core

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"dmc/internal/dist"
)

// cacheTestNetwork is a small §VI-B random-delay network for timeout
// cache tests (coarse search options keep each miss cheap).
func cacheTestNetwork() *Network {
	n := NewNetwork(10*Mbps, 500*time.Millisecond,
		Path{Bandwidth: 20 * Mbps, Loss: 0.1,
			RandDelay: dist.ShiftedGamma{Loc: 100 * time.Millisecond, Shape: 4, Scale: 5 * time.Millisecond}},
		Path{Bandwidth: 20 * Mbps, Loss: 0.02,
			RandDelay: dist.Uniform{Lo: 150 * time.Millisecond, Hi: 200 * time.Millisecond}},
	)
	return n
}

func coarseOpts() TimeoutOptions {
	return TimeoutOptions{GridStep: 25 * time.Millisecond, RefineLevels: 1, ConvolutionNodes: 200}
}

// TestTimeoutCacheHitsAcrossRateDrift is the acceptance test: drifting
// only λ and µ (and even loss/bandwidth/cost) between calls must hit the
// cache — the Eq. 34 search depends on delays and lifetime alone.
func TestTimeoutCacheHitsAcrossRateDrift(t *testing.T) {
	c := NewTimeoutCache()
	n := cacheTestNetwork()
	first, err := c.OptimalTimeouts(n, coarseOpts())
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses := c.Stats(); hits != 0 || misses != 1 {
		t.Fatalf("after first call: hits=%d misses=%d", hits, misses)
	}

	// λ/µ/loss/bandwidth/cost drift: same key.
	drifted := *n
	drifted.Paths = append([]Path(nil), n.Paths...)
	drifted.Rate *= 1.1
	drifted.CostBound = 1e6
	for i := range drifted.Paths {
		drifted.Paths[i].Bandwidth *= 0.9
		drifted.Paths[i].Loss += 0.05
		drifted.Paths[i].Cost += 1
	}
	second, err := c.OptimalTimeouts(&drifted, coarseOpts())
	if err != nil {
		t.Fatal(err)
	}
	if second != first {
		t.Fatal("λ/µ drift did not return the cached table")
	}
	if hits, misses := c.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("after drifted call: hits=%d misses=%d", hits, misses)
	}

	// Matching direct computation.
	direct, err := OptimalTimeouts(n, coarseOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := range direct.T {
		for j := range direct.T[i] {
			if direct.T[i][j] != first.T[i][j] {
				t.Fatalf("cached t[%d][%d]=%v, direct %v", i, j, first.T[i][j], direct.T[i][j])
			}
		}
	}
}

// TestTimeoutCacheMissesOnDelayChange verifies a delay-estimate change
// recomputes: new key, new table.
func TestTimeoutCacheMissesOnDelayChange(t *testing.T) {
	c := NewTimeoutCache()
	n := cacheTestNetwork()
	first, err := c.OptimalTimeouts(n, coarseOpts())
	if err != nil {
		t.Fatal(err)
	}
	moved := *n
	moved.Paths = append([]Path(nil), n.Paths...)
	moved.Paths[0].RandDelay = dist.ShiftedGamma{Loc: 150 * time.Millisecond, Shape: 4, Scale: 5 * time.Millisecond}
	second, err := c.OptimalTimeouts(&moved, coarseOpts())
	if err != nil {
		t.Fatal(err)
	}
	if second == first {
		t.Fatal("delay change returned the stale cached table")
	}
	if hits, misses := c.Stats(); hits != 0 || misses != 2 {
		t.Fatalf("hits=%d misses=%d, want 0/2", hits, misses)
	}
	// Lifetime and search options are part of the key too.
	shorter := *n
	shorter.Lifetime = 400 * time.Millisecond
	third, err := c.OptimalTimeouts(&shorter, coarseOpts())
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 3 {
		t.Fatalf("cache holds %d tables, want 3", c.Len())
	}
	// The cache holds its tables weakly: keep all three alive to here.
	runtime.KeepAlive(first)
	runtime.KeepAlive(second)
	runtime.KeepAlive(third)
}

// unkeyableDelay is a Delay implementation the cache cannot identify.
type unkeyableDelay struct{ dist.Deterministic }

// TestTimeoutCacheBypassesUnknownDistributions: unknown delay models
// must compute every time (counted as misses), never alias distinct
// instances onto one key.
func TestTimeoutCacheBypassesUnknownDistributions(t *testing.T) {
	c := NewTimeoutCache()
	n := NewNetwork(10*Mbps, 500*time.Millisecond,
		Path{Bandwidth: 20 * Mbps, Loss: 0.1,
			RandDelay: unkeyableDelay{dist.Deterministic{D: 100 * time.Millisecond}}},
	)
	for i := 0; i < 2; i++ {
		if _, err := c.OptimalTimeouts(n, coarseOpts()); err != nil {
			t.Fatal(err)
		}
	}
	if hits, misses := c.Stats(); hits != 0 || misses != 2 {
		t.Fatalf("hits=%d misses=%d, want 0/2 (bypass)", hits, misses)
	}
	if c.Len() != 0 {
		t.Fatal("unkeyable network was cached")
	}
}

// TestTimeoutCacheConcurrent hammers one cache from many goroutines
// mixing hit and miss keys (for the race detector).
func TestTimeoutCacheConcurrent(t *testing.T) {
	c := NewTimeoutCache()
	n := cacheTestNetwork()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			net := *n
			net.Rate *= 1 + float64(w)/10 // λ drift only: same key
			// Each worker holds its latest table, as a serve session does.
			var held *Timeouts
			for i := 0; i < 3; i++ {
				to, err := c.OptimalTimeouts(&net, coarseOpts())
				if err != nil {
					t.Error(err)
					return
				}
				held = to
			}
			runtime.KeepAlive(held)
		}(w)
	}
	wg.Wait()
	hits, misses := c.Stats()
	if hits+misses != 24 {
		t.Fatalf("hits=%d misses=%d, want 24 lookups", hits, misses)
	}
	if hits == 0 {
		t.Fatal("no concurrent lookup ever hit")
	}
}

// TestTimeoutCacheBounded: drifting delays make a new key per lookup. A
// caller that keeps only its latest table, as a serve session does,
// leaves only that table cached once the collector has run; the held
// table still hits, Stats counts every lookup, and once the caller lets
// go of it too the cache is empty.
func TestTimeoutCacheBounded(t *testing.T) {
	c := NewTimeoutCache()
	n := NewNetwork(10*Mbps, 500*time.Millisecond, Path{Bandwidth: 20 * Mbps})
	const stores = 64
	var held *Timeouts
	for k := range stores {
		n.Paths[0].Delay = 100*time.Millisecond + time.Duration(k)*time.Microsecond
		var err error
		if held, err = c.OptimalTimeouts(n, coarseOpts()); err != nil {
			t.Fatal(err)
		}
	}
	waitCacheLen(t, c, 1)
	again, err := c.OptimalTimeouts(n, coarseOpts())
	if err != nil {
		t.Fatal(err)
	}
	if again != held {
		t.Fatal("the held table was not the one cached")
	}
	if hits, misses := c.Stats(); hits != 1 || misses != stores {
		t.Fatalf("hits=%d misses=%d, want 1 and %d (the held table must hit)", hits, misses, stores)
	}
	// Nothing holds the table past its last use above.
	waitCacheLen(t, c, 0)
}

// waitCacheLen runs the collector until c holds want tables: a freed
// table's entry is removed by a cleanup that runs after the collection
// that freed it.
func waitCacheLen(t *testing.T, c *TimeoutCache, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for c.Len() != want {
		if time.Now().After(deadline) {
			t.Fatalf("cache holds %d tables, want %d", c.Len(), want)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}
