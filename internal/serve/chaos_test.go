package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"testing"
	"time"

	"math/rand/v2"

	"dmc/internal/core"
	"dmc/internal/fault"
	"dmc/internal/scenario"
)

// postJSONClient is postJSON on a caller-supplied client (the chaos
// test uses a hard client timeout so a hung request fails loudly
// instead of stalling the test).
func postJSONClient(t *testing.T, c *http.Client, url string, body any) (int, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := c.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, out
}

func mustUnmarshal(t *testing.T, data []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("decode %s: %v", data, err)
	}
}

// chaosIters returns the fault-storm iteration count: a few by default
// (tier-1 keeps this test cheap), raised via DMC_CHAOS_ITERS by `make
// chaos-smoke`.
func chaosIters(t *testing.T) int {
	if s := os.Getenv("DMC_CHAOS_ITERS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			t.Fatalf("DMC_CHAOS_ITERS=%q is not a positive integer", s)
		}
		return n
	}
	return 3
}

// stormPlan arms every registered injection seam at once: errors at the
// warm-path fallback seams, panics at the resolve and exec seams, and
// latency in exec — seeded per iteration so each storm differs but
// every run of the test replays the same storms.
func stormPlan(seed uint64) *fault.Plan {
	return &fault.Plan{
		Seed: seed,
		Points: map[string][]fault.Spec{
			"lp.warm.install":   {{Kind: fault.Error, Prob: 0.3}},
			"lp.append":         {{Kind: fault.Error, Prob: 0.3}},
			"core.cg.reprice":   {{Kind: fault.Error, Prob: 0.25}},
			"core.resolve.warm": {{Kind: fault.Panic, Prob: 0.08}, {Kind: fault.Error, Prob: 0.25}},
			"serve.exec": {
				{Kind: fault.Panic, Prob: 0.04},
				{Kind: fault.Error, Prob: 0.12},
				{Kind: fault.Latency, Prob: 0.15, Latency: time.Millisecond},
			},
		},
	}
}

// reshapeWire drops a 15-path network's last path or gives a 14-path
// one a fresh path: both shapes (3,375 and 4,096 combinations at three
// transmissions) solve by column generation, and the shape change makes
// the next solve of the session a cold one.
func reshapeWire(rng *rand.Rand, n scenario.Network) scenario.Network {
	out := n
	if len(n.Paths) == 15 {
		out.Paths = n.Paths[:14:14]
		return out
	}
	out.Paths = append(append([]scenario.Path(nil), n.Paths...), testNetwork(rng, 1).Paths[0])
	out.Paths[len(out.Paths)-1].Name = "p14"
	return out
}

// TestChaosFleetSurvivesFaultStorms is the tentpole invariant test: a
// 104-session drifting fleet served through repeated randomized fault
// storms (panics, errors, latency at every registered seam), asserting
// after every storm that
//
//   - every armed injection point was reached — the fleet's 15×3
//     sessions (4,096 combinations) take the column-generation path,
//     where lp.append, lp.warm.install and core.cg.reprice sit, so the
//     cold-reference check below covers it; only the CG sessions that
//     re-solve warm reach lp.warm.install, since the dense dispatch
//     re-installs no basis,
//   - the process and every shard worker survive (requests keep
//     completing),
//   - no request hangs (every HTTP call returns within its client
//     timeout),
//   - every 200 is optimal to 1e-6 against an independent cold solve,
//     and every failure is an honest 4xx/5xx,
//   - the fleet returns to warm serving once the storm passes, and
//   - Close still drains cleanly with no goroutine leak.
func TestChaosFleetSurvivesFaultStorms(t *testing.T) {
	defer fault.Deactivate()
	iters := chaosIters(t)

	srv, err := New(Config{
		Shards:           2,
		BreakerThreshold: 6, BreakerCooldown: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	client := &http.Client{Timeout: 30 * time.Second}
	base := ts.URL

	// 64 small sessions on the dense dispatch, then cgSessions past the
	// dense threshold, the last reshaped of them changing shape every
	// storm.
	const small, cgSessions, reshaped = 64, 40, 8
	const fleet = small + cgSessions
	rng := rand.New(rand.NewPCG(0xc4a05, 7))
	wires := make([]scenario.Network, fleet)
	for i := range wires {
		if i < small {
			wires[i] = testNetwork(rng, 2+i%3)
			continue
		}
		wires[i] = testNetwork(rng, 15)
		wires[i].Transmissions = 3
	}
	sessionID := func(i int) string { return "chaos-" + strconv.Itoa(i) }
	post := func(i int) (int, scenario.SolveResponse) {
		t.Helper()
		req := scenario.SolveRequest{Solve: scenario.Solve{Network: wires[i]}, SessionID: sessionID(i)}
		req.BudgetMs = 20_000
		status, body := postJSONClient(t, client, base+"/v1/solve", req)
		var resp scenario.SolveResponse
		if status == http.StatusOK {
			mustUnmarshal(t, body, &resp)
		}
		return status, resp
	}

	// Round 0, faults off: establish every session.
	for i := 0; i < fleet; i++ {
		if status, _ := post(i); status != http.StatusOK {
			t.Fatalf("session %d failed to establish: %d", i, status)
		}
	}

	for iter := 1; iter <= iters; iter++ {
		// The reshaped sessions gain or lose a path, so the storm re-primes
		// them with a cold column generation, which appends columns; the
		// others drift and re-solve warm.
		for i := range wires {
			if i >= fleet-reshaped {
				wires[i] = reshapeWire(rng, wires[i])
				continue
			}
			wires[i] = driftWire(rng, wires[i], 0.06)
		}

		// The storm: every seam armed, fleet re-solved concurrently.
		plan := stormPlan(uint64(iter))
		fault.Activate(plan)
		type outcome struct {
			status  int
			quality float64
		}
		outcomes := make([]outcome, fleet)
		done := make(chan int, fleet)
		for i := 0; i < fleet; i++ {
			go func(i int) {
				defer func() { done <- i }()
				status, resp := post(i)
				outcomes[i] = outcome{status: status}
				if status == http.StatusOK {
					outcomes[i].quality = resp.Result.Quality
				}
			}(i)
		}
		for i := 0; i < fleet; i++ {
			<-done
		}
		stats := fault.Stats()
		fault.Deactivate()
		for name := range plan.Points {
			if stats[name].Hits == 0 {
				t.Fatalf("iter %d: armed point %s was never reached", iter, name)
			}
		}

		// Every response honest: a 200 must be optimal to 1e-6 against
		// an independent cold solve of the same drifted network; every
		// failure must be a deliberate verdict, never a mangled result.
		for i, oc := range outcomes {
			switch oc.status {
			case http.StatusOK:
				ref, err := core.SolveQuality(toCore(t, wires[i]))
				if err != nil {
					t.Fatal(err)
				}
				if gap := ref.Quality - oc.quality; gap > 1e-6 || gap < -1e-6 {
					t.Fatalf("iter %d session %d: served %v under faults, reference %v", iter, i, oc.quality, ref.Quality)
				}
			case http.StatusInternalServerError, http.StatusServiceUnavailable,
				http.StatusGatewayTimeout, http.StatusTooManyRequests:
				// Honest failure.
			default:
				t.Fatalf("iter %d session %d: dishonest status %d", iter, i, oc.status)
			}
		}

		// Recovery: with faults off every session must serve again
		// (breakers close after their cooldown probes).
		deadline := time.Now().Add(10 * time.Second)
		for i := 0; i < fleet; i++ {
			for {
				status, _ := post(i)
				if status == http.StatusOK {
					break
				}
				if status != http.StatusServiceUnavailable || time.Now().After(deadline) {
					t.Fatalf("iter %d session %d: stuck at %d after the storm", iter, i, status)
				}
				time.Sleep(20 * time.Millisecond)
			}
		}

		// Warm recovery: one clean drift round after the storm, the
		// majority of the fleet must be back on warm state despite any
		// quarantines the storm caused.
		for i := range wires {
			wires[i] = driftWire(rng, wires[i], 0.06)
		}
		warm := 0
		for i := 0; i < fleet; i++ {
			status, resp := post(i)
			if status != http.StatusOK {
				t.Fatalf("iter %d session %d: clean round failed with %d", iter, i, status)
			}
			if resp.Result.Warm {
				warm++
			}
		}
		if warm < fleet/2 {
			t.Fatalf("iter %d: only %d/%d warm after the storm; warm-hit rate did not recover", iter, warm, fleet)
		}
	}

	// Close drains and leaks nothing.
	client.CloseIdleConnections()
	before := runtime.NumGoroutine()
	ts.Close()
	srv.Close()
	for i := 0; i < 200 && runtime.NumGoroutine() >= before; i++ {
		time.Sleep(5 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after >= before {
		t.Errorf("goroutines %d -> %d across Close; shard workers leaked", before, after)
	}
}
