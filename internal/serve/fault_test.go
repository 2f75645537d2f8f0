package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"math/rand/v2"

	"dmc/internal/core"
	"dmc/internal/fault"
	"dmc/internal/scenario"
)

// always builds a single-point plan that fires kind on every hit.
func always(point string, kind fault.Kind, latency time.Duration) *fault.Plan {
	return &fault.Plan{Seed: 1, Points: map[string][]fault.Spec{
		point: {{Kind: kind, Prob: 1, Latency: latency}},
	}}
}

// metricsFor fetches and decodes /metrics.
func metricsFor(t *testing.T, base string) Metrics {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	var m Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decode /metrics: %v", err)
	}
	return m
}

func sumShards(m Metrics, f func(ShardMetrics) uint64) uint64 {
	var total uint64
	for _, sm := range m.Shards {
		total += f(sm)
	}
	return total
}

// TestSolverPanicIsolatedAndQuarantined: an injected panic mid-warm-
// resolve must answer 500 (typed solver panic), leave the shard worker
// alive, quarantine the session's solver (next solve cold but correct),
// and let the session warm back up afterwards.
func TestSolverPanicIsolatedAndQuarantined(t *testing.T) {
	defer fault.Deactivate()
	srv, base := newTestServer(t, Config{Shards: 1})
	rng := rand.New(rand.NewPCG(0xfa01, 1))
	wire := testNetwork(rng, 3)

	// Prime the session warm.
	solveOK(t, base, scenario.SolveRequest{Solve: scenario.Solve{Network: wire}, SessionID: "s1"})
	wire = driftWire(rng, wire, 0.05)
	if got := solveOK(t, base, scenario.SolveRequest{Solve: scenario.Solve{Network: wire}, SessionID: "s1"}); !got.Result.Warm {
		t.Fatal("session did not warm up before the fault")
	}

	fault.Activate(always("core.resolve.warm", fault.Panic, 0))
	wire = driftWire(rng, wire, 0.05)
	status, body := postJSON(t, base+"/v1/solve", scenario.SolveRequest{Solve: scenario.Solve{Network: wire}, SessionID: "s1"})
	if status != http.StatusInternalServerError {
		t.Fatalf("panicking solve status %d: %s", status, body)
	}
	if !strings.Contains(string(body), "solver panic") {
		t.Fatalf("500 body does not name the panic: %s", body)
	}
	fault.Deactivate()

	// The shard worker survived and the poisoned warm state is gone:
	// next solve runs cold and matches a fresh library solve.
	got := solveOK(t, base, scenario.SolveRequest{Solve: scenario.Solve{Network: wire}, SessionID: "s1"})
	if got.Result.Warm {
		t.Fatal("post-panic solve reported warm; quarantine did not discard the poisoned solver")
	}
	ref, err := core.SolveQuality(toCore(t, wire))
	if err != nil {
		t.Fatal(err)
	}
	if gap := ref.Quality - got.Result.Quality; gap > 1e-6 || gap < -1e-6 {
		t.Fatalf("post-panic quality %v vs reference %v", got.Result.Quality, ref.Quality)
	}

	wire = driftWire(rng, wire, 0.05)
	if got := solveOK(t, base, scenario.SolveRequest{Solve: scenario.Solve{Network: wire}, SessionID: "s1"}); !got.Result.Warm {
		t.Fatal("session did not re-warm after quarantine")
	}

	if m := srv.Metrics(); sumShards(m, func(sm ShardMetrics) uint64 { return sm.Panics }) == 0 {
		t.Error("panics metric did not count the recovered panic")
	}
}

// TestBudgetExpiredShed: tasks whose budget_ms runs out while queued
// behind slow tasks holding every worker are shed with 504 +
// Retry-After, before solver work, and counted in shed_expired.
func TestBudgetExpiredShed(t *testing.T) {
	defer fault.Deactivate()
	const workers = 2
	srv, base := newPinnedServer(t, workers, Config{Shards: 1})
	rng := rand.New(rand.NewPCG(0xfa02, 1))
	wire := testNetwork(rng, 2)

	fault.Activate(always("serve.exec", fault.Latency, 300*time.Millisecond))
	const n = workers + 2
	statuses := make([]int, n)
	var wg sync.WaitGroup
	post := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := scenario.SolveRequest{Solve: scenario.Solve{Network: wire}}
			req.SessionID = "budget"
			req.BudgetMs = 50
			statuses[i], _ = postJSONAsync(t, base+"/v1/solve", req)
		}()
	}
	// The first requests occupy every worker; the rest queue behind
	// them and age past their budgets.
	for i := 0; i < workers; i++ {
		post(i)
	}
	waitHits(t, "serve.exec", workers)
	for i := workers; i < n; i++ {
		post(i)
	}
	wg.Wait()
	fault.Deactivate()

	var ok, expired int
	for _, st := range statuses {
		switch st {
		case http.StatusOK:
			ok++
		case http.StatusGatewayTimeout:
			expired++
		default:
			t.Fatalf("unexpected status %d (want 200 or 504)", st)
		}
	}
	if ok == 0 || expired == 0 {
		t.Fatalf("want a mix of served and shed tasks, got %d ok / %d expired", ok, expired)
	}
	if m := srv.Metrics(); sumShards(m, func(sm ShardMetrics) uint64 { return sm.ShedExpired }) != uint64(expired) {
		t.Errorf("shed_expired metric %d, want %d", sumShards(m, func(sm ShardMetrics) uint64 { return sm.ShedExpired }), expired)
	}
}

// TestBreakerTripsAndRecovers walks a shard breaker through its whole
// cycle: consecutive 500s trip it open (fast 503 + Retry-After, healthz
// unhealthy), the cooldown admits a half-open probe, and a clean probe
// closes it again.
func TestBreakerTripsAndRecovers(t *testing.T) {
	defer fault.Deactivate()
	srv, base := newTestServer(t, Config{
		Shards:           1,
		BreakerThreshold: 3, BreakerCooldown: 100 * time.Millisecond,
	})
	rng := rand.New(rand.NewPCG(0xfa03, 1))
	wire := testNetwork(rng, 2)
	req := scenario.SolveRequest{Solve: scenario.Solve{Network: wire}, SessionID: "brk"}

	fault.Activate(always("serve.exec", fault.Error, 0))
	for i := 0; i < 3; i++ {
		if st, body := postJSON(t, base+"/v1/solve", req); st != http.StatusInternalServerError {
			t.Fatalf("fault %d: status %d (%s), want 500", i, st, body)
		}
	}

	// Tripped: fail fast with Retry-After, no queue occupancy.
	resp, err := http.Post(base+"/v1/solve", "application/json", strings.NewReader(mustJSON(t, req)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("open-breaker status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("open-breaker 503 has no Retry-After")
	}
	m := srv.Metrics()
	if m.Shards[0].BreakerState != "open" || m.Shards[0].BreakerOpenTotal != 1 {
		t.Fatalf("breaker metrics %+v, want open/1", m.Shards[0])
	}
	if hr, err := http.Get(base + "/healthz"); err != nil {
		t.Fatal(err)
	} else {
		hr.Body.Close()
		if hr.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("healthz with every breaker open: %d, want 503", hr.StatusCode)
		}
	}

	// Heal the solver, wait out the cooldown: the half-open probe
	// succeeds and closes the breaker.
	fault.Deactivate()
	time.Sleep(150 * time.Millisecond)
	solveOK(t, base, req)
	if m := srv.Metrics(); m.Shards[0].BreakerState != "closed" {
		t.Fatalf("breaker state %q after a clean probe, want closed", m.Shards[0].BreakerState)
	}
	if hr, err := http.Get(base + "/healthz"); err != nil {
		t.Fatal(err)
	} else {
		hr.Body.Close()
		if hr.StatusCode != http.StatusOK {
			t.Fatalf("healthz after recovery: %d, want 200", hr.StatusCode)
		}
	}
}

// TestBreakerServesDegraded: with ServeDegraded on, an open breaker
// answers a known session from its last good strategy, marked
// "degraded", instead of a 503 — and still 503s sessions with no
// history.
func TestBreakerServesDegraded(t *testing.T) {
	defer fault.Deactivate()
	srv, base := newTestServer(t, Config{
		Shards:           1,
		BreakerThreshold: 2, BreakerCooldown: time.Hour, // stays open for the whole test
		ServeDegraded: true,
	})
	rng := rand.New(rand.NewPCG(0xfa04, 1))
	wire := testNetwork(rng, 3)
	req := scenario.SolveRequest{Solve: scenario.Solve{Network: wire}, SessionID: "deg"}

	good := solveOK(t, base, req)

	fault.Activate(always("serve.exec", fault.Error, 0))
	for i := 0; i < 2; i++ {
		if st, _ := postJSON(t, base+"/v1/solve", req); st != http.StatusInternalServerError {
			t.Fatalf("fault %d did not 500", i)
		}
	}
	fault.Deactivate()

	status, body := postJSON(t, base+"/v1/solve", req)
	if status != http.StatusOK {
		t.Fatalf("degraded solve status %d: %s", status, body)
	}
	var resp scenario.SolveResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded || resp.Resolved || resp.Result == nil {
		t.Fatalf("want a degraded unsolved response, got %s", body)
	}
	if resp.Result.Quality != good.Result.Quality {
		t.Errorf("degraded quality %v, want the last good %v", resp.Result.Quality, good.Result.Quality)
	}

	// A session with no history still gets the honest 503.
	fresh := scenario.SolveRequest{Solve: scenario.Solve{Network: wire}, SessionID: "nohistory"}
	if st, _ := postJSON(t, base+"/v1/solve", fresh); st != http.StatusServiceUnavailable {
		t.Fatalf("no-history session under open breaker: status %d, want 503", st)
	}

	if m := srv.Metrics(); m.Shards[0].DegradedServed != 1 {
		t.Errorf("degraded_served %d, want 1", m.Shards[0].DegradedServed)
	}
}

// TestAbandonedTasksShed: a client that disconnects while its task
// queues must not cost a solve; the worker sheds it and counts
// abandoned.
func TestAbandonedTasksShed(t *testing.T) {
	defer fault.Deactivate()
	const workers = 2
	srv, base := newPinnedServer(t, workers, Config{Shards: 1})
	rng := rand.New(rand.NewPCG(0xfa05, 1))
	wire := testNetwork(rng, 2)

	fault.Activate(always("serve.exec", fault.Latency, 300*time.Millisecond))
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			postJSONAsync(t, base+"/v1/solve", scenario.SolveRequest{Solve: scenario.Solve{Network: wire}, SessionID: fmt.Sprintf("slow-%d", i)})
		}(i)
	}
	waitHits(t, "serve.exec", workers) // every worker is now mid-exec

	// This request queues behind them, then its client walks away.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/solve",
		strings.NewReader(mustJSON(t, scenario.SolveRequest{Solve: scenario.Solve{Network: wire}, SessionID: "gone"})))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	if _, err := http.DefaultClient.Do(hreq); err == nil {
		t.Fatal("abandoned request unexpectedly completed")
	}
	wg.Wait()
	fault.Deactivate()

	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := sumShards(srv.Metrics(), func(sm ShardMetrics) uint64 { return sm.Abandoned }); n >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("abandoned task was never shed")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestAbandonedWaitFreesItsPlace: a client that leaves while its task
// waits for an execution slot gives its place in the queue up at once,
// so the next request on a full shard is admitted rather than turned
// away with 429 until a slot comes free.
func TestAbandonedWaitFreesItsPlace(t *testing.T) {
	defer fault.Deactivate()
	const workers = 2
	const hold = time.Second
	srv, base := newPinnedServer(t, workers, Config{Shards: 1, MaxQueue: 1})
	rng := rand.New(rand.NewPCG(0xfa07, 1))
	wire := testNetwork(rng, 2)
	queueDepth := func() int { return srv.Metrics().Shards[0].QueueDepth }

	fault.Activate(always("serve.exec", fault.Latency, hold))
	var wg sync.WaitGroup
	defer wg.Wait()
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			postJSONAsync(t, base+"/v1/solve", scenario.SolveRequest{Solve: scenario.Solve{Network: wire}, SessionID: fmt.Sprintf("slow-%d", i)})
		}(i)
	}
	waitHits(t, "serve.exec", workers) // both slots are held for hold

	// This request takes the one place in the queue, then its client
	// walks away.
	ctx, cancel := context.WithCancel(context.Background())
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/solve",
		strings.NewReader(mustJSON(t, scenario.SolveRequest{Solve: scenario.Solve{Network: wire}, SessionID: "gone"})))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	gone := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(hreq)
		if err == nil {
			resp.Body.Close()
		}
		gone <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for queueDepth() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("the waiting request never queued")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-gone; err == nil {
		t.Fatal("abandoned request unexpectedly completed")
	}
	// The server sees the client leave within moments; the slots stay
	// held for hold, so a place freed only by a slot would come too late.
	deadline = time.Now().Add(hold / 2)
	for queueDepth() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	fault.Deactivate()

	status, body := postJSON(t, base+"/v1/solve", scenario.SolveRequest{Solve: scenario.Solve{Network: wire}, SessionID: "next"})
	if status != http.StatusOK {
		t.Fatalf("request after the abandoned one: status %d (%s), want 200", status, body)
	}
	if n := sumShards(srv.Metrics(), func(sm ShardMetrics) uint64 { return sm.Abandoned }); n != 1 {
		t.Errorf("abandoned = %d, want 1", n)
	}
}

// TestBudgetValidation rejects malformed budget_ms values up front.
func TestBudgetValidation(t *testing.T) {
	_, base := newTestServer(t, Config{Shards: 1})
	rng := rand.New(rand.NewPCG(0xfa06, 1))
	wire := testNetwork(rng, 2)
	req := scenario.SolveRequest{Solve: scenario.Solve{Network: wire}, BudgetMs: -5}
	if st, body := postJSON(t, base+"/v1/solve", req); st != http.StatusBadRequest {
		t.Fatalf("budget_ms=-5 status %d (%s), want 400", st, body)
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	buf, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(buf)
}
