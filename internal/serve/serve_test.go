package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"dmc/internal/core"
	"dmc/internal/estimate"
	"dmc/internal/fault"
	"dmc/internal/scenario"
)

// testNetwork builds a deterministic-delay wire network with the given
// path count.
func testNetwork(rng *rand.Rand, paths int) scenario.Network {
	n := scenario.Network{
		LifetimeMs:    150,
		Transmissions: 2,
	}
	var total float64
	for i := 0; i < paths; i++ {
		bw := 1 + 2*rng.Float64()
		total += bw
		n.Paths = append(n.Paths, scenario.Path{
			Name:          fmt.Sprintf("p%d", i),
			BandwidthMbps: bw,
			DelayMs:       20 + 60*rng.Float64(),
			Loss:          0.01 + 0.09*rng.Float64(),
			Cost:          0.5 + rng.Float64(),
		})
	}
	n.RateMbps = 0.6 * total
	return n
}

// driftWire perturbs loss and bandwidth by up to ±maxRel, keeping the
// same shape so session solvers stay warm.
func driftWire(rng *rand.Rand, n scenario.Network, maxRel float64) scenario.Network {
	out := n
	out.Paths = append([]scenario.Path(nil), n.Paths...)
	rel := func() float64 { return 1 + maxRel*(2*rng.Float64()-1) }
	for i := range out.Paths {
		out.Paths[i].Loss = math.Min(0.5, out.Paths[i].Loss*rel())
		out.Paths[i].BandwidthMbps *= rel()
	}
	return out
}

func toCore(t *testing.T, n scenario.Network) *core.Network {
	t.Helper()
	cn, err := n.ToNetwork()
	if err != nil {
		t.Fatalf("ToNetwork: %v", err)
	}
	return cn
}

// postJSON posts body to url and returns the status plus decoded body.
func postJSON(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	status, out := postJSONAsync(t, url, body)
	if status == 0 {
		t.FailNow()
	}
	return status, out
}

// postJSONAsync is postJSON for goroutines other than the test's own:
// a failed request is reported with t.Error and returns status 0, since
// only the test goroutine may stop the test.
func postJSONAsync(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Errorf("marshal: %v", err)
		return 0, nil
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Errorf("POST %s: %v", url, err)
		return 0, nil
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Errorf("read body: %v", err)
		return 0, nil
	}
	return resp.StatusCode, out
}

func solveOK(t *testing.T, base string, req scenario.SolveRequest) scenario.SolveResponse {
	t.Helper()
	status, body := postJSON(t, base+"/v1/solve", req)
	if status != http.StatusOK {
		t.Fatalf("/v1/solve status %d: %s", status, body)
	}
	var resp scenario.SolveResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	if resp.Result == nil {
		t.Fatalf("solve response has no result: %s", body)
	}
	return resp
}

func newTestServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts.URL
}

// newPinnedServer is newTestServer with exactly workers execution slots
// per shard on any machine: New sizes each shard's slots from
// GOMAXPROCS, so it is pinned around the call.
func newPinnedServer(t *testing.T, workers int, cfg Config) (*Server, string) {
	t.Helper()
	prev := runtime.GOMAXPROCS(workers)
	defer runtime.GOMAXPROCS(prev)
	return newTestServer(t, cfg)
}

// waitHits blocks until the named injection point has been hit at
// least n times under the active plan. With latency armed on
// serve.exec, n hits means n tasks are holding an execution slot.
func waitHits(t *testing.T, point string, n uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for fault.Stats()[point].Hits < n {
		if time.Now().After(deadline) {
			t.Fatalf("%s hit %d times in 10s, want %d", point, fault.Stats()[point].Hits, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServeFleetDrift drives a 64-session fleet over HTTP through
// solve → drift → re-solve rounds with concurrent requests (so workers
// overlap), asserting every optimum matches a per-session library
// Resolve trajectory to 1e-6 and that every re-solve after the first
// round is served warm from the session's keyed solver.
func TestServeFleetDrift(t *testing.T) {
	srv, base := newTestServer(t, Config{Shards: 4})
	rng := rand.New(rand.NewPCG(7, 1))

	const fleet = 64
	nets := make([]scenario.Network, fleet)
	refs := make([]*core.Solver, fleet)
	for i := range nets {
		nets[i] = testNetwork(rng, 2+i%3)
		refs[i] = core.NewSolver()
	}

	for round := 0; round < 4; round++ {
		want := make([]float64, fleet)
		for i := range nets {
			if round > 0 {
				nets[i] = driftWire(rng, nets[i], 0.25)
			}
			sol, err := refs[i].Resolve(toCore(t, nets[i]))
			if err != nil {
				t.Fatalf("round %d session %d reference: %v", round, i, err)
			}
			want[i] = sol.Quality
		}

		got := make([]scenario.SolveResponse, fleet)
		errs := make([]error, fleet)
		var wg sync.WaitGroup
		for i := 0; i < fleet; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				status, body := postJSON(t, base+"/v1/solve", scenario.SolveRequest{
					Solve:     scenario.Solve{Network: nets[i]},
					SessionID: fmt.Sprintf("fleet-%03d", i),
				})
				if status != http.StatusOK {
					errs[i] = fmt.Errorf("status %d: %s", status, body)
					return
				}
				errs[i] = json.Unmarshal(body, &got[i])
			}(i)
		}
		wg.Wait()

		for i := 0; i < fleet; i++ {
			if errs[i] != nil {
				t.Fatalf("round %d session %d: %v", round, i, errs[i])
			}
			r := got[i].Result
			if math.Abs(r.Quality-want[i]) > 1e-6 {
				t.Errorf("round %d session %d quality %.9f, library Resolve %.9f", round, i, r.Quality, want[i])
			}
			if round > 0 && !r.Warm {
				t.Errorf("round %d session %d re-solve was not warm", round, i)
			}
		}
	}

	if n := srv.Sessions(); n != fleet {
		t.Errorf("Sessions() = %d, want %d", n, fleet)
	}
	m := srv.Metrics()
	var waves, solves uint64
	for _, sm := range m.Shards {
		waves += sm.Waves
		solves += sm.Solves
	}
	if solves != 4*fleet {
		t.Errorf("metrics count %d solves, want %d", solves, 4*fleet)
	}
	if waves < 1 || waves > solves {
		t.Errorf("%d busy periods for %d solves, want 1 ≤ waves ≤ solves", waves, solves)
	}
	if m.Sessions != fleet {
		t.Errorf("metrics report %d sessions, want %d", m.Sessions, fleet)
	}
}

// TestServeObjectives checks all three objectives round-trip over HTTP
// with results matching the library entry points.
func TestServeObjectives(t *testing.T) {
	_, base := newTestServer(t, Config{Shards: 1})
	rng := rand.New(rand.NewPCG(11, 2))
	wire := testNetwork(rng, 3)
	net := toCore(t, wire)

	t.Run("quality one-shot", func(t *testing.T) {
		want, err := core.SolveQuality(net)
		if err != nil {
			t.Fatal(err)
		}
		resp := solveOK(t, base, scenario.SolveRequest{Solve: scenario.Solve{Network: wire}})
		if math.Abs(resp.Result.Quality-want.Quality) > 1e-6 {
			t.Errorf("quality %.9f, library %.9f", resp.Result.Quality, want.Quality)
		}
		if !resp.Resolved || resp.SessionID != "" {
			t.Errorf("one-shot response: resolved=%v session=%q", resp.Resolved, resp.SessionID)
		}
	})

	t.Run("mincost session", func(t *testing.T) {
		floor := 0.9 * mustQuality(t, net)
		want, err := core.SolveMinCost(net, floor)
		if err != nil {
			t.Fatal(err)
		}
		resp := solveOK(t, base, scenario.SolveRequest{
			Solve:     scenario.Solve{Network: wire, Objective: scenario.ObjectiveMinCost, MinQuality: floor},
			SessionID: "obj-mincost",
		})
		if math.Abs(resp.Result.CostPerSecond-want.Cost()) > 1e-6*math.Max(1, want.Cost()) {
			t.Errorf("cost %.9f, library %.9f", resp.Result.CostPerSecond, want.Cost())
		}
		if resp.Result.Quality < floor-1e-9 {
			t.Errorf("served quality %.9f below floor %.9f", resp.Result.Quality, floor)
		}
	})

	t.Run("random session", func(t *testing.T) {
		gwire := wire
		gwire.Paths = append([]scenario.Path(nil), wire.Paths...)
		for i := range gwire.Paths {
			gwire.Paths[i].DelayMs = 0
			gwire.Paths[i].DelayGamma = &scenario.Gamma{LocMs: 10 + 5*float64(i), Shape: 2, ScaleMs: 6}
		}
		gnet := toCore(t, gwire)
		spec := scenario.TimeoutSpec{GridStepMs: 5, RefineLevels: 2, ConvolutionNodes: 200}
		to, err := core.OptimalTimeouts(gnet, spec.Options())
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.SolveQualityRandom(gnet, to)
		if err != nil {
			t.Fatal(err)
		}
		resp := solveOK(t, base, scenario.SolveRequest{
			Solve:     scenario.Solve{Network: gwire, Objective: scenario.ObjectiveRandom, Timeout: &spec},
			SessionID: "obj-random",
		})
		if math.Abs(resp.Result.Quality-want.Quality) > 1e-6 {
			t.Errorf("quality %.9f, library %.9f", resp.Result.Quality, want.Quality)
		}
		if len(resp.Result.TimeoutsMs) == 0 {
			t.Error("random objective response carries no timeout table")
		}
	})
}

func mustQuality(t *testing.T, n *core.Network) float64 {
	t.Helper()
	sol, err := core.SolveQuality(n)
	if err != nil {
		t.Fatal(err)
	}
	return sol.Quality
}

// TestServeEstimator drives a session estimator feed over HTTP and
// checks it against a reference estimate.Adaptor fed identically.
func TestServeEstimator(t *testing.T) {
	_, base := newTestServer(t, Config{Shards: 1})
	rng := rand.New(rand.NewPCG(3, 9))
	wire := testNetwork(rng, 3)

	ref, err := estimate.NewAdaptor(toCore(t, wire))
	if err != nil {
		t.Fatal(err)
	}
	refSol, _, err := ref.Solution()
	if err != nil {
		t.Fatal(err)
	}

	resp := solveOK(t, base, scenario.SolveRequest{
		Solve:     scenario.Solve{Network: wire},
		SessionID: "est-1",
		Estimator: true,
	})
	if math.Abs(resp.Result.Quality-refSol.Quality) > 1e-6 {
		t.Errorf("estimator bootstrap quality %.9f, reference %.9f", resp.Result.Quality, refSol.Quality)
	}

	observe := func(obs []scenario.PathObservation) scenario.SolveResponse {
		t.Helper()
		status, body := postJSON(t, base+"/v1/observe", scenario.ObserveRequest{SessionID: "est-1", Paths: obs})
		if status != http.StatusOK {
			t.Fatalf("/v1/observe status %d: %s", status, body)
		}
		var out scenario.SolveResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	feedRef := func(obs []scenario.PathObservation) (*core.Solution, bool) {
		t.Helper()
		for _, p := range obs {
			for i := 0; i < p.Sent; i++ {
				ref.ObserveSend(p.Path)
			}
			for i := 0; i < p.Lost; i++ {
				ref.ObserveLoss(p.Path)
			}
			for _, ms := range p.RTTMs {
				ref.ObserveRTT(p.Path, time.Duration(ms*float64(time.Millisecond)))
			}
		}
		sol, resolved, err := ref.Solution()
		if err != nil {
			t.Fatal(err)
		}
		return sol, resolved
	}

	// Heavy loss on path 0 must drift the estimate and trigger a warm
	// re-solve; a tiny follow-up batch must not.
	for step, obs := range [][]scenario.PathObservation{
		{{Path: 0, Sent: 400, Lost: 120, RTTMs: []float64{40, 44, 39}}, {Path: 1, Sent: 400, Lost: 8}},
		{{Path: 1, Sent: 2, Lost: 0}},
	} {
		got := observe(obs)
		wantSol, wantResolved := feedRef(obs)
		if got.Resolved != wantResolved {
			t.Errorf("step %d resolved=%v, reference %v", step, got.Resolved, wantResolved)
		}
		if math.Abs(got.Result.Quality-wantSol.Quality) > 1e-6 {
			t.Errorf("step %d quality %.9f, reference %.9f", step, got.Result.Quality, wantSol.Quality)
		}
	}

	// Estimator preconditions.
	status, _ := postJSON(t, base+"/v1/solve", scenario.SolveRequest{
		Solve: scenario.Solve{Network: wire}, Estimator: true,
	})
	if status != http.StatusBadRequest {
		t.Errorf("estimator without session: status %d, want 400", status)
	}
	status, _ = postJSON(t, base+"/v1/solve", scenario.SolveRequest{
		Solve:     scenario.Solve{Network: wire, Objective: scenario.ObjectiveMinCost},
		SessionID: "est-2", Estimator: true,
	})
	if status != http.StatusBadRequest {
		t.Errorf("estimator with mincost: status %d, want 400", status)
	}
	status, _ = postJSON(t, base+"/v1/observe", scenario.ObserveRequest{
		SessionID: "nobody", Paths: []scenario.PathObservation{{Path: 0, Sent: 1}},
	})
	if status != http.StatusNotFound {
		t.Errorf("observe unknown session: status %d, want 404", status)
	}
	status, _ = postJSON(t, base+"/v1/observe", scenario.ObserveRequest{
		SessionID: "est-1", Paths: []scenario.PathObservation{{Path: 99, Sent: 1}},
	})
	if status != http.StatusBadRequest {
		t.Errorf("observe out-of-range path: status %d, want 400", status)
	}

	// A plain solve supersedes the feed: observe now reports 409.
	solveOK(t, base, scenario.SolveRequest{Solve: scenario.Solve{Network: wire}, SessionID: "est-1"})
	status, _ = postJSON(t, base+"/v1/observe", scenario.ObserveRequest{
		SessionID: "est-1", Paths: []scenario.PathObservation{{Path: 0, Sent: 1}},
	})
	if status != http.StatusConflict {
		t.Errorf("observe after plain solve: status %d, want 409", status)
	}
}

// TestEstimatorBindKeepsSessionSolver: a session that goes plain →
// estimator → plain on one network shape re-solves warm when it
// returns to plain solves — an estimator bind leaves the session's own
// solver in place — and the warm answer matches a cold solve.
func TestEstimatorBindKeepsSessionSolver(t *testing.T) {
	_, base := newTestServer(t, Config{Shards: 1})
	rng := rand.New(rand.NewPCG(0xe5, 7))
	wire := testNetwork(rng, 3)
	solve := func(w scenario.Network, estimator bool) scenario.SolveResponse {
		t.Helper()
		return solveOK(t, base, scenario.SolveRequest{Solve: scenario.Solve{Network: w}, SessionID: "swap", Estimator: estimator})
	}
	if got := solve(wire, false); got.Result.Warm {
		t.Fatal("first plain solve reported warm")
	}
	wire = driftWire(rng, wire, 0.05)
	solve(wire, true)
	wire = driftWire(rng, wire, 0.05)
	got := solve(wire, false)
	if !got.Result.Warm {
		t.Fatal("plain solve after an estimator bind ran cold: the bind dropped the session's solver")
	}
	if want := mustQuality(t, toCore(t, wire)); math.Abs(got.Result.Quality-want) > 1e-6 {
		t.Fatalf("warm quality %.9f, cold %.9f", got.Result.Quality, want)
	}
}

// TestRandomSessionsKeepTheirTimeouts: the server's timeout cache holds
// its tables weakly and each random-objective session holds the table
// of its latest request, so every session's re-solves under
// loss/bandwidth drift hit the cache across collections, however many
// sessions there are, and dropping the sessions lets their tables go.
func TestRandomSessionsKeepTheirTimeouts(t *testing.T) {
	srv, base := newTestServer(t, Config{Shards: 1})
	rng := rand.New(rand.NewPCG(0x7c, 3))
	spec := scenario.TimeoutSpec{GridStepMs: 25, RefineLevels: 1, ConvolutionNodes: 200}
	wires := make([]scenario.Network, 4)
	for k := range wires {
		w := testNetwork(rng, 2)
		for i := range w.Paths {
			w.Paths[i].DelayMs = 0
			w.Paths[i].DelayGamma = &scenario.Gamma{LocMs: 10 + float64(k) + 5*float64(i), Shape: 2, ScaleMs: 6}
		}
		wires[k] = w
	}
	const rounds = 3
	for range rounds {
		runtime.GC()
		for k, w := range wires {
			solveOK(t, base, scenario.SolveRequest{
				Solve:     scenario.Solve{Network: w, Objective: scenario.ObjectiveRandom, Timeout: &spec},
				SessionID: fmt.Sprintf("rnd-%d", k),
			})
			wires[k] = driftWire(rng, w, 0.05)
		}
	}
	sessions := int64(len(wires))
	if hits, misses := srv.tcache.Stats(); hits != (rounds-1)*sessions || misses != sessions {
		t.Fatalf("hits=%d misses=%d, want %d and %d: a held table left the cache", hits, misses, (rounds-1)*sessions, sessions)
	}
	for k := range wires {
		if err := srv.DropSession(fmt.Sprintf("rnd-%d", k)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for srv.tcache.Len() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d tables still cached after every session was dropped", srv.tcache.Len())
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

// TestServeObserveHugeCounts checks observation counts fold in O(1):
// an unauthenticated body with astronomically large sent/lost counts
// must answer immediately (not spin a core under the session mutex)
// and feed the estimator exactly as the equivalent count-based calls.
func TestServeObserveHugeCounts(t *testing.T) {
	_, base := newTestServer(t, Config{Shards: 1})
	rng := rand.New(rand.NewPCG(19, 6))
	wire := testNetwork(rng, 2)

	ref, err := estimate.NewAdaptor(toCore(t, wire))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ref.Solution(); err != nil {
		t.Fatal(err)
	}

	solveOK(t, base, scenario.SolveRequest{
		Solve:     scenario.Solve{Network: wire},
		SessionID: "huge",
		Estimator: true,
	})

	const sent, lost = 1 << 60, 1 << 58
	start := time.Now()
	status, body := postJSON(t, base+"/v1/observe", scenario.ObserveRequest{
		SessionID: "huge",
		Paths:     []scenario.PathObservation{{Path: 0, Sent: sent, Lost: lost}},
	})
	if status != http.StatusOK {
		t.Fatalf("huge-count observe: status %d: %s", status, body)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("huge-count observe took %v; counts must not buy per-unit work", elapsed)
	}
	var got scenario.SolveResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	ref.ObserveSends(0, sent)
	ref.ObserveLosses(0, lost)
	refSol, refResolved, err := ref.Solution()
	if err != nil {
		t.Fatal(err)
	}
	if got.Resolved != refResolved {
		t.Errorf("resolved=%v, reference %v", got.Resolved, refResolved)
	}
	if math.Abs(got.Result.Quality-refSol.Quality) > 1e-6 {
		t.Errorf("quality %.9f, reference %.9f", got.Result.Quality, refSol.Quality)
	}
}

// TestSolveStatus pins the error→status mapping: client-caused verdicts
// are 4xx, unrecognized (server-side) failures are 500.
func TestSolveStatus(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want int
	}{
		{fmt.Errorf("wrapped: %w", core.ErrInfeasible), http.StatusUnprocessableEntity},
		{core.ErrRandomNeedsTwoTransmissions, http.StatusUnprocessableEntity},
		{errDropped, http.StatusGone},
		{errClosed, http.StatusServiceUnavailable},
		{fmt.Errorf("core: solving LP: numerical breakdown"), http.StatusInternalServerError},
	} {
		if got := solveStatus(tc.err); got != tc.want {
			t.Errorf("solveStatus(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}

// TestAdmitAfterClose checks the admission gate: an admission racing
// past a handler's closed check still fails with errClosed once Close
// has run, rather than admitting a task after Close stopped waiting.
func TestAdmitAfterClose(t *testing.T) {
	srv, err := New(Config{Shards: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	srv.Close()
	if err := srv.admit(srv.shards[0]); err != errClosed {
		t.Fatalf("admit after Close: err=%v, want errClosed", err)
	}
}

// TestIdleServerStartsNoGoroutines: a shard is an admission gate and
// its execution slots, and requests run on their own goroutines, so New
// starts no goroutine for any shard.
func TestIdleServerStartsNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	srv, err := New(Config{Shards: 16})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer srv.Close()
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("New with 16 shards started %d goroutines", after-before)
	}
}

// TestServeGracefulShutdown checks Close drains the shard: every
// request admitted before Close still gets its solution — those holding
// a worker and those still queued — and requests after Close get 503.
func TestServeGracefulShutdown(t *testing.T) {
	defer fault.Deactivate()
	const workers = 2
	srv, base := newPinnedServer(t, workers, Config{Shards: 1})
	rng := rand.New(rand.NewPCG(5, 5))
	wire := testNetwork(rng, 3)

	fault.Activate(always("serve.exec", fault.Latency, 100*time.Millisecond))
	const n = 8
	statuses := make([]int, n)
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			statuses[i], bodies[i] = postJSONAsync(t, base+"/v1/solve", scenario.SolveRequest{
				Solve:     scenario.Solve{Network: wire},
				SessionID: fmt.Sprintf("drain-%d", i),
			})
		}(i)
	}
	// Shut down once every request is admitted: workers tasks held in
	// exec latency, the rest queued behind them. Close must drain the
	// queue, not abandon it.
	waitHits(t, "serve.exec", workers)
	deadline := time.Now().Add(10 * time.Second)
	for srv.shards[0].waiting() < n-workers {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d requests queued", srv.shards[0].waiting(), n-workers)
		}
		time.Sleep(time.Millisecond)
	}
	closed := make(chan struct{})
	go func() { srv.Close(); close(closed) }()
	wg.Wait()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the queue drained")
	}
	fault.Deactivate()

	for i, st := range statuses {
		if st != http.StatusOK {
			t.Errorf("request %d admitted before Close got status %d: %s", i, st, bodies[i])
		}
	}

	status, _ := postJSON(t, base+"/v1/solve", scenario.SolveRequest{Solve: scenario.Solve{Network: wire}})
	if status != http.StatusServiceUnavailable {
		t.Errorf("solve after Close: status %d, want 503", status)
	}
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz after Close: status %d, want 503", resp.StatusCode)
	}
	srv.Close() // idempotent
}

// TestServeAdmission fills every worker with a slow task and then
// saturates a 1-deep queue, checking backpressure: 429s with a
// Retry-After header, a rejected counter on /metrics, and no hung or
// dropped requests.
func TestServeAdmission(t *testing.T) {
	defer fault.Deactivate()
	const workers = 2
	srv, base := newPinnedServer(t, workers, Config{Shards: 1, MaxQueue: 1})
	rng := rand.New(rand.NewPCG(13, 4))
	wire := testNetwork(rng, 7)
	wire.Transmissions = 3

	fault.Activate(always("serve.exec", fault.Latency, 300*time.Millisecond))
	const n = 16
	var wg sync.WaitGroup
	var mu sync.Mutex
	counts := map[int]int{}
	var retryAfter string
	post := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf, _ := json.Marshal(scenario.SolveRequest{
				Solve:     scenario.Solve{Network: wire},
				SessionID: fmt.Sprintf("sat-%d", i),
			})
			resp, err := http.Post(base+"/v1/solve", "application/json", bytes.NewReader(buf))
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			mu.Lock()
			counts[resp.StatusCode]++
			if resp.StatusCode == http.StatusTooManyRequests {
				retryAfter = resp.Header.Get("Retry-After")
			}
			mu.Unlock()
		}()
	}
	for i := 0; i < workers; i++ {
		post(i)
	}
	waitHits(t, "serve.exec", workers) // every worker is busy
	for i := workers; i < n; i++ {
		post(i)
	}
	wg.Wait()
	fault.Deactivate()

	if counts[http.StatusOK]+counts[http.StatusTooManyRequests] != n {
		t.Fatalf("unexpected status mix: %v", counts)
	}
	if counts[http.StatusTooManyRequests] == 0 {
		t.Fatalf("queue never saturated with every worker busy: %v", counts)
	}
	if retryAfter == "" {
		t.Error("429 response missing Retry-After header")
	}
	m := srv.Metrics()
	if m.Shards[0].Rejected == 0 {
		t.Error("metrics report zero rejected despite 429 responses")
	}
	if int(m.Shards[0].Solves) != counts[http.StatusOK] {
		t.Errorf("metrics count %d solves, want %d", m.Shards[0].Solves, counts[http.StatusOK])
	}
}

// TestQuickSolveNotBehindSlowSolve checks a shard's workers pull tasks
// independently: while one worker is held inside a slow column-
// generation re-solve, a quick solve for another session on the same
// shard is answered at once instead of waiting for it.
func TestQuickSolveNotBehindSlowSolve(t *testing.T) {
	defer fault.Deactivate()
	_, base := newPinnedServer(t, 2, Config{Shards: 1})
	rng := rand.New(rand.NewPCG(0x51, 3))
	// 15 paths × 3 transmissions is 16³ = 4,096 combinations, above the
	// dense threshold: the session solves by column generation.
	slow := testNetwork(rng, 15)
	slow.Transmissions = 3
	solveOK(t, base, scenario.SolveRequest{Solve: scenario.Solve{Network: slow}, SessionID: "slow"})

	fault.Activate(always("core.cg.reprice", fault.Latency, 500*time.Millisecond))
	drifted := driftWire(rng, slow, 0.05)
	slowStatus := make(chan int, 1)
	go func() {
		st, _ := postJSONAsync(t, base+"/v1/solve", scenario.SolveRequest{Solve: scenario.Solve{Network: drifted}, SessionID: "slow"})
		slowStatus <- st
	}()
	waitHits(t, "core.cg.reprice", 1) // the warm re-solve holds a worker

	quick := solveOK(t, base, scenario.SolveRequest{Solve: scenario.Solve{Network: testNetwork(rng, 3)}, SessionID: "quick"})
	select {
	case st := <-slowStatus:
		t.Fatalf("the 3×2 answer arrived after the held 15×3 re-solve (status %d)", st)
	default:
	}
	if quick.Result.Quality <= 0 {
		t.Errorf("quick solve quality %v", quick.Result.Quality)
	}
	if st := <-slowStatus; st != http.StatusOK {
		t.Errorf("held re-solve status %d, want 200", st)
	}
}

// TestSessionCopiesKeptOnlyWhenRead checks a session keeps its last good
// result only when degraded serving or the journal reads it, and its
// wire binding only when the journal does.
func TestSessionCopiesKeptOnlyWhenRead(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 5))
	wire := testNetwork(rng, 2)
	for _, tc := range []struct {
		name              string
		cfg               Config
		lastGood, binding bool
	}{
		{"plain", Config{Shards: 1}, false, false},
		{"state dir", Config{Shards: 1, StateDir: t.TempDir()}, true, true},
		{"serve degraded", Config{Shards: 1, ServeDegraded: true}, true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, base := newTestServer(t, tc.cfg)
			solveOK(t, base, scenario.SolveRequest{Solve: scenario.Solve{Network: wire}, SessionID: "plain"})
			solveOK(t, base, scenario.SolveRequest{Solve: scenario.Solve{Network: wire}, SessionID: "est", Estimator: true})
			if st, body := postJSON(t, base+"/v1/observe", scenario.ObserveRequest{
				SessionID: "est", Paths: []scenario.PathObservation{{Path: 0, Sent: 100, Lost: 30}},
			}); st != http.StatusOK {
				t.Fatalf("/v1/observe status %d: %s", st, body)
			}
			for _, id := range []string{"plain", "est"} {
				se := srv.lookupSession(id)
				se.mu.Lock()
				lastGood, binding := se.lastGood != nil, se.binding != nil
				se.mu.Unlock()
				if lastGood != tc.lastGood || binding != tc.binding {
					t.Errorf("session %q: lastGood set %v, binding set %v; want %v, %v", id, lastGood, binding, tc.lastGood, tc.binding)
				}
			}
		})
	}
}

// TestMetricsSessionsCountsEveryLiveSession: /metrics' per-shard
// session counts cover every live session — estimator sessions, which
// solve on their Adaptor's own solver, and sessions restored at boot
// that have not solved yet, as well as plain ones — so they sum to
// Server.Sessions().
func TestMetricsSessionsCountsEveryLiveSession(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewPCG(17, 1))
	cfg := Config{Shards: 4, StateDir: dir, JournalNoSync: true}
	solve := func(base, id string, estimator bool) {
		t.Helper()
		solveOK(t, base, scenario.SolveRequest{
			Solve:     scenario.Solve{Network: testNetwork(rng, 3)},
			SessionID: id,
			Estimator: estimator,
		})
	}
	check := func(srv *Server, when string, want int) {
		t.Helper()
		m := srv.Metrics()
		sum := 0
		for _, sh := range m.Shards {
			sum += sh.Sessions
		}
		if got := srv.Sessions(); got != want {
			t.Fatalf("%s: Server.Sessions() = %d, want %d", when, got, want)
		}
		if sum != want || m.Sessions != want {
			t.Fatalf("%s: shard sessions sum to %d (metrics sessions %d), want %d", when, sum, m.Sessions, want)
		}
	}

	srv, base := newTestServer(t, cfg)
	solve(base, "plain-1", false)
	solve(base, "est-1", true)
	check(srv, "first boot", 2)
	srv.Close()

	// Both sessions come back from the state dir, not yet solved.
	srv, base = newTestServer(t, cfg)
	check(srv, "restored", 2)
	solve(base, "plain-2", false)
	solve(base, "est-2", true)
	check(srv, "restored plus new", 4)
}

// TestServeHTTPErrors covers the remaining error mappings.
func TestServeHTTPErrors(t *testing.T) {
	_, base := newTestServer(t, Config{Shards: 1})
	rng := rand.New(rand.NewPCG(17, 8))
	wire := testNetwork(rng, 2)

	post := func(body string) int {
		t.Helper()
		resp, err := http.Post(base+"/v1/solve", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if st := post(`{not json`); st != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d, want 400", st)
	}
	if st := post(`{"network": {}, "objective": "maximize-vibes"}`); st != http.StatusBadRequest {
		t.Errorf("unknown objective: status %d, want 400", st)
	}
	if st := post(`{"network": {"rate_mbps": -1}}`); st != http.StatusBadRequest {
		t.Errorf("invalid network: status %d, want 400", st)
	}

	// Unattainable quality floor: the solver's infeasibility verdict
	// surfaces as 422.
	status, body := postJSON(t, base+"/v1/solve", scenario.SolveRequest{
		Solve: scenario.Solve{Network: wire, Objective: scenario.ObjectiveMinCost, MinQuality: 1},
	})
	if status != http.StatusUnprocessableEntity {
		t.Errorf("infeasible floor: status %d, want 422 (%s)", status, body)
	}
	var eresp scenario.ErrorResponse
	if err := json.Unmarshal(body, &eresp); err != nil || eresp.Error == "" {
		t.Errorf("422 body is not an error document: %s", body)
	}

	// Session drop: 204, and the session is gone from the registry.
	solveOK(t, base, scenario.SolveRequest{Solve: scenario.Solve{Network: wire}, SessionID: "gone"})
	req, _ := http.NewRequest(http.MethodDelete, base+"/v1/session/gone", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Errorf("DELETE session: status %d, want 204", resp.StatusCode)
	}
	status, _ = postJSON(t, base+"/v1/observe", scenario.ObserveRequest{
		SessionID: "gone", Paths: []scenario.PathObservation{{Path: 0, Sent: 1}},
	})
	if status != http.StatusNotFound {
		t.Errorf("observe dropped session: status %d, want 404", status)
	}
	// A dropped session can be re-created by its next solve.
	solveOK(t, base, scenario.SolveRequest{Solve: scenario.Solve{Network: wire}, SessionID: "gone"})

	// Metrics endpoint round-trips.
	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var m Metrics
	if err := json.NewDecoder(mresp.Body).Decode(&m); err != nil {
		t.Fatalf("decode /metrics: %v", err)
	}
	if len(m.Shards) != 1 || m.Shards[0].Solves == 0 || m.UptimeSec <= 0 {
		t.Errorf("implausible metrics: %+v", m)
	}
}
