package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dmc/internal/estimate"
	"dmc/internal/fault"
	"dmc/internal/scenario"
)

// restartIters is how many kill-9/restart cycles TestCrashRestartFleet
// runs: 2 by default (tier-1 keeps this test cheap), raised via
// DMC_RESTART_ITERS by `make chaos-restart`.
func restartIters(t *testing.T) int {
	if s := os.Getenv("DMC_RESTART_ITERS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			t.Fatalf("DMC_RESTART_ITERS=%q is not a positive integer", s)
		}
		return n
	}
	return 2
}

// estSession pairs a server-side estimator session with its
// uninterrupted reference adaptor: the reference sees exactly the
// observations the server acknowledged, across every crash, so the
// restored server state must match it bit-for-bit.
type estSession struct {
	id   string
	wire scenario.Network
	ref  *estimate.Adaptor
}

// randomObs builds one observation batch; the mirror into the reference
// adaptor applies the identical conversion handleObserve does.
func randomObs(rng *rand.Rand, paths int) []scenario.PathObservation {
	obs := make([]scenario.PathObservation, 0, paths)
	for p := 0; p < paths; p++ {
		sent := 20 + rng.IntN(80)
		obs = append(obs, scenario.PathObservation{
			Path: p,
			Sent: sent,
			Lost: rng.IntN(sent / 5),
			RTTMs: []float64{
				40 + 200*rng.Float64(),
				40 + 200*rng.Float64(),
			},
		})
	}
	return obs
}

func mirrorObs(ref *estimate.Adaptor, obs []scenario.PathObservation) {
	for _, p := range obs {
		ref.ObserveSends(p.Path, p.Sent)
		ref.ObserveLosses(p.Path, p.Lost)
		for _, ms := range p.RTTMs {
			ref.ObserveRTT(p.Path, time.Duration(ms*float64(time.Millisecond)))
		}
	}
}

// restartStorm arms the persistence seams alongside the solver seams —
// failed appends must fail their requests (never acknowledge state the
// journal does not hold), and the daemon must keep serving through all
// of it.
func restartStorm(seed uint64) *fault.Plan {
	return &fault.Plan{
		Seed: seed,
		Points: map[string][]fault.Spec{
			"persist.write": {{Kind: fault.Error, Prob: 0.15}},
			"persist.fsync": {{Kind: fault.Error, Prob: 0.10}},
			"serve.exec": {
				{Kind: fault.Error, Prob: 0.10},
				{Kind: fault.Latency, Prob: 0.10, Latency: time.Millisecond},
			},
			"core.resolve.warm": {{Kind: fault.Error, Prob: 0.15}},
		},
	}
}

// TestCrashRestartFleet is the durability tentpole: a loaded fleet is
// hard-stopped (simulated kill -9: no final snapshot, nothing beyond
// acknowledged journal records survives) mid-activity, its journal gets
// a torn garbage suffix, and the restarted server must
//
//   - boot (truncating the tear to the last valid record),
//   - restore every live session and not the dropped one,
//   - answer every estimator session with counters EXACTLY equal to an
//     uninterrupted reference adaptor fed the same acknowledged
//     observations, and solve to the same quality,
//   - recover warm serving for the plain sessions after one re-priming
//     solve, and
//   - keep the guarantee across repeated cycles, fault storms included.
func TestCrashRestartFleet(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Shards:   2,
		StateDir: dir,
		// Small threshold so compaction runs for real during the test.
		SnapshotBytes: 16 << 10,
	}
	rng := rand.New(rand.NewPCG(42, 7))

	const nEst, nPlain = 8, 8
	ests := make([]*estSession, nEst)
	for i := range ests {
		wire := testNetwork(rng, 3)
		ref, err := estimate.NewAdaptor(toCore(t, wire))
		if err != nil {
			t.Fatal(err)
		}
		ests[i] = &estSession{id: fmt.Sprintf("est-%d", i), wire: wire, ref: ref}
	}
	plainWires := make([]scenario.Network, nPlain)
	for i := range plainWires {
		plainWires[i] = testNetwork(rng, 3)
	}
	plainID := func(i int) string { return fmt.Sprintf("plain-%d", i) }

	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())

	// Initial binds: estimator feeds and plain session solves.
	for _, e := range ests {
		solveOK(t, ts.URL, scenario.SolveRequest{
			Solve: scenario.Solve{Network: e.wire}, SessionID: e.id, Estimator: true,
		})
	}
	for i, w := range plainWires {
		solveOK(t, ts.URL, scenario.SolveRequest{Solve: scenario.Solve{Network: w}, SessionID: plainID(i)})
	}

	for cycle := 0; cycle < restartIters(t); cycle++ {
		// Estimator traffic runs fault-free: handleObserve applies
		// counters before the poll is journaled, so a failed poll would
		// leave server and reference disagreeing about observations the
		// client was never acknowledged for. The durability contract is
		// about acknowledged state; the references mirror exactly that.
		for round := 0; round < 3; round++ {
			for _, e := range ests {
				obs := randomObs(rng, len(e.wire.Paths))
				status, body := postJSON(t, ts.URL+"/v1/observe", scenario.ObserveRequest{SessionID: e.id, Paths: obs})
				if status != http.StatusOK {
					t.Fatalf("cycle %d observe %s: status %d: %s", cycle, e.id, status, body)
				}
				mirrorObs(e.ref, obs)
			}
		}

		// A victim session is created, acknowledged, then dropped: the
		// drop must be durable too (restoring a deleted session is a
		// privacy bug, not just a correctness one).
		victim := fmt.Sprintf("victim-%d", cycle)
		solveOK(t, ts.URL, scenario.SolveRequest{Solve: scenario.Solve{Network: plainWires[0]}, SessionID: victim})
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/session/"+victim, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("DELETE %s: status %d", victim, resp.StatusCode)
		}

		// Fault storm over plain traffic: torn writes and failed fsyncs
		// fail their requests; the fleet keeps serving.
		fault.Activate(restartStorm(1000 + uint64(cycle)))
		for i := 0; i < 40; i++ {
			pi := rng.IntN(nPlain)
			status, body := postJSON(t, ts.URL+"/v1/solve", scenario.SolveRequest{
				Solve:     scenario.Solve{Network: driftWire(rng, plainWires[pi], 0.05)},
				SessionID: plainID(pi),
			})
			if status != http.StatusOK && status < 500 {
				t.Fatalf("cycle %d storm solve: unexpected status %d: %s", cycle, status, body)
			}
		}
		fault.Deactivate()

		// Settle fault-free so every plain session's binding is
		// journaled, then verify compaction ran this cycle. Compaction is
		// asynchronous — the request that crosses the threshold does not
		// wait for it — so give the goroutine a beat to land.
		for i := range plainWires {
			solveOK(t, ts.URL, scenario.SolveRequest{Solve: scenario.Solve{Network: plainWires[i]}, SessionID: plainID(i)})
		}
		for deadline := time.Now().Add(5 * time.Second); srv.persist.snapshots.Load() == 0 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		if srv.persist.snapshots.Load() == 0 {
			t.Errorf("cycle %d: no compacting snapshot ran (journal %d bytes, threshold %d)",
				cycle, srv.persist.journalBytes.Load(), cfg.SnapshotBytes)
		}

		// kill -9 under concurrent load: requests racing the crash get
		// honest errors; everything acknowledged must survive.
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for j := 0; j < 10; j++ {
					body, _ := json.Marshal(scenario.SolveRequest{
						Solve:     scenario.Solve{Network: plainWires[g%nPlain]},
						SessionID: plainID(g % nPlain),
					})
					resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
					if err == nil {
						resp.Body.Close()
					}
				}
			}(g)
		}
		time.Sleep(2 * time.Millisecond)
		srv.crash()
		wg.Wait()
		ts.Close()

		// Tear the journal: a crash mid-append leaves a garbage suffix.
		jf, err := os.OpenFile(filepath.Join(dir, journalFile), os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := jf.Write([]byte{0xde, 0xad, 0xbe}); err != nil {
			t.Fatal(err)
		}
		jf.Close()

		// Restart from the state dir.
		srv, err = New(cfg)
		if err != nil {
			t.Fatalf("cycle %d restart: %v", cycle, err)
		}
		ts = httptest.NewServer(srv.Handler())

		m := srv.Metrics()
		if m.Durability == nil {
			t.Fatal("no durability metrics with StateDir set")
		}
		if m.Durability.RestoredSessions != nEst+nPlain {
			t.Fatalf("cycle %d: restored %d sessions, want %d", cycle, m.Durability.RestoredSessions, nEst+nPlain)
		}
		if m.Durability.TruncatedBytes == 0 {
			t.Errorf("cycle %d: torn journal suffix was not truncated", cycle)
		}
		if srv.lookupSession(victim) != nil {
			t.Errorf("cycle %d: dropped session %s was resurrected", cycle, victim)
		}

		// Estimator sessions: restored counters must equal the reference
		// adaptor's exactly, and a poll must solve to the same quality a
		// fresh adaptor restored from the reference would.
		for _, e := range ests {
			se := srv.lookupSession(e.id)
			if se == nil || se.adaptor == nil {
				t.Fatalf("cycle %d: estimator session %s not restored", cycle, e.id)
			}
			got, want := se.adaptor.State(), e.ref.State()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("cycle %d: session %s restored estimates diverged\n got %+v\nwant %+v", cycle, e.id, got, want)
			}
			status, body := postJSON(t, ts.URL+"/v1/observe", scenario.ObserveRequest{SessionID: e.id})
			if status != http.StatusOK {
				t.Fatalf("cycle %d: poll %s after restart: status %d: %s", cycle, e.id, status, body)
			}
			var pr scenario.SolveResponse
			if err := json.Unmarshal(body, &pr); err != nil || pr.Result == nil {
				t.Fatalf("cycle %d: poll %s: bad body %s", cycle, e.id, body)
			}
			fresh, err := estimate.NewAdaptor(toCore(t, e.wire))
			if err != nil {
				t.Fatal(err)
			}
			if err := fresh.Restore(e.ref.State()); err != nil {
				t.Fatal(err)
			}
			refSol, _, err := fresh.Solution()
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(pr.Result.Quality-refSol.Quality) > 1e-9 {
				t.Errorf("cycle %d: session %s quality %.12f, reference %.12f",
					cycle, e.id, pr.Result.Quality, refSol.Quality)
			}
		}

		// Plain sessions: the first solve re-primes the warm solver from
		// the restored binding; the re-solve after drift must be warm
		// again (warmth is rebuilt, not persisted).
		for i, w := range plainWires {
			solveOK(t, ts.URL, scenario.SolveRequest{Solve: scenario.Solve{Network: w}, SessionID: plainID(i)})
			r := solveOK(t, ts.URL, scenario.SolveRequest{
				Solve: scenario.Solve{Network: driftWire(rng, w, 0.03)}, SessionID: plainID(i),
			})
			if !r.Result.Warm {
				t.Errorf("cycle %d: session %s re-solve after restart was not warm", cycle, plainID(i))
			}
		}
	}

	// Graceful path: Close writes a final snapshot, and a restart from
	// it alone restores the whole fleet.
	ts.Close()
	srv.Close()
	if srv.persist.snapshots.Load() == 0 {
		t.Error("graceful Close wrote no final snapshot")
	}
	srv2, err := New(cfg)
	if err != nil {
		t.Fatalf("restart after graceful Close: %v", err)
	}
	defer srv2.Close()
	if got := srv2.Metrics().Durability.RestoredSessions; got != nEst+nPlain {
		t.Errorf("after graceful restart: restored %d sessions, want %d", got, nEst+nPlain)
	}
	for _, e := range ests {
		se := srv2.lookupSession(e.id)
		if se == nil || se.adaptor == nil {
			t.Fatalf("graceful restart lost estimator session %s", e.id)
		}
		if got, want := se.adaptor.State(), e.ref.State(); !reflect.DeepEqual(got, want) {
			t.Fatalf("graceful restart diverged for %s\n got %+v\nwant %+v", e.id, got, want)
		}
	}
}

// TestDropDurability: a drop whose journal append fails must answer 500
// — never a 204 the disk cannot back — keep failing honestly on retry
// while the fault persists (the session must not fall through the
// unknown-ID no-op into a false 204), and become durable once a retry
// succeeds: after a crash the session stays gone.
func TestDropDurability(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Shards: 1, StateDir: dir}
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	rng := rand.New(rand.NewPCG(3, 9))
	wire := testNetwork(rng, 3)
	solveOK(t, ts.URL, scenario.SolveRequest{Solve: scenario.Solve{Network: wire}, SessionID: "doomed"})

	del := func() int {
		req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/session/doomed", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	fault.Activate(&fault.Plan{Seed: 1, Points: map[string][]fault.Spec{
		"persist.write": {{Kind: fault.Error, Prob: 1}},
	}})
	if status := del(); status != http.StatusInternalServerError {
		t.Fatalf("drop with failing journal: status %d, want 500", status)
	}
	// The drop took effect in memory — solves answer 410 Gone — but the
	// acknowledgement is withheld until the record is on disk.
	status, _ := postJSON(t, ts.URL+"/v1/solve", scenario.SolveRequest{Solve: scenario.Solve{Network: wire}, SessionID: "doomed"})
	if status != http.StatusGone {
		t.Fatalf("solve on pending-drop session: status %d, want 410", status)
	}
	if status := del(); status != http.StatusInternalServerError {
		t.Fatalf("retried drop with failing journal: status %d, want 500", status)
	}
	fault.Deactivate()
	if status := del(); status != http.StatusNoContent {
		t.Fatalf("retried drop after fault cleared: status %d, want 204", status)
	}

	srv.crash()
	srv2, err := New(cfg)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer srv2.Close()
	if srv2.lookupSession("doomed") != nil {
		t.Error("acknowledged drop did not survive the crash")
	}
}

// TestSnapshotCompactionKeepsAckedState: compaction must never erase an
// acknowledged journal record it did not capture. A session is solved
// sequentially with drifting networks — every 200 means the binding is
// journaled before the response — while a second goroutine hammers full
// compacting snapshots; after a hard stop, the restored binding must be
// the last acknowledged one. Without the persister-mutex barrier around
// capture+truncate, a snapshot could capture the session, lose the race
// to a newer acknowledged append, and then truncate that record away.
func TestSnapshotCompactionKeepsAckedState(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Shards: 1, StateDir: dir}
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			if err := srv.snapshotNow(); err != nil {
				t.Errorf("snapshotNow: %v", err)
				return
			}
		}
	}()

	rng := rand.New(rand.NewPCG(11, 4))
	wire := testNetwork(rng, 3)
	for i := 0; i < 40; i++ {
		wire = driftWire(rng, wire, 0.05)
		solveOK(t, ts.URL, scenario.SolveRequest{Solve: scenario.Solve{Network: wire}, SessionID: "s"})
	}
	stop.Store(true)
	wg.Wait()
	srv.crash()
	ts.Close()

	srv2, err := New(cfg)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer srv2.Close()
	se := srv2.lookupSession("s")
	if se == nil {
		t.Fatal("session not restored")
	}
	se.mu.Lock()
	got, err := json.Marshal(se.binding.Network)
	se.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("restored binding is not the last acknowledged solve\n got %s\nwant %s", got, want)
	}
}
