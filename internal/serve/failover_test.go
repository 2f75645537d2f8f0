package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dmc/internal/estimate"
	"dmc/internal/fault"
	"dmc/internal/scenario"
)

// failoverIters is how many kill-9/promote cycles TestFailoverFleet
// runs: 2 by default (tier-1 keeps this test cheap), raised via
// DMC_FAILOVER_ITERS by `make chaos-failover`.
func failoverIters(t *testing.T) int {
	if s := os.Getenv("DMC_FAILOVER_ITERS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			t.Fatalf("DMC_FAILOVER_ITERS=%q is not a positive integer", s)
		}
		return n
	}
	return 2
}

// failoverStorm arms the replication seams alongside the durability and
// solver seams: failed sends stall polls (the follower retries), failed
// applies drop chunks before they touch the follower's journal (the
// retry re-requests the same chunk), failed journal writes and fsyncs
// on either node are cut back out of that node's journal, and the
// primary keeps serving — or failing honestly — through all of it.
func failoverStorm(seed uint64) *fault.Plan {
	return &fault.Plan{
		Seed: seed,
		Points: map[string][]fault.Spec{
			"persist.write": {{Kind: fault.Error, Prob: 0.10}},
			"persist.fsync": {{Kind: fault.Error, Prob: 0.10}},
			"repl.send":     {{Kind: fault.Error, Prob: 0.15}},
			"repl.apply":    {{Kind: fault.Error, Prob: 0.15}},
			"serve.exec": {
				{Kind: fault.Error, Prob: 0.10},
				{Kind: fault.Latency, Prob: 0.10, Latency: time.Millisecond},
			},
			"core.resolve.warm": {{Kind: fault.Error, Prob: 0.15}},
		},
	}
}

// newTestFollower attaches a follower to a primary's test server with
// timings tuned for tests (fast retries, short polls).
func newTestFollower(t *testing.T, primaryURL, dir string) *Follower {
	t.Helper()
	f, err := NewFollower(FollowerConfig{
		Primary:       primaryURL,
		StateDir:      dir,
		ID:            filepath.Base(dir),
		PollWait:      500 * time.Millisecond,
		RetryInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewFollower: %v", err)
	}
	return f
}

// waitSynced blocks until the follower's cursor reaches the primary's
// journal tail (it has durably applied everything the primary holds).
func waitSynced(t *testing.T, srv *Server, f *Follower) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		cur := srv.persist.cursor()
		f.cm.Lock()
		got := f.cursor
		f.cm.Unlock()
		if got.atOrPast(cur) {
			return
		}
		if err := f.Err(); err != nil && f.Fenced() {
			t.Fatalf("follower fenced while syncing: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("follower never caught up to the primary (follower err: %v)", f.Err())
}

// TestFailoverFleet is the replication tentpole: a primary in sync-ack
// mode streams to a hot standby while estimator and plain sessions run
// under load; the primary is hard-killed mid-fault-storm, the standby
// is promoted, and the promoted server must
//
//   - hold every estimator session's counters EXACTLY equal to an
//     uninterrupted reference adaptor fed the acknowledged
//     observations — across the node loss,
//   - hold every plain session's binding at exactly the last
//     acknowledged solve (zero acked-write loss: in sync mode a 2xx
//     means a follower held the record durably before the client heard
//     about it),
//   - not resurrect a session whose drop was acknowledged,
//   - fence the dead primary's stale incarnation when it comes back
//     (higher-epoch polls answer 409), and
//   - fold that stale node back in as a follower via a reset transfer
//     that discards its divergent unacknowledged suffix,
//
// then repeat, promoting the rejoined node back in the next cycle.
func TestFailoverFleet(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	cfg := Config{
		Shards: 2,
		// Small threshold so compactions — and the follower reset
		// transfers they force — happen for real during the test.
		SnapshotBytes:  16 << 10,
		ReplAck:        ReplAckSync,
		ReplAckTimeout: 10 * time.Second,
	}
	rng := rand.New(rand.NewPCG(42, 107))

	const nEst, nPlain = 6, 6
	ests := make([]*estSession, nEst)
	for i := range ests {
		wire := testNetwork(rng, 3)
		ref, err := estimate.NewAdaptor(toCore(t, wire))
		if err != nil {
			t.Fatal(err)
		}
		ests[i] = &estSession{id: fmt.Sprintf("est-%d", i), wire: wire, ref: ref}
	}
	plainID := func(i int) string { return fmt.Sprintf("plain-%d", i) }
	// lastAcked tracks, per plain session, the network of its last 200;
	// unacked the wires sent since that were answered 5xx. Zero
	// acked-write loss means the promoted server's binding is the last
	// acknowledged solve OR a later unacknowledged one — a failed write
	// may still survive (its record can be locally journaled, or a
	// compaction can capture the in-memory state it left, before the
	// crash), but the binding must never roll back past an ack. Only the
	// (single-goroutine) storm driver touches tracked sessions, so both
	// sets are well-defined.
	lastAcked := make(map[string]scenario.Network)
	unacked := make(map[string][]scenario.Network)

	primaryCfg := cfg
	primaryCfg.StateDir = dirA
	srv, err := New(primaryCfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	fol := newTestFollower(t, ts.URL, dirB)
	folDir := dirB

	for _, e := range ests {
		solveOK(t, ts.URL, scenario.SolveRequest{
			Solve: scenario.Solve{Network: e.wire}, SessionID: e.id, Estimator: true,
		})
	}
	for i := 0; i < nPlain; i++ {
		w := testNetwork(rng, 3)
		solveOK(t, ts.URL, scenario.SolveRequest{Solve: scenario.Solve{Network: w}, SessionID: plainID(i)})
		lastAcked[plainID(i)] = w
	}

	for cycle := 0; cycle < failoverIters(t); cycle++ {
		// Estimator traffic runs fault-free (same reasoning as
		// TestCrashRestartFleet: handleObserve folds counters in before
		// the poll is journaled, so the references mirror acknowledged
		// observations only when every observe is acknowledged). Sync
		// mode makes each 200 mean "the follower holds this durably".
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

		// An acknowledged drop must be as durable as an acknowledged
		// solve: the promoted server must not resurrect the victim.
		victim := fmt.Sprintf("victim-%d", cycle)
		solveOK(t, ts.URL, scenario.SolveRequest{Solve: scenario.Solve{Network: lastAcked[plainID(0)]}, SessionID: victim})
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/session/"+victim, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("DELETE %s: status %d", victim, resp.StatusCode)
		}

		// Fault storm over tracked plain sessions: solves that 200 are
		// recorded as acknowledged; 5xx (including sync-ack failures
		// injected via repl.send/repl.apply) are not.
		fault.Activate(failoverStorm(2000 + uint64(cycle)))
		for i := 0; i < 30; i++ {
			pi := rng.IntN(nPlain)
			w := driftWire(rng, lastAcked[plainID(pi)], 0.05)
			status, body := postJSON(t, ts.URL+"/v1/solve", scenario.SolveRequest{
				Solve: scenario.Solve{Network: w}, SessionID: plainID(pi),
			})
			switch {
			case status == http.StatusOK:
				lastAcked[plainID(pi)] = w
				unacked[plainID(pi)] = nil
			case status >= 500:
				unacked[plainID(pi)] = append(unacked[plainID(pi)], w)
			default:
				t.Fatalf("cycle %d storm solve: unexpected status %d: %s", cycle, status, body)
			}
		}

		// kill -9 mid-storm, with untracked concurrent load racing the
		// crash (their sessions are asserted by nobody; they exist to
		// make the crash land mid-wave).
		var wg sync.WaitGroup
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				body, _ := json.Marshal(scenario.SolveRequest{
					Solve:     scenario.Solve{Network: ests[0].wire},
					SessionID: fmt.Sprintf("load-%d", g),
				})
				for j := 0; j < 10; j++ {
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
		fault.Deactivate()
		staleEpoch := srv.Epoch()
		staleDir := primaryCfg.StateDir

		// Promote the standby. The new primary replays everything the
		// follower durably applied and stamps epoch+1 into a snapshot
		// before serving.
		promoteCfg := cfg
		newSrv, err := fol.Promote(promoteCfg)
		if err != nil {
			t.Fatalf("cycle %d promote: %v", cycle, err)
		}
		if newSrv.Epoch() <= staleEpoch {
			t.Fatalf("cycle %d: promoted epoch %d did not pass the stale primary's %d", cycle, newSrv.Epoch(), staleEpoch)
		}
		newTS := httptest.NewServer(newSrv.Handler())

		// The dead node comes back with its old state dir — including
		// any unacknowledged records it journaled after the last
		// replication poll. As a primary it must be fenced: a poll
		// carrying the new epoch answers 409, never journal bytes.
		stale, err := New(Config{Shards: 1, StateDir: staleDir})
		if err != nil {
			t.Fatalf("cycle %d: stale primary reboot: %v", cycle, err)
		}
		staleTS := httptest.NewServer(stale.Handler())
		fenceURL := fmt.Sprintf("%s/v1/replicate?gen=0&off=0&epoch=%d&id=fence-probe", staleTS.URL, newSrv.Epoch())
		fresp, err := http.Get(fenceURL)
		if err != nil {
			t.Fatal(err)
		}
		fbody, _ := readAllBody(fresp)
		if fresp.StatusCode != http.StatusConflict {
			t.Fatalf("cycle %d: stale primary answered a newer-epoch poll with %d (want 409): %s", cycle, fresp.StatusCode, fbody)
		}
		if stale.Metrics().Replication.FencedPolls == 0 {
			t.Errorf("cycle %d: stale primary counted no fenced polls", cycle)
		}
		stale.crash()
		staleTS.Close()

		// Rejoin the stale node as a follower of the new primary: its
		// first poll takes a reset transfer that discards the divergent
		// suffix and replaces it with the new primary's history.
		fol = newTestFollower(t, newTS.URL, staleDir)
		waitSynced(t, newSrv, fol)
		if fol.Metrics().Resets == 0 {
			t.Errorf("cycle %d: rejoined stale primary took no reset transfer", cycle)
		}

		// Zero acked-write loss: every estimator session's counters are
		// bit-exact against the uninterrupted reference, every plain
		// session's binding is exactly the last acknowledged solve, and
		// the acknowledged drop stayed dropped.
		for _, e := range ests {
			se := newSrv.lookupSession(e.id)
			if se == nil || se.adaptor == nil {
				t.Fatalf("cycle %d: estimator session %s not on the promoted primary", cycle, e.id)
			}
			got, want := se.adaptor.State(), e.ref.State()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("cycle %d: session %s estimates diverged across failover\n got %+v\nwant %+v", cycle, e.id, got, want)
			}
		}
		for id, w := range lastAcked {
			se := newSrv.lookupSession(id)
			if se == nil {
				t.Fatalf("cycle %d: plain session %s lost across failover", cycle, id)
			}
			se.mu.Lock()
			got, err := json.Marshal(se.binding.Network)
			se.mu.Unlock()
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(w)
			if err != nil {
				t.Fatal(err)
			}
			match := bytes.Equal(got, want)
			for _, c := range unacked[id] {
				if match {
					break
				}
				cw, err := json.Marshal(c)
				if err != nil {
					t.Fatal(err)
				}
				match = bytes.Equal(got, cw)
			}
			if !match {
				t.Errorf("cycle %d: session %s binding rolled back past the last acknowledged solve\n got %s\nlast acked %s", cycle, id, got, want)
			}
		}
		if newSrv.lookupSession(victim) != nil {
			t.Errorf("cycle %d: acknowledged drop %s resurrected across failover", cycle, victim)
		}

		// The rejoined follower's replicated state must match too: its
		// reset transfer replaced the divergent suffix with exactly the
		// promoted primary's history.
		for _, e := range ests {
			fol.smu.RLock()
			st := fol.state[e.id]
			fol.smu.RUnlock()
			if st == nil {
				t.Fatalf("cycle %d: rejoined follower missing session %s", cycle, e.id)
			}
			if got, want := st.Estimates, estimatesToWire(e.ref.State()); !reflect.DeepEqual(got, want) {
				t.Fatalf("cycle %d: rejoined follower estimates for %s diverged\n got %+v\nwant %+v", cycle, e.id, got, want)
			}
		}

		// Sync acks flow through the new pair: a poll on the promoted
		// primary must 200, which in sync mode means the rejoined
		// follower acked its record.
		status, body := postJSON(t, newTS.URL+"/v1/observe", scenario.ObserveRequest{SessionID: ests[0].id})
		if status != http.StatusOK {
			t.Fatalf("cycle %d: sync-acked poll on promoted primary: status %d: %s", cycle, status, body)
		}

		// Roles swap for the next cycle.
		srv, ts = newSrv, newTS
		primaryCfg.StateDir, folDir = folDir, staleDir
		_ = folDir
	}

	fol.Close()
	ts.Close()
	srv.Close()
}

func readAllBody(resp *http.Response) (string, error) {
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			if err.Error() == "EOF" {
				return sb.String(), nil
			}
			return sb.String(), err
		}
	}
}

// TestSyncAckRequiresFollower: sync mode with no follower connected
// must fail writes (the record is locally durable, but "acknowledged
// means replicated" cannot be honored) and report the condition on
// /healthz — while async mode under the same topology acknowledges
// normally.
func TestSyncAckRequiresFollower(t *testing.T) {
	dir := t.TempDir()
	srv, err := New(Config{
		Shards: 1, StateDir: dir,
		ReplAck: ReplAckSync, ReplAckTimeout: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())

	rng := rand.New(rand.NewPCG(5, 5))
	wire := testNetwork(rng, 2)
	status, body := postJSON(t, ts.URL+"/v1/solve", scenario.SolveRequest{
		Solve: scenario.Solve{Network: wire}, SessionID: "s",
	})
	if status != http.StatusInternalServerError {
		t.Fatalf("sync-mode solve with no follower: status %d (want 500): %s", status, body)
	}
	if !strings.Contains(string(body), "no follower acknowledged") {
		t.Errorf("sync-ack failure should say why: %s", body)
	}
	if n := srv.Metrics().Replication.SyncTimeouts; n == 0 {
		t.Error("sync-ack timeout not counted")
	}

	hstatus, hbody := getJSON(t, ts.URL+"/healthz")
	if hstatus != http.StatusOK {
		t.Fatalf("/healthz status %d: %s", hstatus, hbody)
	}
	if !strings.Contains(string(hbody), "no follower connected") {
		t.Errorf("/healthz should report sync replication without followers: %s", hbody)
	}

	// The failed write is nonetheless locally durable: the record hit
	// the journal before the ack wait began, so a restart restores the
	// session. The 500 reported replication, not persistence.
	ts.Close()
	srv.crash()
	srv2, err := New(Config{Shards: 1, StateDir: dir})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer srv2.Close()
	if srv2.lookupSession("s") == nil {
		t.Error("sync-ack-failed write was not locally durable")
	}
}

// TestSyncAckAfterFailedFsync: a write whose journal fsync fails is
// answered 500 and cut back out of the primary's journal, so it never
// reaches a follower. The next write on the same network frames to the
// same size, lands where the failed one was, and its sync-mode 200 means
// the follower holds it — not the failed record in its place.
func TestSyncAckAfterFailedFsync(t *testing.T) {
	defer fault.Deactivate()
	srv, err := New(Config{
		Shards: 1, StateDir: t.TempDir(),
		ReplAck: ReplAckSync, ReplAckTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Close() }()
	fol := newTestFollower(t, ts.URL, t.TempDir())
	defer fol.Close()

	wire := testNetwork(rand.New(rand.NewPCG(23, 5)), 2)
	solveOK(t, ts.URL, scenario.SolveRequest{Solve: scenario.Solve{Network: wire}, SessionID: "a"})
	waitSynced(t, srv, fol)

	fault.Activate(&fault.Plan{Seed: 1, Points: map[string][]fault.Spec{
		"persist.fsync": {{Kind: fault.Error, Prob: 1}},
	}})
	status, body := postJSON(t, ts.URL+"/v1/solve", scenario.SolveRequest{Solve: scenario.Solve{Network: wire}, SessionID: "b"})
	fault.Deactivate()
	if status != http.StatusInternalServerError {
		t.Fatalf("solve with a failing journal fsync: status %d (want 500): %s", status, body)
	}

	solveOK(t, ts.URL, scenario.SolveRequest{Solve: scenario.Solve{Network: wire}, SessionID: "c"})
	fol.smu.RLock()
	gotC, gotB := fol.state["c"] != nil, fol.state["b"] != nil
	fol.smu.RUnlock()
	if !gotC {
		t.Error("sync-acknowledged session c is not on the follower")
	}
	if gotB {
		t.Error("follower holds session b, whose write failed")
	}
}

func getJSON(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := readAllBody(resp)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, []byte(body)
}

// TestFollowerFencesStalePrimary: a follower that has seen epoch E
// stops following any primary announcing less. The fence must trip
// before anything touches the follower's journal.
func TestFollowerFencesStalePrimary(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 3))
	wire := testNetwork(rng, 2)

	// A primary with one session, and a follower that syncs from it.
	dirA := t.TempDir()
	srvA, err := New(Config{Shards: 1, StateDir: dirA})
	if err != nil {
		t.Fatal(err)
	}
	tsA := httptest.NewServer(srvA.Handler())
	solveOK(t, tsA.URL, scenario.SolveRequest{Solve: scenario.Solve{Network: wire}, SessionID: "s"})

	dirF := t.TempDir()
	fol := newTestFollower(t, tsA.URL, dirF)
	waitSynced(t, srvA, fol)

	// Promotion bumps the epoch and stamps it into the follower's state
	// dir; the old primary keeps running, stale.
	srvB, err := fol.Promote(Config{Shards: 1})
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	if srvB.Epoch() != srvA.Epoch()+1 {
		t.Fatalf("promoted epoch %d, want %d", srvB.Epoch(), srvA.Epoch()+1)
	}
	srvB.crash()

	// A follower booted from the promoted state dir knows the new
	// epoch. Pointed at the stale primary, it must fence — the stale
	// primary 409s its poll — and stop, journaling nothing.
	preBytes := journalSize(t, dirF)
	fol2 := newTestFollower(t, tsA.URL, dirF)
	deadline := time.Now().Add(10 * time.Second)
	for !fol2.Fenced() && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if !fol2.Fenced() {
		t.Fatalf("follower did not fence the stale primary (err: %v)", fol2.Err())
	}
	if got := journalSize(t, dirF); got != preBytes {
		t.Errorf("fenced follower's journal changed: %d -> %d bytes", preBytes, got)
	}
	if srvA.Metrics().Replication.FencedPolls == 0 {
		t.Error("stale primary counted no fenced polls")
	}

	// The fenced state is visible on the follower's health endpoint.
	ftsURL := httptest.NewServer(fol2.Handler())
	hstatus, hbody := getJSON(t, ftsURL.URL+"/healthz")
	if hstatus != http.StatusOK || !strings.Contains(string(hbody), "fenced") {
		t.Errorf("fenced follower /healthz = %d %s; want 200 mentioning fenced", hstatus, hbody)
	}
	ftsURL.Close()

	fol2.Close()
	tsA.Close()
	srvA.Close()
}

func journalSize(t *testing.T, dir string) int64 {
	t.Helper()
	fi, err := os.Stat(filepath.Join(dir, journalFile))
	if err != nil {
		if os.IsNotExist(err) {
			return 0
		}
		t.Fatal(err)
	}
	return fi.Size()
}

// TestFollowerServesDegraded: a healthy follower answers solve
// requests for replicated sessions from their last-good results,
// marked degraded, and refuses writes.
func TestFollowerServesDegraded(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 1))
	wire := testNetwork(rng, 2)

	srv, err := New(Config{Shards: 1, StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	want := solveOK(t, ts.URL, scenario.SolveRequest{Solve: scenario.Solve{Network: wire}, SessionID: "s"})

	fol := newTestFollower(t, ts.URL, t.TempDir())
	waitSynced(t, srv, fol)
	fts := httptest.NewServer(fol.Handler())

	status, body := postJSON(t, fts.URL+"/v1/solve", scenario.SolveRequest{Solve: scenario.Solve{Network: wire}, SessionID: "s"})
	if status != http.StatusOK {
		t.Fatalf("follower solve: status %d: %s", status, body)
	}
	var resp scenario.SolveResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded || resp.Resolved || resp.Result == nil {
		t.Fatalf("follower answer should be degraded+unresolved with a result: %s", body)
	}
	if resp.Result.Quality != want.Result.Quality {
		t.Errorf("follower served quality %v, primary acknowledged %v", resp.Result.Quality, want.Result.Quality)
	}

	status, body = postJSON(t, fts.URL+"/v1/solve", scenario.SolveRequest{Solve: scenario.Solve{Network: wire}, SessionID: "unknown"})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("follower solve for unreplicated session: status %d (want 503): %s", status, body)
	}
	status, body = postJSON(t, fts.URL+"/v1/observe", scenario.ObserveRequest{SessionID: "s"})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("follower observe: status %d (want 503): %s", status, body)
	}

	fts.Close()
	fol.Close()
	ts.Close()
	srv.Close()
}

// TestCompactionFsyncFaultKeepsJournal (satellite): a fault-injected
// fsync failure during threshold-triggered background compaction must
// abandon the snapshot cleanly — no snapshot file appears, no tmp file
// survives, the journal is NOT truncated (it stays the authoritative
// record), serving continues, and a later fault-free compaction
// succeeds. JournalNoSync keeps append-path fsyncs out of the picture,
// so the armed persist.fsync seam fires only inside the snapshot path.
func TestCompactionFsyncFaultKeepsJournal(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Shards: 1, StateDir: dir,
		SnapshotBytes: 4 << 10, JournalNoSync: true,
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())

	fault.Activate(&fault.Plan{Seed: 1, Points: map[string][]fault.Spec{
		"persist.fsync": {{Kind: fault.Error, Prob: 1}},
	}})

	rng := rand.New(rand.NewPCG(13, 2))
	wire := testNetwork(rng, 3)
	// Drive appends well past the threshold; each crossing spawns a
	// background compaction that must fail at its first fsync and leave
	// the journal alone.
	for i := 0; srv.persist.journalBytes.Load() < 3*cfg.SnapshotBytes; i++ {
		wire = driftWire(rng, wire, 0.05)
		solveOK(t, ts.URL, scenario.SolveRequest{Solve: scenario.Solve{Network: wire}, SessionID: "s"})
		if i > 10_000 {
			t.Fatal("journal never crossed the compaction threshold")
		}
	}
	// Wait out any in-flight compaction attempt, then check nothing
	// snapshot-shaped happened.
	for deadline := time.Now().Add(5 * time.Second); srv.persist.snapshotting.Load() && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if n := srv.persist.snapshots.Load(); n != 0 {
		t.Fatalf("%d snapshots succeeded with fsync faulted", n)
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotFile)); !os.IsNotExist(err) {
		t.Errorf("snapshot file exists after abandoned compaction (stat err: %v)", err)
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotFile+".tmp")); !os.IsNotExist(err) {
		t.Errorf("snapshot tmp file leaked by abandoned compaction (stat err: %v)", err)
	}
	if got := srv.persist.journalBytes.Load(); got < 3*cfg.SnapshotBytes {
		t.Errorf("journal was truncated (%d bytes) despite the abandoned snapshot", got)
	}
	// Serving continued throughout (the solves above all 200'd); the
	// journal is still authoritative: a crash right now restores the
	// last acknowledged binding.
	lastWire := wire

	// Fault cleared: the next threshold crossing compacts for real.
	fault.Deactivate()
	wire = driftWire(rng, wire, 0.05)
	solveOK(t, ts.URL, scenario.SolveRequest{Solve: scenario.Solve{Network: wire}, SessionID: "s"})
	lastWire = wire
	for deadline := time.Now().Add(5 * time.Second); srv.persist.snapshots.Load() == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if srv.persist.snapshots.Load() == 0 {
		t.Fatal("no compaction succeeded after the fsync fault cleared")
	}

	ts.Close()
	srv.crash()
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
	want, err := json.Marshal(lastWire)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("restored binding is not the last acknowledged solve\n got %s\nwant %s", got, want)
	}
}

// TestHealthzDegradesOnDurabilityTrouble (satellite): /healthz must
// surface journal errors and replication lag past the threshold — 200
// (the node still serves) with a status that says what is wrong.
func TestHealthzDegradesOnDurabilityTrouble(t *testing.T) {
	dir := t.TempDir()
	srv, err := New(Config{Shards: 1, StateDir: dir, ReplLagWarn: 64})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Close() }()

	rng := rand.New(rand.NewPCG(21, 2))
	wire := testNetwork(rng, 2)
	solveOK(t, ts.URL, scenario.SolveRequest{Solve: scenario.Solve{Network: wire}, SessionID: "s"})

	// A connected follower that stops polling: its lag grows past the
	// threshold as new writes land.
	fol := newTestFollower(t, ts.URL, t.TempDir())
	waitSynced(t, srv, fol)
	fol.Close()
	for i := 0; i < 6; i++ {
		wire = driftWire(rng, wire, 0.05)
		solveOK(t, ts.URL, scenario.SolveRequest{Solve: scenario.Solve{Network: wire}, SessionID: "s"})
	}
	status, body := getJSON(t, ts.URL+"/healthz")
	if status != http.StatusOK {
		t.Fatalf("/healthz status %d: %s", status, body)
	}
	if !strings.Contains(string(body), "replication lag") {
		t.Errorf("/healthz should report replication lag over threshold: %s", body)
	}

	// Journal errors degrade too.
	fault.Activate(&fault.Plan{Seed: 1, Points: map[string][]fault.Spec{
		"persist.write": {{Kind: fault.Error, Prob: 1}},
	}})
	if st, _ := postJSON(t, ts.URL+"/v1/solve", scenario.SolveRequest{
		Solve: scenario.Solve{Network: driftWire(rng, wire, 0.05)}, SessionID: "s",
	}); st != http.StatusInternalServerError {
		t.Fatalf("solve with faulted journal: status %d, want 500", st)
	}
	fault.Deactivate()
	status, body = getJSON(t, ts.URL+"/healthz")
	if status != http.StatusOK || !strings.Contains(string(body), "journal errors") {
		t.Errorf("/healthz should report journal errors: %d %s", status, body)
	}
}
