package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"slices"
	"time"

	"dmc/internal/core"
	"dmc/internal/estimate"
	"dmc/internal/lp"
	"dmc/internal/scenario"
	"dmc/internal/serve"
)

// Span names, one per rung of the ladder.
const (
	spLP        = "lp.solve"
	spCoreCold  = "core.cold"
	spCore      = "core.resolve"
	spPool      = "warmpool.solve"
	spDecode    = "scenario.decode"
	spEncode    = "scenario.encode"
	spPoll      = "estimate.poll"
	spInproc    = "serve.inproc"
	spNoSync    = "journal.nosync"
	spFsync     = "journal.fsync"
	spRepl      = "repl.sync"
	spLoopback  = "http.loopback"
	estPolls    = 4   // estimator polls per session on solve workloads
	lpSampleMax = 256 // sessions whose first answer the lp rung re-solves
	encodeAlloc = 32  // answers whose encoding is alloc-counted
)

// ladder is one traced run: each rung replays the workload's request
// sequence through one layer's public entry point.
type ladder struct {
	o   options
	w   *workload
	sc  *schedule
	tr  *tracer
	out io.Writer
	m   map[string]metric
	// attempted and failed count operations across all rungs.
	attempted, failed int64
	firstErr          string
	// est[s][k] is session s's estimated network after k observations
	// (observe-durable: what the core and WarmPool rungs solve).
	est [][]*core.Network
	// coreDone is how many requests of the sequence the core rung replayed
	// in its box; the WarmPool rung replays the same ones, so their
	// difference is the pool's own cost.
	coreDone int
	// Allocation counts of the scenario rung: decoding per request, and
	// encoding over encCounted answers.
	decAllocs  float64
	encAllocs  uint64
	encCounted int
}

func (l *ladder) set(name string, v float64, unit string) { l.m[name] = metric{v, unit} }

func (l *ladder) fail(err error) {
	l.failed++
	if l.firstErr == "" {
		l.firstErr = err.Error()
	}
}

// netOf returns the network a request asks the solver about.
func (l *ladder) netOf(r *request) *core.Network {
	if l.w.shape.observe {
		return l.est[r.sess][r.step]
	}
	return l.w.sessions[r.sess].nets[r.step]
}

func runLadder(o options, w *workload, out io.Writer) (result, error) {
	sc := newSchedule(w, o.workers)
	// Lane 0 records the sequential rungs: about six spans per request of
	// the sequence, plus the cold and lp spans per session.
	spans := 6*len(sc.seq) + 3*len(w.sessions)
	l := &ladder{o: o, w: w, sc: sc, tr: newTracer(o.workers, spans), out: out, m: map[string]metric{}}
	if w.shape.observe {
		l.est = estimatedNetworks(w)
	}
	steps := []struct {
		name string
		fn   func() error
	}{
		{"lp", l.lpRung},
		{"core", l.coreRung},
		{"warmpool", l.poolRung},
		{"scenario", l.decodeRung},
		{"estimate", l.estimateRung},
		{"serve", l.serveRung},
		{"journal", l.journalRungs},
		{"repl", l.replRung},
		{"http", l.httpRung},
	}
	for _, s := range steps {
		t0 := time.Now()
		if err := s.fn(); err != nil {
			return result{}, fmt.Errorf("%s rung: %w", s.name, err)
		}
		fmt.Fprintf(out, "rung %-9s %v\n", s.name, time.Since(t0).Round(time.Millisecond))
	}
	l.deltas()
	l.table()
	printMetrics(out, l.m)
	if l.firstErr != "" {
		fmt.Fprintln(out, "FAILED:", l.firstErr)
	}
	if err := l.tr.write(traceFile(o)); err != nil {
		return result{}, err
	}
	return result{Correct: l.failed == 0, Attempted: max(l.attempted, 1), Failed: l.failed, Metrics: l.m}, nil
}

// estimatedNetworks replays every session's observation stream through
// an estimator feed without solving, snapshotting the estimated network
// after each report.
func estimatedNetworks(w *workload) [][]*core.Network {
	out := make([][]*core.Network, len(w.sessions))
	for s, se := range w.sessions {
		ad, err := estimate.NewAdaptor(se.nets[0])
		if err != nil {
			panic(err) // generated networks validated at generation
		}
		out[s] = append(out[s], se.nets[0])
		for _, or := range se.obsReq {
			observe(ad, or)
			n := *ad.EstimatedNetwork()
			n.Paths = slices.Clone(n.Paths)
			out[s] = append(out[s], &n)
		}
	}
	return out
}

// observe feeds one report into an estimator, as /v1/observe does.
func observe(ad *estimate.Adaptor, or scenario.ObserveRequest) {
	for _, p := range or.Paths {
		ad.ObserveSends(p.Path, p.Sent)
		ad.ObserveLosses(p.Path, p.Lost)
		for _, rtt := range p.RTTMs {
			ad.ObserveRTT(p.Path, time.Duration(rtt*float64(time.Millisecond)))
		}
	}
}

// lpRung: a cold lp.Solver.Solve of the LP behind each sampled session's
// first answer, taken from a one-shot solve whose storage it owns.
func (l *ladder) lpRung() error {
	ln := l.tr.lane(0)
	var iters, n int
	for s := 0; s < min(len(l.w.sessions), lpSampleMax); s++ {
		se := l.w.sessions[s]
		net := se.nets[0]
		var (
			sol *core.Solution
			err error
		)
		if se.minCost {
			sol, err = core.SolveMinCost(net, se.floor)
		} else {
			sol, err = core.SolveQuality(net)
		}
		l.attempted++
		if err != nil {
			l.fail(err)
			continue
		}
		prob := sol.Problem()
		t0 := time.Now()
		lsol, err := lp.NewSolver().Solve(prob)
		ln.add(spLP, t0, time.Now(), noParent, int64(s))
		switch {
		case err != nil:
			l.fail(err)
			continue
		case lsol.Status != lp.Optimal:
			l.fail(fmt.Errorf("lp: session %s LP %v", se.id, lsol.Status))
			continue
		}
		want := sol.Quality
		if se.minCost {
			want = sol.Cost()
		}
		if math.Abs(lsol.Objective-want) > 1e-6*math.Max(1, math.Abs(want)) {
			l.fail(fmt.Errorf("lp: session %s objective %.9g, core reported %.9g", se.id, lsol.Objective, want))
		}
		iters += lsol.Iterations
		n++
	}
	l.set("lp.solve_ms_p50", ms(quantile(l.tr.durations(spLP), 0.5)), "ms")
	l.set("lp.iterations_mean", float64(iters)/float64(max(n, 1)), "count")
	return nil
}

// solveWith runs the request's objective on a core.Solver.
func solveWith(sv *core.Solver, se *session, net *core.Network) (core.SolveStats, error) {
	var (
		sol *core.Solution
		err error
	)
	if se.minCost {
		sol, err = sv.ResolveMinCost(net, se.floor)
	} else {
		sol, err = sv.Resolve(net)
	}
	if err != nil {
		return core.SolveStats{}, err
	}
	return sol.Stats, nil
}

// coreRung: Solver.Resolve/ResolveMinCost per session, cold on the
// priming step and warm over one cycle of the sequence.
func (l *ladder) coreRung() error {
	ln := l.tr.lane(0)
	solvers := make([]*core.Solver, len(l.w.sessions))
	for s, se := range l.w.sessions {
		solvers[s] = core.NewSolver()
		t0 := time.Now()
		_, err := solveWith(solvers[s], se, l.netOf(&l.sc.reqs[l.sc.ids[s][0]]))
		ln.add(spCoreCold, t0, time.Now(), noParent, int64(s))
		l.attempted++
		if err != nil {
			l.fail(err)
		}
	}
	var sum struct{ cg, added, hits, cols, warm, skipped float64 }
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	seq := l.boxed()
	for _, id := range seq.ids {
		if seq.expired() {
			break
		}
		r := &l.sc.reqs[id]
		t0 := time.Now()
		st, err := solveWith(solvers[r.sess], l.w.sessions[r.sess], l.netOf(r))
		ln.add(spCore, t0, time.Now(), noParent, int64(id))
		l.attempted++
		if err != nil {
			l.fail(err)
			continue
		}
		sum.cg += float64(st.CGIterations)
		sum.added += float64(st.PoolAdded)
		sum.hits += float64(st.PoolHits)
		sum.cols += float64(st.Columns)
		if st.Warm {
			sum.warm++
		}
		if st.PhaseISkipped {
			sum.skipped++
		}
	}
	runtime.ReadMemStats(&ms1)
	l.coreDone = seq.done
	n := float64(max(seq.done, 1))
	d := l.tr.durations(spCore)
	l.set("core.resolve_ms_p50", ms(quantile(d, 0.5)), "ms")
	l.set("core.resolve_ms_p99", ms(quantile(d, 0.99)), "ms")
	l.set("core.cold_ms_p50", ms(quantile(l.tr.durations(spCoreCold), 0.5)), "ms")
	l.set("core.allocs_per_solve", float64(ms1.Mallocs-ms0.Mallocs)/n, "count")
	l.set("core.cg_iterations_mean", sum.cg/n, "count")
	l.set("core.pool_added_mean", sum.added/n, "count")
	l.set("core.pool_hits_mean", sum.hits/n, "count")
	l.set("core.columns_mean", sum.cols/n, "count")
	l.set("core.warm_ratio", sum.warm/n, "ratio")
	l.set("core.phase1_skipped_ratio", sum.skipped/n, "ratio")
	return nil
}

// encode renders a solved answer as the server does (NewSolveResult plus
// JSON), recording the encode span and, for the first encodeAlloc
// answers, its allocations. It returns the body size.
func (l *ladder) encode(ln *lane, sol *core.Solution, id string, parent, req int64) (int, error) {
	count := l.encCounted < encodeAlloc
	var m0, m1 runtime.MemStats
	if count {
		runtime.ReadMemStats(&m0)
	}
	t0 := time.Now()
	res := scenario.NewSolveResult(sol, nil)
	b, err := json.Marshal(scenario.SolveResponse{SessionID: id, Resolved: true, Result: &res})
	t1 := time.Now()
	if count {
		runtime.ReadMemStats(&m1)
		l.encAllocs += m1.Mallocs - m0.Mallocs
		l.encCounted++
	}
	ln.add(spEncode, t0, t1, parent, req)
	return len(b), err
}

// poolRung: WarmPool.SolveSession* with the workload's session keys,
// over the same requests as the core rung; on solve workloads each
// answer is also encoded as the server would.
func (l *ladder) poolRung() error {
	ln := l.tr.lane(0)
	pool := core.NewWarmPool()
	for s, se := range l.w.sessions {
		// Priming solves are cold: not this rung's cost.
		net := l.netOf(&l.sc.reqs[l.sc.ids[s][0]])
		var err error
		if se.minCost {
			_, err = pool.SolveSessionMinCost(se.id, net, se.floor)
		} else {
			_, err = pool.SolveSession(se.id, net)
		}
		if err != nil {
			l.fail(err)
		}
	}
	encode := !l.w.shape.observe
	var respBytes, n int
	for _, id := range l.sc.seq[:l.coreDone] {
		r := &l.sc.reqs[id]
		t0 := time.Now()
		se := l.w.sessions[r.sess]
		var (
			sol *core.Solution
			err error
		)
		if se.minCost {
			sol, err = pool.SolveSessionMinCost(se.id, l.netOf(r), se.floor)
		} else {
			sol, err = pool.SolveSession(se.id, l.netOf(r))
		}
		parent := ln.add(spPool, t0, time.Now(), noParent, int64(id))
		l.attempted++
		if err != nil {
			l.fail(err)
			continue
		}
		if encode {
			size, err := l.encode(ln, sol, se.id, parent, int64(id))
			if err != nil {
				l.fail(err)
				continue
			}
			respBytes += size
			n++
		}
	}
	d := l.tr.durations(spPool)
	l.set("warmpool.solve_ms_p50", ms(quantile(d, 0.5)), "ms")
	l.set("warmpool.solve_ms_p99", ms(quantile(d, 0.99)), "ms")
	if encode {
		l.set("scenario.resp_bytes_mean", float64(respBytes)/float64(max(n, 1)), "bytes")
	}
	return nil
}

// decodeBody parses a request body as the server's handler does.
func decodeBody(r *request) error {
	if r.path == observeEndpoint {
		var req scenario.ObserveRequest
		return scenario.Load(bytes.NewReader(r.body), &req)
	}
	var req scenario.SolveRequest
	if err := scenario.Load(bytes.NewReader(r.body), &req); err != nil {
		return err
	}
	if err := req.Validate(); err != nil {
		return err
	}
	_, err := req.Network.ToNetwork()
	return err
}

// decodeRung: scenario.Load, Validate and ToNetwork on every request body
// of the sequence.
func (l *ladder) decodeRung() error {
	ln := l.tr.lane(0)
	var ms0, ms1 runtime.MemStats
	var reqBytes int
	runtime.ReadMemStats(&ms0)
	seq := l.boxed()
	for _, id := range seq.ids {
		if seq.expired() {
			break
		}
		r := &l.sc.reqs[id]
		t0 := time.Now()
		err := decodeBody(r)
		ln.add(spDecode, t0, time.Now(), noParent, int64(id))
		l.attempted++
		if err != nil {
			l.fail(err)
		}
		reqBytes += len(r.body)
	}
	runtime.ReadMemStats(&ms1)
	n := float64(max(seq.done, 1))
	l.decAllocs = float64(ms1.Mallocs-ms0.Mallocs) / n
	l.set("scenario.decode_us_p50", us(quantile(l.tr.durations(spDecode), 0.5)), "us")
	l.set("scenario.req_bytes_mean", float64(reqBytes)/n, "bytes")
	return nil
}

// estimateRung: Adaptor.ObserveSends/ObserveLosses/ObserveRTT plus
// Solution per report. observe-durable replays its own reports (and
// encodes each answer, as /v1/observe does); solve workloads get estPolls
// seeded reports per session near the session's first network.
func (l *ladder) estimateRung() error {
	ln := l.tr.lane(0)
	obs := make([][]scenario.ObserveRequest, len(l.w.sessions))
	ads := make([]*estimate.Adaptor, len(l.w.sessions))
	rng := rand.New(rand.NewPCG(l.w.seed, 0xe57))
	for s, se := range l.w.sessions {
		obs[s] = se.obsReq
		if !l.w.shape.observe {
			for k := 0; k < estPolls; k++ {
				obs[s] = append(obs[s], observation(rng, se.id, se.nets[0]))
			}
		}
		ad, err := estimate.NewAdaptor(se.nets[0])
		if err != nil {
			return err
		}
		if _, _, err := ad.Solution(); err != nil {
			return err
		}
		ads[s] = ad
	}
	var polls, resolved, respBytes int
	for k := range obs[0] {
		for s, se := range l.w.sessions {
			req := int64(noParent)
			if l.w.shape.observe {
				req = int64(l.sc.ids[s][k+1])
			}
			t0 := time.Now()
			observe(ads[s], obs[s][k])
			sol, re, err := ads[s].Solution()
			parent := ln.add(spPoll, t0, time.Now(), noParent, req)
			l.attempted++
			if err != nil {
				l.fail(err)
				continue
			}
			polls++
			if re {
				resolved++
			}
			if l.w.shape.observe {
				size, err := l.encode(ln, sol, se.id, parent, req)
				if err != nil {
					l.fail(err)
				}
				respBytes += size
			}
		}
	}
	l.set("estimate.poll_us_p50", us(quantile(l.tr.durations(spPoll), 0.5)), "us")
	l.set("estimate.resolve_ratio", float64(resolved)/float64(max(polls, 1)), "ratio")
	if l.w.shape.observe {
		l.set("scenario.resp_bytes_mean", float64(respBytes)/float64(max(polls, 1)), "bytes")
	}
	l.set("scenario.encode_us_p50", us(quantile(l.tr.durations(spEncode), 0.5)), "us")
	return nil
}

// rungBox bounds each rung's steady-state replay; priming is not
// counted.
func (l *ladder) rungBox() time.Duration {
	return time.Duration(max(1, l.o.seconds/4) * float64(time.Second))
}

// boxedSeq iterates the sequence for at most one rung box.
type boxedSeq struct {
	ids      []int
	deadline time.Time
	done     int
}

func (l *ladder) boxed() *boxedSeq {
	return &boxedSeq{ids: l.sc.seq, deadline: time.Now().Add(l.rungBox())}
}

// expired counts the request about to run and reports whether the box
// ran out before it.
func (b *boxedSeq) expired() bool {
	if time.Now().After(b.deadline) {
		return true
	}
	b.done++
	return false
}

// shardTotals sums the per-shard counters of a /metrics snapshot.
type shardTotals struct{ solves, waves, warm, rejected float64 }

func totals(m serve.Metrics) shardTotals {
	var t shardTotals
	for _, sh := range m.Shards {
		t.solves += float64(sh.Solves)
		t.waves += float64(sh.Waves)
		t.warm += float64(sh.WarmSolves)
		t.rejected += float64(sh.Rejected)
	}
	return t
}

// inprocRun primes srv through its handler, then replays one cycle of
// the sequence through it on the closed loop's workers, one span per
// request. It returns the pass's request count, its allocations per
// request, and the server counters accrued during the pass.
func (l *ladder) inprocRun(srv *serve.Server, name string) (n int64, allocsPerReq float64, delta shardTotals) {
	h := srv.Handler()
	ds := make([]doer, l.o.workers)
	for i := range ds {
		ds[i] = &inproc{h: h}
	}
	lo := &loop{sc: l.sc, doers: ds, pos: make([]int, len(ds))}
	l.account(lo.prime())
	before := totals(srv.Metrics())
	lo.tr, lo.spanName = l.tr, name
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	win := lo.once(time.Now().Add(l.rungBox()))
	runtime.ReadMemStats(&ms1)
	after := totals(srv.Metrics())
	l.account(win)
	n = win.attempted
	delta = shardTotals{after.solves - before.solves, after.waves - before.waves, after.warm - before.warm, after.rejected - before.rejected}
	return n, float64(ms1.Mallocs-ms0.Mallocs) / float64(max(n, 1)), delta
}

// account folds a loop window's outcome into the run's counts.
func (l *ladder) account(w window) {
	l.attempted += w.attempted
	l.failed += w.failed
	if l.firstErr == "" {
		l.firstErr = w.firstErr
	}
}

func (l *ladder) pq(name string) (p50, p99 time.Duration) {
	d := l.tr.durations(name)
	return quantile(d, 0.5), quantile(d, 0.99)
}

// serveRung: Server.Handler().ServeHTTP into a recorder, no state dir.
func (l *ladder) serveRung() error {
	srv, err := serve.New(serve.Config{})
	if err != nil {
		return err
	}
	defer srv.Close()
	_, allocs, d := l.inprocRun(srv, spInproc)
	allocs -= l.harnessAllocs()
	p50, p99 := l.pq(spInproc)
	l.set("serve.inproc_ms_p50", ms(p50), "ms")
	l.set("serve.inproc_ms_p99", ms(p99), "ms")
	l.set("serve.tasks_per_wave", d.solves/max(d.waves, 1), "count")
	l.set("serve.warm_hit_rate", d.warm/max(d.solves, 1), "ratio")
	l.set("serve.rejected", d.rejected, "count")
	l.set("serve.allocs_per_req", allocs, "count")
	return nil
}

// harnessAllocs is the in-process loop's own allocations per request:
// building the *http.Request, its body reader and header. It is measured
// by the same pass against a handler that only answers 200, and taken off
// serve.allocs_per_req so that metric counts the handler alone.
func (l *ladder) harnessAllocs() float64 {
	noop := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(http.StatusOK) })
	ds := make([]doer, l.o.workers)
	for i := range ds {
		ds[i] = &inproc{h: noop}
	}
	lo := &loop{sc: l.sc, doers: ds, pos: make([]int, len(ds))}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	win := lo.once(time.Now().Add(l.rungBox()))
	runtime.ReadMemStats(&ms1)
	return float64(ms1.Mallocs-ms0.Mallocs) / float64(max(win.attempted, 1))
}

// journalRungs: the in-process server with a state dir, first with
// -journal-nosync, then with the per-record fsync.
func (l *ladder) journalRungs() error {
	for _, nosync := range []bool{true, false} {
		dir, err := os.MkdirTemp("", "dmcbench-journal-")
		if err != nil {
			return err
		}
		srv, err := serve.New(serve.Config{StateDir: dir, JournalNoSync: nosync})
		if err != nil {
			os.RemoveAll(dir)
			return err
		}
		name := spFsync
		if nosync {
			name = spNoSync
		}
		l.inprocRun(srv, name)
		if !nosync {
			dm := srv.Metrics().Durability
			l.set("journal.bytes_per_req", float64(dm.JournalBytes)/float64(max(dm.JournalRecords, 1)), "bytes")
			l.set("journal.snapshots", float64(dm.Snapshots), "count")
			l.set("journal.errors", float64(dm.JournalErrors), "count")
			if dm.JournalErrors > 0 {
				l.fail(fmt.Errorf("journal: %d append errors", dm.JournalErrors))
			}
		}
		srv.Close()
		os.RemoveAll(dir)
	}
	p50, p99 := l.pq(spFsync)
	l.set("journal.nosync_ms_p50", ms(quantile(l.tr.durations(spNoSync), 0.5)), "ms")
	l.set("journal.fsync_ms_p50", ms(p50), "ms")
	l.set("journal.fsync_ms_p99", ms(p99), "ms")
	return nil
}

// replRung: a durable primary with -repl-ack sync and one serve.Follower
// pulling its journal over loopback; requests enter the primary in
// process.
func (l *ladder) replRung() error {
	var dirs []string
	defer func() {
		for _, d := range dirs {
			os.RemoveAll(d)
		}
	}()
	for i := 0; i < 2; i++ {
		d, err := os.MkdirTemp("", "dmcbench-repl-")
		if err != nil {
			return err
		}
		dirs = append(dirs, d)
	}
	srv, err := serve.New(serve.Config{StateDir: dirs[0], ReplAck: serve.ReplAckSync})
	if err != nil {
		return err
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	fol, err := serve.NewFollower(serve.FollowerConfig{Primary: ts.URL, StateDir: dirs[1], ID: "dmcbench"})
	if err != nil {
		return err
	}
	defer fol.Close()
	if !waitFor(30*time.Second, func() bool { return len(srv.Metrics().Replication.Followers) > 0 }) {
		return fmt.Errorf("follower did not connect within 30s")
	}
	chunks0 := srv.Metrics().Replication.ChunksServed
	n, _, _ := l.inprocRun(srv, spRepl)
	rm := srv.Metrics().Replication
	var lag int64
	for _, f := range rm.Followers {
		lag = max(lag, f.LagBytes)
	}
	p50, p99 := l.pq(spRepl)
	l.set("repl.sync_ms_p50", ms(p50), "ms")
	l.set("repl.sync_ms_p99", ms(p99), "ms")
	l.set("repl.chunks_per_req", float64(rm.ChunksServed-chunks0)/float64(max(n, 1)), "count")
	l.set("repl.sync_timeouts", float64(rm.SyncTimeouts), "count")
	l.set("repl.lag_bytes_end", float64(lag), "bytes")
	if rm.SyncTimeouts > 0 {
		l.fail(fmt.Errorf("repl: %d sync acknowledgement timeouts", rm.SyncTimeouts))
	}
	return nil
}

// httpRung: the workload's real dmcd stack over loopback, alternating
// untraced and traced quarter windows so both halves see the same daemon
// state. The difference of their medians is reported as the noise floor
// of a traced-minus-untraced comparison; the tracing overhead itself is
// timed directly (spanCostNs).
func (l *ladder) httpRung() error {
	st, err := startStack(l.o.dmcd, l.w.shape)
	if err != nil {
		return err
	}
	defer st.stop()
	ds, err := dialAll(st.primary.addr, l.o.workers)
	if err != nil {
		return err
	}
	defer closeAll(ds)
	lo := &loop{sc: l.sc, doers: ds, pos: make([]int, len(ds))}
	l.account(lo.prime())
	var (
		untraced []time.Duration
		elapsed  time.Duration
	)
	quarter := l.rungBox() / 4
	self0 := selfCPU()
	server0, err := procCPU(st.primary.pid())
	if err != nil {
		return err
	}
	var served int64
	for i := 0; i < 4; i++ {
		traced := i%2 == 1
		lo.tr, lo.spanName = nil, ""
		if traced {
			lo.tr, lo.spanName = l.tr, spLoopback
		}
		win := lo.run(time.Now().Add(quarter), !traced, nil)
		l.account(win)
		untraced = append(untraced, win.lat...)
		elapsed += win.elapsed
		served += win.ok
	}
	cpuShare := (selfCPU() - self0).Seconds() / (elapsed.Seconds() * float64(l.o.workers))
	server1, err := procCPU(st.primary.pid())
	if err != nil {
		return err
	}
	if n := dials(ds); n != l.o.workers {
		l.fail(fmt.Errorf("http: %d connections opened for a %d-connection loop", n, l.o.workers))
	}
	if l.w.shape.observe {
		l.attempted++
		if _, bad := verifyDurable(st, len(l.w.sessions)); len(bad) > 0 {
			l.fail(fmt.Errorf("http: %s", bad[0]))
		}
	}
	p50, p99 := l.pq(spLoopback)
	l.set("http.loopback_ms_p50", ms(p50), "ms")
	l.set("http.loopback_ms_p99", ms(p99), "ms")
	l.set("http.conns_opened", float64(dials(ds)), "count")
	l.set("http.server_cpu_ms_per_req", ms(server1-server0)/float64(max(served, 1)), "ms")
	// The loopback rung records one span per request, so a span's cost is
	// what tracing adds to each request.
	l.set("trace.overhead_ns", spanCostNs(), "ns")
	l.set("loadgen.cpu_share", cpuShare, "ratio")
	fmt.Fprintf(l.out, "http: traced minus untraced loopback p50 %+.4f ms (window-to-window noise, not tracing cost)\n",
		ms(p50-quantile(untraced, 0.5)))
	return nil
}

// spanCostNs times the tracer's recording call, which the closed loop
// makes once per traced request (its clock reads happen traced or not),
// on a scratch lane preallocated like the run's. It returns nanoseconds
// per call.
func spanCostNs() float64 {
	const n = 1 << 16
	ln := newTracer(1, n).lane(0)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		ln.add(spLoopback, t0, t0, noParent, int64(i))
	}
	return float64(time.Since(t0).Nanoseconds()) / n
}

// rungRow is one line of the ladder table.
type rungRow struct {
	name  string
	below []string // the rungs whose p50s sum to this rung's base
}

// rows lists the ladder bottom to top. The serving rung's base is the
// work its handler calls: the WarmPool solve (estimator poll on
// observe-durable) plus decoding and encoding. HTTP's base is the
// in-process rung with the same durability as the daemon it drives.
func (l *ladder) rows() []rungRow {
	solver, top := spPool, spInproc
	if l.w.shape.observe {
		solver, top = spPoll, spRepl
	}
	return []rungRow{
		{spLP, nil},
		{spCore, []string{spLP}},
		{spPool, []string{spCore}},
		{spPoll, []string{spCore}},
		{spDecode, nil},
		{spEncode, nil},
		{spInproc, []string{solver, spDecode, spEncode}},
		{spNoSync, []string{spInproc}},
		{spFsync, []string{spNoSync}},
		{spRepl, []string{spFsync}},
		{spLoopback, []string{top}},
	}
}

func (l *ladder) base(below []string) time.Duration {
	var b time.Duration
	for _, n := range below {
		p50, _ := l.pq(n)
		b += p50
	}
	return b
}

// deltas derives each layer's self cost: its rung's p50 minus its base.
func (l *ladder) deltas() {
	self := func(metricName, rung string, below ...string) {
		p50, _ := l.pq(rung)
		l.set(metricName, ms(p50-l.base(below)), "ms")
	}
	for _, r := range l.rows() {
		switch r.name {
		case spPool:
			self("warmpool.self_ms_p50", r.name, r.below...)
		case spInproc:
			self("serve.self_ms_p50", r.name, r.below...)
		case spFsync:
			self("journal.self_ms_p50", r.name, spInproc)
		case spRepl:
			self("repl.self_ms_p50", r.name, r.below...)
		case spLoopback:
			self("http.self_ms_p50", r.name, r.below...)
		}
	}
	l.set("scenario.allocs_per_req", l.decAllocs+float64(l.encAllocs)/float64(max(l.encCounted, 1)), "count")
}

// table prints the ladder: each rung's p50/p99 and its delta from the
// rung(s) below.
func (l *ladder) table() {
	fmt.Fprintf(l.out, "\n%-16s %8s %12s %12s %12s  %s\n", "rung", "spans", "p50_ms", "p99_ms", "delta_ms", "below")
	for _, r := range l.rows() {
		d := l.tr.durations(r.name)
		p50, p99 := quantile(d, 0.5), quantile(d, 0.99)
		delta, below := "", "-"
		if len(r.below) > 0 {
			delta = fmt.Sprintf("%12.4f", ms(p50-l.base(r.below)))
			below = fmt.Sprint(r.below)
		}
		fmt.Fprintf(l.out, "%-16s %8d %12.4f %12.4f %12s  %s\n", r.name, len(d), ms(p50), ms(p99), delta, below)
	}
	fmt.Fprintln(l.out)
}

// printMetrics prints metrics sorted by name.
func printMetrics(out io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		fmt.Fprintf(out, "  %-28s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
}
