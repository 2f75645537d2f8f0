// Package serve implements the dmcd online solver service: sessions,
// each with its own warm core.Solver, served through N sharded admission
// gates with a fixed number of execution slots each, per-session §VIII-A
// estimator feeds (estimate.Adaptor) driving warm re-solves on drift,
// admission control with backpressure, and per-shard metrics. The
// HTTP/JSON wire schema lives in internal/scenario; cmd/dmcd wraps this
// package in a binary.
//
// Request flow: a session ID hashes onto a shard, which either admits
// the request or rejects it (HTTP 429 + Retry-After) when MaxQueue
// admitted requests already wait there. Each shard has GOMAXPROCS
// execution slots; the request's own goroutine waits for a free one, in
// arrival order, and then re-solves on the session's own warm solver
// (basis and column affinity survive fleet churn because the solver
// lives on the session); the session mutex orders each session's
// solves. No task waits for another session's solve. Estimator sessions
// route through their Adaptor instead, which re-solves only when the
// fed estimates drift.
package serve

import (
	"errors"
	"fmt"
	"hash/fnv"
	"log"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"dmc/internal/core"
	"dmc/internal/estimate"
	"dmc/internal/fault"
	"dmc/internal/scenario"
)

// fpExec fires in exec just before the solve, the serving stack's own
// injection seam: errors surface as 500s (and count against the shard
// breaker), panics exercise the full containment path, latency holds an
// execution slot so later tasks queue behind it.
var fpExec = fault.Register("serve.exec")

// Config tunes a Server. The zero value selects production defaults.
type Config struct {
	// Shards is the number of shards (admission queue, GOMAXPROCS
	// execution slots, circuit breaker); sessions hash onto one by ID.
	// Zero means GOMAXPROCS.
	Shards int
	// MaxQueue bounds how many admitted tasks wait for an execution slot
	// on each shard; a full queue rejects with 429 + Retry-After. Zero
	// means 1024.
	MaxQueue int
	// MaxBudget caps per-request deadline budgets and is the default
	// for requests that set none: a task still queued past its deadline
	// is shed with 504 instead of burning solver capacity. Zero means
	// 30s; negative disables the default (only explicit budget_ms
	// requests get deadlines, uncapped).
	MaxBudget time.Duration
	// BreakerThreshold is the consecutive-solver-fault count that trips
	// a shard's circuit breaker open (fast 503s, no queue occupancy).
	// Zero means 8; negative disables the breakers.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker rejects before
	// admitting a half-open probe. Zero means 2s.
	BreakerCooldown time.Duration
	// ServeDegraded serves a session's last good strategy (marked
	// "degraded": true) instead of a 503 while its shard's breaker is
	// open.
	ServeDegraded bool
	// StateDir enables crash-safe durability: every session's
	// scenario/objective binding, §VIII-A estimator counters, and last
	// good strategy are journaled to this directory (snapshot +
	// append-only journal) and restored on the next New. Empty disables
	// persistence. See persist.go for the on-disk format.
	StateDir string
	// SnapshotBytes is the journal size that triggers a compacting full
	// snapshot. Zero means 4 MB; negative disables size-triggered
	// compaction (the final snapshot on Close still runs).
	SnapshotBytes int64
	// JournalNoSync skips the per-record fsync on journal appends,
	// trading the crash-durability guarantee (acknowledged implies
	// journaled) for append throughput. Snapshots still fsync.
	JournalNoSync bool
	// ReplAck selects the replication acknowledgement mode: "async"
	// (default — a 2xx means journaled locally; followers catch up via
	// the stream) or "sync" (a 2xx additionally means at least one
	// follower has the record durably — "acknowledged means
	// replicated"). Sync mode with zero connected followers fails
	// writes after ReplAckTimeout by design: the operator asked for
	// replicated durability, so unreplicated writes must not be
	// acknowledged. Requires StateDir.
	ReplAck string
	// ReplAckTimeout bounds how long a sync-mode write waits for a
	// follower acknowledgement before failing the request (the record
	// IS locally durable at that point; the 500 reports only that
	// replication is unconfirmed). Zero means 5s.
	ReplAckTimeout time.Duration
	// ReplLagWarn is the replication lag, in journal bytes, past which
	// /healthz reports degraded. Zero means SnapshotBytes (one full
	// compaction interval behind); negative disables lag health checks.
	ReplLagWarn int64
	// Promote boots this server as the new primary after a failover:
	// the fencing epoch becomes one past the highest epoch in the
	// replayed state, and the bump is made durable immediately (a full
	// compacting snapshot at the new epoch) so a crash cannot un-bump
	// it. A rejoining stale primary's stream is then rejected by every
	// replica that saw the new epoch. Requires StateDir.
	Promote bool
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 1024
	}
	if c.MaxBudget == 0 {
		c.MaxBudget = 30 * time.Second
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 8
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 2 * time.Second
	}
	if c.ReplAck == "" {
		c.ReplAck = ReplAckAsync
	}
	if c.ReplAckTimeout == 0 {
		c.ReplAckTimeout = 5 * time.Second
	}
	if c.ReplLagWarn == 0 {
		c.ReplLagWarn = c.SnapshotBytes
		if c.ReplLagWarn == 0 {
			c.ReplLagWarn = defaultSnapshotBytes
		}
	}
	return c
}

// errClosed rejects tasks arriving in the instant the server shut down.
var errClosed = errors.New("serve: server closed")

// errSaturated rejects tasks when a shard's admission queue is full.
var errSaturated = errors.New("serve: queue full")

// errDropped rejects tasks whose session was dropped while they queued.
var errDropped = errors.New("serve: session dropped")

// errExpired sheds tasks whose deadline budget ran out while queued
// (HTTP 504 + Retry-After); the solver never sees them.
var errExpired = errors.New("serve: deadline budget expired in queue")

// errBreakerOpen fails requests fast while the shard's circuit breaker
// is open (HTTP 503 + Retry-After); they never occupy the queue.
var errBreakerOpen = errors.New("serve: shard circuit breaker open")

// SolverPanic is the typed error a recovered solver panic becomes: the
// client sees a 500 with the panic value, the stack goes to the log
// (first occurrence) and the panics metric, and the session's warm
// solver is quarantined (dropped; the next solve starts cold).
type SolverPanic struct {
	// Session is the poisoned session's ID ("" for one-shot solves).
	Session string
	// Value is the original panic value; Stack the panicking stack.
	Value any
	Stack []byte
}

func (e *SolverPanic) Error() string {
	return fmt.Sprintf("serve: solver panic: %v", e.Value)
}

type taskKind uint8

const (
	// taskSolve solves the task's network explicitly.
	taskSolve taskKind = iota
	// taskPoll polls a session's estimator feed: re-solve iff drifted.
	taskPoll
)

// task is one unit of work, waiting for an execution slot or executing.
type task struct {
	kind      taskKind
	sess      *session // nil for stateless one-shot solves
	estimator bool     // (re)bind an estimator feed on this solve

	net        *core.Network
	objective  string
	minQuality float64
	toOpts     core.TimeoutOptions
	// wire is the request's original Solve body, kept so a successful
	// session solve can record its binding in the durability journal
	// without re-deriving the wire form from the model network.
	wire *scenario.Solve

	enq time.Time
	// deadline is when the task's budget expires (zero = none): a task
	// whose slot comes after expiry is shed without solver work.
	deadline time.Time
}

type taskResult struct {
	res      scenario.SolveResult
	resolved bool
	err      error
}

// session is the serve-level state of one session ID: its shard, its
// warm solver and — for estimator sessions — the §VIII-A adaptor feed.
// The mutex serializes everything per session: solves (so result
// extraction can never race a same-session re-solve clobbering solver
// storage), estimator observations, and drop.
type session struct {
	id string
	sh *shard

	mu sync.Mutex
	// solver is the session's warm solver for explicit solves, created
	// by its first one. A panic quarantines it and a drop frees it (both
	// set it nil); an estimator bind leaves it, so a session that goes
	// back to explicit solves re-solves warm.
	solver *core.Solver
	// timeouts is the table of the latest explicit solve if it was
	// random; Server.tcache holds tables weakly, so this keeps it cached.
	timeouts *core.Timeouts
	adaptor  *estimate.Adaptor
	dropped  bool
	// lastGood is the session's most recent successful wire result, the
	// stale answer ServeDegraded falls back to while the shard's
	// breaker is open. It is a self-contained copy (NewSolveResult
	// extracts), so serving it never races solver storage. Kept only
	// with ServeDegraded or StateDir; nil otherwise.
	lastGood *scenario.SolveResult
	// binding is the wire form of the session's current solve request
	// (network + objective), the scenario half of its durable state.
	// Nil until the first successful solve, and always nil without
	// StateDir. The pointed-to Solve is never mutated, so snapshot
	// captures may share it.
	binding *scenario.Solve
	// dropRec is the session's drop record, built under mu when the
	// session is dropped and appended after release. It stays set so a
	// retry of a drop whose append failed re-appends the same record
	// (same Seq — still the session's highest, since a dropped session
	// is never captured again) instead of no-op'ing into a false 204.
	dropRec *scenario.SnapshotRecord
}

// lastGoodResult returns the session's last good result, or nil.
func (se *session) lastGoodResult() *scenario.SolveResult {
	se.mu.Lock()
	defer se.mu.Unlock()
	if se.dropped {
		return nil
	}
	return se.lastGood
}

// shard is one admission queue plus its execution slots and circuit
// breaker. A task holds an admitted token from admission until it
// finishes and a running token while it executes; admitted has room for
// MaxQueue tokens beyond the slots, so at most MaxQueue tasks wait.
type shard struct {
	idx      int
	admitted chan struct{}
	running  chan struct{} // capacity GOMAXPROCS: the execution slots
	// busy counts the shard's executing tasks; a 0 → 1 step starts a
	// busy period (the Waves metric).
	busy atomic.Int32
	met  shardMetrics
	brk  breaker
}

// waiting returns how many admitted tasks wait for an execution slot.
// The two lengths are read apart, so a task passing between them can
// make the difference negative for a moment.
func (sh *shard) waiting() int {
	return max(len(sh.admitted)-len(sh.running), 0)
}

// Server is the online solver service. Create with New, serve HTTP via
// Handler, stop with Close. Safe for concurrent use.
type Server struct {
	cfg    Config
	shards []*shard
	tcache *core.TimeoutCache
	start  time.Time

	smu      sync.RWMutex
	sessions map[string]*session

	oneShotRR atomic.Uint64 // round-robin shard pick for session-less solves
	closed    atomic.Bool
	admitMu   sync.RWMutex // held shared across admit's closed check and wg.Add; exclusively by Close's barrier
	// wg counts admitted tasks and running compactions; Close waits for
	// it to drain.
	wg sync.WaitGroup

	// persist is the durability layer (nil without Config.StateDir);
	// stateSeq orders its records (seeded past the replayed maximum so
	// new records always outrank restored ones), restored counts the
	// sessions reconstructed at boot.
	persist  *persister
	stateSeq atomic.Uint64
	restored int

	// epoch is this primary's fencing term (see scenario.SnapshotRecord
	// .Epoch): the highest epoch replayed from the state dir, plus one
	// when Config.Promote booted this server as a failover's winner.
	// Immutable after New — promotion always boots a new Server — so
	// reads need no lock.
	epoch uint64
	// repl tracks replication followers and sync-mode acknowledgement
	// waiters (nil without persistence).
	repl *replState

	// panicLog rate-limits panic stacks to one full log line per server;
	// every later panic only bumps the shard's panics counter.
	panicLog sync.Once
}

// logPanic logs the first solver panic's full stack; the rest are
// counted silently (the panics metric carries the rate).
func (s *Server) logPanic(sp *SolverPanic) {
	s.panicLog.Do(func() {
		log.Printf("serve: solver panic (session %q): %v\n%s", sp.Session, sp.Value, sp.Stack)
	})
}

// New starts a Server: cfg.Shards shards, each an admission queue in
// front of GOMAXPROCS execution slots. With Config.StateDir set it first
// replays the state dir's snapshot + journal and re-registers every
// durable session — estimator feeds resume from their restored
// counters, degraded serving resumes from the restored last-good
// strategies, and the first solve per session re-primes its warm solver
// (solver warmth is deliberately not persisted; it returns after one
// solve). New fails when the state dir is unusable or holds records
// from a newer schema version.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		shards:   make([]*shard, cfg.Shards),
		tcache:   core.NewTimeoutCache(),
		start:    time.Now(),
		sessions: make(map[string]*session),
	}
	slots := runtime.GOMAXPROCS(0)
	for i := range s.shards {
		s.shards[i] = &shard{
			idx:      i,
			admitted: make(chan struct{}, cfg.MaxQueue+slots),
			running:  make(chan struct{}, slots),
			brk:      breaker{threshold: cfg.BreakerThreshold, cooldown: cfg.BreakerCooldown},
		}
	}
	if cfg.ReplAck != ReplAckAsync && cfg.ReplAck != ReplAckSync {
		return nil, fmt.Errorf("serve: unknown replication ack mode %q (want %q or %q)", cfg.ReplAck, ReplAckAsync, ReplAckSync)
	}
	if cfg.StateDir == "" && (cfg.ReplAck == ReplAckSync || cfg.Promote) {
		return nil, fmt.Errorf("serve: replication requires a state dir")
	}
	if cfg.StateDir != "" {
		p, state, _, err := openPersister(cfg.StateDir, cfg.SnapshotBytes, cfg.JournalNoSync)
		if err != nil {
			return nil, err
		}
		s.persist = p
		s.stateSeq.Store(p.maxSeq.Load())
		s.epoch = p.maxEpoch.Load()
		if cfg.Promote {
			s.epoch++
		}
		s.repl = newReplState(s)
		for _, st := range state {
			if err := s.restoreSession(st); err != nil {
				// A record that validated at replay but cannot rebuild its
				// session (e.g. an estimator network that no longer converts)
				// is a bug worth failing loudly on: silently dropping it is
				// exactly the state loss this layer exists to prevent.
				p.close()
				return nil, fmt.Errorf("serve: restoring session %q: %w", st.ID, err)
			}
		}
		s.restored = len(state)
	}
	if cfg.Promote {
		// Make the epoch bump durable before the first request: the
		// snapshot rewrites every session record at the new epoch, so a
		// crash right after promotion still reboots fenced. Failing the
		// promotion is better than serving with an epoch a crash forgets.
		if err := fpReplPromote.Hit(); err != nil {
			s.crash()
			return nil, fmt.Errorf("serve: promotion: %w", err)
		}
		if err := s.snapshotNow(); err != nil {
			s.crash()
			return nil, fmt.Errorf("serve: promotion epoch snapshot: %w", err)
		}
	}
	return s, nil
}

// Epoch returns the server's fencing epoch (0 without persistence or
// before any promotion).
func (s *Server) Epoch() uint64 { return s.epoch }

// Restored returns how many sessions were rebuilt from the state dir.
func (s *Server) Restored() int { return s.restored }

// restoreSession re-registers one session from its durable record. The
// registration is cheap — no solver work happens until the session's
// first request, whose solve re-primes a warm solver from the restored
// estimates.
func (s *Server) restoreSession(st *scenario.SessionState) error {
	binding := st.Solve
	se := &session{
		id:       st.ID,
		sh:       s.shardFor(st.ID),
		binding:  &binding,
		lastGood: st.LastGood,
	}
	if st.Estimator {
		net, err := binding.Network.ToNetwork()
		if err != nil {
			return err
		}
		ad, err := estimate.NewAdaptor(net)
		if err != nil {
			return err
		}
		if err := ad.Restore(estimatesFromWire(st.Estimates)); err != nil {
			return err
		}
		se.adaptor = ad
	}
	s.sessions[st.ID] = se
	return nil
}

// estimatesToWire copies adaptor counters into the snapshot schema.
func estimatesToWire(st []estimate.PathState) []scenario.PathEstimate {
	out := make([]scenario.PathEstimate, len(st))
	for i, e := range st {
		out[i] = scenario.PathEstimate{
			Sent:       e.Sent,
			Lost:       e.Lost,
			SRTTSec:    e.SRTT,
			RTTVarSec:  e.RTTVar,
			RTTSamples: e.RTTSamples,
		}
	}
	return out
}

// estimatesFromWire is the inverse of estimatesToWire. Both sides keep
// the RTT terms in seconds, so restore is bit-exact.
func estimatesFromWire(w []scenario.PathEstimate) []estimate.PathState {
	out := make([]estimate.PathState, len(w))
	for i, e := range w {
		out[i] = estimate.PathState{
			Sent:       e.Sent,
			Lost:       e.Lost,
			SRTT:       e.SRTTSec,
			RTTVar:     e.RTTVarSec,
			RTTSamples: e.RTTSamples,
		}
	}
	return out
}

// captureLocked snapshots one session's durable state into a journal
// record; the caller holds se.mu. Nil when persistence is off or the
// session has no binding yet (nothing durable to say). Only the capture
// happens under the lock: the record shares the session's binding and
// lastGood pointers — both immutable once published — and the estimator
// counters are copied out by State, so framing and file IO run after
// release (lockheld: file writes block).
func (s *Server) captureLocked(se *session) *scenario.SnapshotRecord {
	if s.persist == nil || se.binding == nil {
		return nil
	}
	st := &scenario.SessionState{
		ID:       se.id,
		Solve:    *se.binding,
		LastGood: se.lastGood,
	}
	if se.adaptor != nil {
		st.Estimator = true
		st.Estimates = estimatesToWire(se.adaptor.State())
	}
	return &scenario.SnapshotRecord{
		Version: scenario.SnapshotVersion,
		Seq:     s.stateSeq.Add(1),
		Epoch:   s.epoch,
		Kind:    scenario.RecordSession,
		Session: st,
	}
}

// snapshotNow captures every live session and writes a full compacting
// snapshot. Registry and session locks are released before any file IO,
// but the persister mutex is held from before the first capture through
// the journal truncate: appends serialize on the same mutex, so any
// record the truncate discards was appended — and its session mutated —
// strictly before the captures began, which means the snapshot observes
// that state (or newer, with a higher Seq) and nothing acknowledged is
// lost. Without the barrier a solve on another shard could journal and
// acknowledge newer state between its session's capture and the
// truncate, and a crash would restore the stale capture. Appends (and
// so acknowledgements) queue behind the snapshot for its duration;
// that latency is the price of the guarantee. No deadlock: appenders
// never hold a session or registry lock while taking the persister
// mutex.
func (s *Server) snapshotNow() error {
	if s.persist == nil {
		return nil
	}
	p := s.persist
	p.mu.Lock()
	defer p.mu.Unlock()
	s.smu.RLock()
	ses := make([]*session, 0, len(s.sessions))
	for _, se := range s.sessions {
		ses = append(ses, se)
	}
	s.smu.RUnlock()
	recs := make([]*scenario.SnapshotRecord, 0, len(ses))
	for _, se := range ses {
		se.mu.Lock()
		var rec *scenario.SnapshotRecord
		if !se.dropped {
			rec = s.captureLocked(se)
		}
		se.mu.Unlock()
		if rec != nil {
			recs = append(recs, rec)
		}
	}
	return p.writeSnapshotLocked(recs)
}

// compact runs one snapshot compaction on its own goroutine, so the
// request whose append crossed the journal threshold is acknowledged as
// soon as its own record is durable instead of bearing the whole
// fleet's capture + snapshot IO inside its deadline budget. Singleflight:
// tasks on every shard can cross the threshold at once, one spawn wins
// and the rest skip. The goroutine rides s.wg, so Close/crash wait it
// out before the final snapshot and the journal close; once closed is
// set it stands down — Close's own snapshotNow compacts. Failure is
// logged, not fatal — the journal simply keeps growing until a later
// compaction succeeds.
func (s *Server) compact() {
	if !s.persist.snapshotting.CompareAndSwap(false, true) {
		return
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer s.persist.snapshotting.Store(false)
		if s.closed.Load() {
			return
		}
		if err := s.snapshotNow(); err != nil {
			log.Printf("serve: snapshot compaction failed (journal keeps growing): %v", err)
		}
	}()
}

// shardFor hashes a session ID onto its shard. Stable by construction:
// the same ID always lands on the same shard for the server's lifetime.
func (s *Server) shardFor(id string) *shard {
	h := fnv.New32a()
	h.Write([]byte(id))
	return s.shards[h.Sum32()%uint32(len(s.shards))]
}

// sessionFor returns the session for id, creating it if needed.
func (s *Server) sessionFor(id string) *session {
	s.smu.RLock()
	se := s.sessions[id]
	s.smu.RUnlock()
	if se != nil {
		return se
	}
	s.smu.Lock()
	defer s.smu.Unlock()
	if se = s.sessions[id]; se == nil {
		se = &session{id: id, sh: s.shardFor(id)}
		s.sessions[id] = se
	}
	return se
}

// lookupSession returns the session for id, or nil.
func (s *Server) lookupSession(id string) *session {
	s.smu.RLock()
	defer s.smu.RUnlock()
	return s.sessions[id]
}

// DropSession removes a session: its registry entry, its estimator
// feed, and its warm solver (left to the garbage collector; a later
// session under the same ID starts cold). Unknown IDs are a no-op.
// Tasks the session still has queued fail with a "session dropped"
// error.
//
// With persistence on, a drop follows the same durability-before-
// acknowledgement rule as a solve: the drop record must be journaled
// before DropSession returns nil. On append failure the error comes
// back (handleDrop answers 500, counting against the shard breaker) and
// the session — already dropped in memory, its queued and future tasks
// failing with errDropped — stays in the registry carrying its pending
// record, so a client retry re-appends that record instead of falling
// through the unknown-ID no-op into a false 204. The registry entry
// goes only once the record is durable (a compaction that ran in
// between also suffices: it skips dropped sessions, so the truncated
// journal plus the new snapshot already encode the drop, and the
// retried append is a harmless stale record).
func (s *Server) DropSession(id string) error {
	se := s.lookupSession(id)
	if se == nil {
		return nil
	}
	se.mu.Lock()
	if !se.dropped {
		se.dropped = true
		se.solver, se.timeouts, se.adaptor = nil, nil, nil
		if s.persist != nil && se.binding != nil {
			// Seq is assigned inside the critical section so the drop orders
			// after any in-flight capture of this session; the append itself
			// waits for the locks to go.
			se.dropRec = &scenario.SnapshotRecord{
				Version:   scenario.SnapshotVersion,
				Seq:       s.stateSeq.Add(1),
				Epoch:     s.epoch,
				Kind:      scenario.RecordDrop,
				SessionID: id,
			}
		}
	}
	rec := se.dropRec
	se.mu.Unlock()
	if rec != nil {
		if err := s.appendDurable(rec); err != nil {
			se.sh.brk.onFault()
			return fmt.Errorf("serve: session drop not durable: %w", err)
		}
	}
	s.smu.Lock()
	if s.sessions[id] == se {
		delete(s.sessions, id)
	}
	s.smu.Unlock()
	return nil
}

// Sessions returns the live session count.
func (s *Server) Sessions() int {
	s.smu.RLock()
	defer s.smu.RUnlock()
	return len(s.sessions)
}

// admit takes a place on the shard for one task, which the caller then
// executes (submit) and releases with s.wg.Done and an admitted token.
// errSaturated means the caller should reply 429 with retryAfter;
// errClosed means the server is (or began) shutting down. Holding
// admitMu shared across the closed check and wg.Add guarantees no task
// slips in after Close's drain: Close flips the flag and then takes
// admitMu exclusively, so every task that passed the check here counts
// in s.wg before Close waits on it.
func (s *Server) admit(sh *shard) error {
	s.admitMu.RLock()
	defer s.admitMu.RUnlock()
	if s.closed.Load() {
		return errClosed
	}
	if !sh.brk.allow() {
		return errBreakerOpen
	}
	select {
	case sh.admitted <- struct{}{}:
		s.wg.Add(1)
		return nil
	default:
		// A half-open probe slot granted by allow must be returned, or a
		// saturated queue would wedge the breaker half-open forever.
		sh.brk.onSkip()
		sh.met.rejected.Add(1)
		return errSaturated
	}
}

// deadlineFor turns a request's budget_ms into an absolute deadline:
// the client's budget capped by MaxBudget, MaxBudget itself when the
// request sets none, and no deadline at all (zero time) when deadlines
// are disabled (negative MaxBudget) and the request asked for nothing.
func (s *Server) deadlineFor(budgetMs float64) time.Time {
	budget := s.cfg.MaxBudget
	// Compare in milliseconds: from about 9.2e12 ms a budget overflows
	// a Duration, which then holds the longest one.
	if budgetMs > 0 && (budget < 0 || budgetMs < float64(budget)/float64(time.Millisecond)) {
		budget = math.MaxInt64
		if ns := budgetMs * float64(time.Millisecond); ns < math.MaxInt64 {
			budget = time.Duration(ns)
		}
	}
	if budget < 0 {
		return time.Time{}
	}
	return time.Now().Add(budget)
}

// retryAfter estimates how long a rejected caller should back off: the
// queue's expected drain time at the shard's median latency across its
// execution slots, plus bounded jitter — every client shed in the same
// burst sees the same queue depth and p50, and identical hints would
// march them back as one synchronized retry storm. The jitter is
// deterministic (a counter-keyed hash stream, not a clock or RNG), so
// the nth rejection on a shard always backs off the same amount and
// chaos runs replay exactly. Clamped to [1s, 30s] whole seconds.
func (s *Server) retryAfter(sh *shard) int {
	var base time.Duration
	if p50 := sh.met.quantile(0.50); p50 > 0 {
		base = time.Duration(sh.waiting()) * p50 / time.Duration(cap(sh.running))
	}
	// Jitter spans [0, base/2 + 1s): proportional spread under load, at
	// least a second of spread when the queue is empty.
	span := base/2 + time.Second
	jitter := time.Duration(splitmix64(sh.met.retrySeq.Add(1)) % uint64(span))
	secs := int((base + jitter + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return secs
}

// splitmix64 mixes a counter into a well-distributed 64-bit value
// (Steele et al.'s SplitMix64 finalizer), the jitter's hash stream.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Close stops the server gracefully: every already-admitted task is
// still solved (the shard queues drain) before Close returns.
// With persistence on, the drain ends with a final full snapshot so a
// graceful restart is lossless by construction. Requests arriving after
// Close begin fail with 503. Close is idempotent and safe to call
// concurrently.
func (s *Server) Close() {
	if !s.stop() {
		return
	}
	if s.persist != nil {
		if err := s.snapshotNow(); err != nil {
			// Not fatal for durability: everything acknowledged is already
			// fsync'd in the journal; only the compaction is lost.
			log.Printf("serve: final snapshot: %v", err)
		}
		s.persist.close()
	}
}

// QuiesceReplication wakes parked replication long-polls and pending
// sync-ack waits without stopping the server: parked GET /v1/replicate
// polls answer 204 and sync-mode writes stop waiting for follower acks
// (their records are already locally durable). cmd/dmcd calls it as the
// first step of graceful shutdown, before draining its http.Server —
// otherwise a standby parked in a long poll stalls the HTTP drain for
// the poll's full wait.
func (s *Server) QuiesceReplication() {
	if s.repl != nil {
		s.repl.shutdown()
	}
}

// crash is the hard-stop half of Close that durability tests use to
// simulate kill -9: admitted tasks still drain (the goroutine-leak
// detector must stay clean), but no final snapshot runs and nothing is
// flushed beyond what append already made durable — recovery must work
// from exactly the acknowledged journal.
func (s *Server) crash() {
	if !s.stop() {
		return
	}
	if s.persist != nil {
		s.persist.close()
	}
}

// stop flips closed, waits out in-flight admissions, and then every
// admitted task. Reports false if the server was already stopped.
func (s *Server) stop() bool {
	if !s.closed.CompareAndSwap(false, true) {
		return false
	}
	// Admission barrier: wait out every admit that passed the closed
	// check before the flag flipped (each holds admitMu shared until its
	// task counts in s.wg). After this nothing new is admitted, so
	// s.wg.Wait sees every admitted task answered.
	s.admitMu.Lock()
	s.admitMu.Unlock()
	// Release sync-mode acknowledgement waiters before draining: a
	// drained task parked on a follower ack that will never come (the
	// follower may be what we are shutting down for) must fail fast, not
	// serve out its full ack timeout. Its record is already durable
	// locally either way.
	if s.repl != nil {
		s.repl.shutdown()
	}
	s.wg.Wait()
	return true
}

// exec runs one task on its caller's goroutine, which holds one of the
// shard's execution slots, and returns its result. An expired budget is
// shed here, after queueing and before solver work, for the cost of the
// check. Any panic below — injected or real — is contained to this
// task: the session path quarantines its solver in solveTask's recover,
// everything else is caught here, and either way the caller gets a
// typed 500.
func (s *Server) exec(sh *shard, t *task) (r taskResult) {
	if sh.busy.Add(1) == 1 {
		sh.met.waves.Add(1)
	}
	defer sh.busy.Add(-1)
	if !t.deadline.IsZero() && time.Now().After(t.deadline) {
		sh.met.shedExpired.Add(1)
		sh.brk.onSkip()
		return taskResult{err: errExpired}
	}
	defer func() {
		if p := recover(); p != nil {
			sp, ok := p.(*SolverPanic)
			if !ok {
				sp = &SolverPanic{Value: p, Stack: debug.Stack()}
			}
			r = taskResult{err: sp}
		}
		var sp *SolverPanic
		if errors.As(r.err, &sp) {
			sh.met.panics.Add(1)
			s.logPanic(sp)
		}
		if isServerFault(r.err) {
			sh.brk.onFault()
		} else {
			sh.brk.onSuccess()
		}
		sh.met.observe(time.Since(t.enq), r.res.Warm, r.err != nil)
	}()
	if err := fpExec.Hit(); err != nil {
		return taskResult{err: fmt.Errorf("serve: exec: %w", err)}
	}
	var rec *scenario.SnapshotRecord
	r.res, r.resolved, rec, r.err = s.solveTask(sh, t)
	if r.err == nil && rec != nil {
		// Durability before acknowledgement: a solve whose state capture
		// cannot be journaled fails — answering 200 and then forgetting
		// the session on the next crash would be a silent lie. The error
		// counts against the shard breaker like any other server fault.
		if err := s.appendDurable(rec); err != nil {
			r = taskResult{err: fmt.Errorf("serve: session state not durable: %w", err)}
		} else if s.persist.shouldSnapshot() {
			s.compact()
		}
	}
	return r
}

// solveTask executes a task against its session's warm solver (or a
// fresh, cold one for a session-less task). The wire result is
// extracted while the session lock is held, so a same-session re-solve
// can never rebuild the solver storage under the extraction. Successful
// session solves also return the session's durable-state capture (nil
// with persistence off); the caller journals it after the lock is gone.
func (s *Server) solveTask(sh *shard, t *task) (res scenario.SolveResult, resolved bool, rec *scenario.SnapshotRecord, err error) {
	var to *core.Timeouts
	if t.kind == taskSolve && t.objective == scenario.ObjectiveRandom {
		to, err = s.tcache.OptimalTimeouts(t.net, t.toOpts)
		if err != nil {
			return scenario.SolveResult{}, false, nil, err
		}
	}
	if t.sess == nil {
		res, err = solveOn(core.NewSolver(), t, to)
		return res, err == nil, nil, err
	}
	se := t.sess
	se.mu.Lock()
	defer se.mu.Unlock()
	// Registered after the unlock defer, so this recover runs FIRST
	// (LIFO) — while se.mu is still held. A panic anywhere in the
	// session solve leaves the warm solver in an unknown state:
	// quarantine it (the next solve re-primes cold on a fresh solver)
	// and detach any estimator feed whose adaptor shared the lineage.
	defer func() {
		if p := recover(); p != nil {
			se.solver = nil
			se.adaptor = nil
			res, resolved, rec = scenario.SolveResult{}, false, nil
			err = &SolverPanic{Session: se.id, Value: p, Stack: debug.Stack()}
		}
	}()
	if se.dropped {
		return scenario.SolveResult{}, false, nil, errDropped
	}

	if t.kind == taskPoll {
		if se.adaptor == nil {
			return scenario.SolveResult{}, false, nil, fmt.Errorf("serve: session %q has no estimator feed", se.id)
		}
		sol, resolved, err := se.adaptor.Solution()
		if err != nil {
			return scenario.SolveResult{}, false, nil, err
		}
		res := scenario.NewSolveResult(sol, nil)
		s.keepLocked(se, res, nil)
		return res, resolved, s.captureLocked(se), nil
	}

	if t.estimator {
		// (Re)bind the estimator feed to this network and solve through
		// it: the adaptor's own solver carries the feed's re-solves from
		// here, and /v1/observe drives it. se.solver stays for a later
		// explicit solve. Estimator state starts fresh per the §VIII-A
		// bootstrap (0% loss until observations arrive).
		ad, err := estimate.NewAdaptor(t.net)
		if err != nil {
			return scenario.SolveResult{}, false, nil, err
		}
		sol, _, err := ad.Solution()
		if err != nil {
			return scenario.SolveResult{}, false, nil, err
		}
		se.adaptor = ad
		res := scenario.NewSolveResult(sol, nil)
		s.keepLocked(se, res, t.wire)
		return res, true, s.captureLocked(se), nil
	}
	// An explicit plain solve supersedes any estimator feed: the client
	// has switched to driving re-solves itself.
	se.adaptor = nil
	se.timeouts = to
	if se.solver == nil {
		se.solver = core.NewSolver()
	}
	out, err := solveOn(se.solver, t, to)
	if err != nil {
		return scenario.SolveResult{}, false, nil, err
	}
	s.keepLocked(se, out, t.wire)
	return out, true, s.captureLocked(se), nil
}

// solveOn re-solves the task's objective on sv — a session's warm
// solver, or a fresh one, which solves cold — and extracts the wire
// result before sv can solve again.
func solveOn(sv *core.Solver, t *task, to *core.Timeouts) (scenario.SolveResult, error) {
	var sol *core.Solution
	var err error
	switch t.objective {
	case scenario.ObjectiveMinCost:
		sol, err = sv.ResolveMinCost(t.net, t.minQuality)
	case scenario.ObjectiveRandom:
		sol, err = sv.ResolveQualityRandom(t.net, to)
	default:
		sol, err = sv.Resolve(t.net)
	}
	if err != nil {
		return scenario.SolveResult{}, err
	}
	return scenario.NewSolveResult(sol, to), nil
}

// keepLocked stores what a later read needs from a successful session
// solve; the caller holds se.mu. The last good result is read by
// degraded serving and by the journal capture, the wire binding by the
// journal capture alone, so a server with neither feature keeps no
// per-session copy. A nil wire (an estimator poll) leaves the binding.
func (s *Server) keepLocked(se *session, res scenario.SolveResult, wire *scenario.Solve) {
	if s.persist != nil || s.cfg.ServeDegraded {
		lg := res
		se.lastGood = &lg
	}
	if s.persist != nil && wire != nil {
		se.binding = wire
	}
}
