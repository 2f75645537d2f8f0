// Replication: streaming the durability journal to hot-standby
// followers, so an acknowledged session state survives not just a
// process crash (PR 9's journal) but the loss of the node.
//
// Topology: pull-based. A follower long-polls the primary's
// GET /v1/replicate from its durable journal position (gen, off); the
// primary answers with a chunk of whole CRC32 frames, a 204 when the
// follower is caught up, or — when the position is not addressable in
// the current journal incarnation (the follower is new, diverged, or
// the primary compacted) — a full snapshot+journal reset transfer. The
// poll position doubles as the acknowledgement: a follower only
// advances its cursor after the chunk is fsync'd into its own journal,
// so the primary reading "poll at (g, o)" knows everything before
// (g, o) is durable on that follower.
//
// Ack modes: async (default) acknowledges writes once locally
// journaled; sync withholds the 2xx until at least one follower's
// cursor passes the record — "acknowledged means replicated". A
// sync-mode timeout fails the request even though the record is
// locally durable: the operator asked for replicated durability, and
// reporting less would be a lie.
//
// Fencing: every record carries its writing primary's epoch
// (scenario.SnapshotRecord.Epoch, schema v2). Promotion bumps the
// epoch and durably stamps it (a full snapshot at the new epoch), so
// after a partition heals, a stale primary's stream is identifiable:
// a follower that saw epoch E rejects any primary announcing less
// (ErrFenced), and a primary 409s any poll carrying more — the stale
// side must rejoin as a follower, taking a reset transfer that
// discards its divergent suffix instead of merging it.
//
// Lock discipline: replication network IO never runs under Server.smu
// or a session mutex. The sender reads journal bytes under the
// persister's own mutex (that mutex exists to serialize file IO) and
// writes to the network after release; the follower parses and
// validates a chunk before touching its own journal.
package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dmc/internal/fault"
	"dmc/internal/scenario"
)

// Replication acknowledgement modes (Config.ReplAck).
const (
	ReplAckAsync = "async"
	ReplAckSync  = "sync"
)

// The replication layer's injection seams: the primary's send path
// (chunk and reset-transfer responses), the follower's apply path
// (between receiving a chunk and persisting it), and promotion's
// epoch-stamping snapshot.
var (
	fpReplSend    = fault.Register("repl.send")
	fpReplApply   = fault.Register("repl.apply")
	fpReplPromote = fault.Register("repl.promote")
)

// ErrFenced reports a fenced replication stream: the primary announced
// an epoch older than one this follower has already seen, so the
// primary is a stale pre-failover survivor and must not be followed.
var ErrFenced = errors.New("serve: replication stream fenced: primary epoch is stale")

const (
	// maxReplWait caps a replication long-poll, whatever the follower
	// asked for.
	maxReplWait = 30 * time.Second
	// staleFollowerAfter is how long a silent follower stays in the
	// primary's follower table (and its lag in /healthz) before it is
	// presumed gone and pruned.
	staleFollowerAfter = 60 * time.Second
	// maxReplBody bounds a follower's read of one replication response.
	// A chunk is at most maxReplChunk; a reset transfer carries a full
	// snapshot, which at millions of sessions is large but nowhere near
	// this.
	maxReplBody = 1 << 30
)

// Replication response headers. The gen/off pair is the follower's
// next poll position once it has durably applied the body.
const (
	hdrGen     = "X-Dmc-Gen"
	hdrOff     = "X-Dmc-Off"
	hdrRecs    = "X-Dmc-Recs"
	hdrEpoch   = "X-Dmc-Epoch"
	hdrReset   = "X-Dmc-Reset"
	hdrSnapLen = "X-Dmc-Snapshot-Len"
)

// followerInfo is the primary's view of one follower: its durable
// position (the last poll's cursor), applied record count, fencing
// epoch, and when it was last heard from.
type followerInfo struct {
	id       string
	pos      replPos
	recs     int64
	epoch    uint64
	lastSeen time.Time
}

// ackWaiter parks one sync-mode append until a follower's cursor
// passes pos.
type ackWaiter struct {
	pos replPos
	ch  chan struct{}
}

// replState is the primary's replication bookkeeping: the follower
// table and the sync-ack high-water mark with its waiters.
type replState struct {
	s *Server

	mu        sync.Mutex
	followers map[string]*followerInfo
	// acked is the replicated high-water mark: the maximum position any
	// follower has durably reached. Any-replica acknowledgement — sync
	// mode promises one surviving copy, not a quorum (see ROADMAP
	// follow-ons).
	acked   replPos
	waiters map[*ackWaiter]struct{}

	stopped  chan struct{}
	stopOnce sync.Once

	chunksServed atomic.Uint64
	resetsServed atomic.Uint64
	syncTimeouts atomic.Uint64
	fencedPolls  atomic.Uint64
}

func newReplState(s *Server) *replState {
	return &replState{
		s:         s,
		followers: make(map[string]*followerInfo),
		waiters:   make(map[*ackWaiter]struct{}),
		stopped:   make(chan struct{}),
	}
}

// shutdown releases every sync-ack waiter and future waits; their
// records are locally durable, only the replication confirmation is
// abandoned.
func (r *replState) shutdown() {
	r.stopOnce.Do(func() { close(r.stopped) })
}

// observeFollower folds one poll into the follower table and advances
// the acked high-water mark, waking satisfied sync waiters. No IO runs
// under r.mu.
func (r *replState) observeFollower(id string, pos replPos, recs int64, epoch uint64) {
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.followers[id]
	if f == nil {
		f = &followerInfo{id: id}
		r.followers[id] = f
	}
	f.pos, f.recs, f.epoch, f.lastSeen = pos, recs, epoch, now
	if pos.atOrPast(r.acked) {
		r.acked = pos
	}
	for w := range r.waiters {
		if r.acked.atOrPast(w.pos) {
			close(w.ch)
			delete(r.waiters, w)
		}
	}
}

// waitAcked blocks a sync-mode append until a follower durably holds
// pos, the ack timeout passes, or the server stops. In async mode it
// returns immediately. A non-nil error means the caller must fail its
// request: the record is journaled locally, but "acknowledged means
// replicated" could not be honored.
func (r *replState) waitAcked(pos replPos) error {
	if r.s.cfg.ReplAck != ReplAckSync {
		return nil
	}
	r.mu.Lock()
	if r.acked.atOrPast(pos) {
		r.mu.Unlock()
		return nil
	}
	w := &ackWaiter{pos: pos, ch: make(chan struct{})}
	r.waiters[w] = struct{}{}
	r.mu.Unlock()

	t := time.NewTimer(r.s.cfg.ReplAckTimeout)
	defer t.Stop()
	select {
	case <-w.ch:
		return nil
	case <-r.stopped:
		r.drop(w)
		return fmt.Errorf("serve: shutting down before a follower acknowledged the write (locally durable, replication unconfirmed)")
	case <-t.C:
		r.syncTimeouts.Add(1)
		r.drop(w)
		return fmt.Errorf("serve: no follower acknowledged the write within %v (locally durable, replication unconfirmed)", r.s.cfg.ReplAckTimeout)
	}
}

func (r *replState) drop(w *ackWaiter) {
	r.mu.Lock()
	delete(r.waiters, w)
	r.mu.Unlock()
}

// appendDurable is the write path's single durability call: journal the
// record locally (fsync per Config), then — in sync mode — hold the
// acknowledgement until a follower has it too. A compaction between the
// append and the ack satisfies the wait naturally: it bumps the journal
// gen, the follower takes a reset transfer whose snapshot contains the
// record's state, and the follower's new-gen cursor passes the old-gen
// position by definition (atOrPast).
func (s *Server) appendDurable(rec *scenario.SnapshotRecord) error {
	pos, err := s.persist.append(rec)
	if err != nil {
		return err
	}
	if s.repl != nil {
		return s.repl.waitAcked(pos)
	}
	return nil
}

// lagSnapshot computes per-follower replication lag against the current
// journal tail, pruning followers silent past staleFollowerAfter. The
// persister cursor is read before taking r.mu — the two locks never
// nest.
func (r *replState) lagSnapshot() []ReplFollowerMetrics {
	cur := r.s.persist.cursor()
	curRecs := r.s.persist.recordsInGen()
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]ReplFollowerMetrics, 0, len(r.followers))
	for id, f := range r.followers {
		if now.Sub(f.lastSeen) > staleFollowerAfter {
			delete(r.followers, id)
			continue
		}
		m := ReplFollowerMetrics{
			ID:         f.id,
			Epoch:      f.epoch,
			LastSeenMs: float64(now.Sub(f.lastSeen)) / float64(time.Millisecond),
		}
		if f.pos.gen == cur.gen {
			m.LagBytes = cur.off - f.pos.off
			m.LagRecords = curRecs - f.recs
		} else {
			// A cursor from another incarnation: the next poll takes a
			// reset transfer, so the whole current journal is outstanding.
			m.Resync = true
			m.LagBytes = cur.off
			m.LagRecords = curRecs
		}
		out = append(out, m)
	}
	return out
}

// replHealth reports replication trouble for /healthz: the worst
// follower lag over Config.ReplLagWarn, or — in sync mode — no
// followers connected at all (every write is failing its ack wait).
func (r *replState) replHealth() []string {
	var out []string
	lags := r.lagSnapshot()
	if len(lags) == 0 {
		if r.s.cfg.ReplAck == ReplAckSync {
			out = append(out, "sync replication with no follower connected")
		}
		return out
	}
	if warn := r.s.cfg.ReplLagWarn; warn > 0 {
		for _, f := range lags {
			if f.LagBytes > warn {
				out = append(out, fmt.Sprintf("follower %q replication lag %d bytes (threshold %d)", f.ID, f.LagBytes, warn))
			}
		}
	}
	return out
}

// handleReplicate is the primary's side of the stream: one long-poll
// from one follower. Registered only when persistence is on.
func (s *Server) handleReplicate(w http.ResponseWriter, r *http.Request) {
	if s.closed.Load() {
		writeErr(w, http.StatusServiceUnavailable, "serve: shutting down")
		return
	}
	q := r.URL.Query()
	gen, _ := strconv.ParseUint(q.Get("gen"), 10, 64)
	off, _ := strconv.ParseInt(q.Get("off"), 10, 64)
	recs, _ := strconv.ParseInt(q.Get("recs"), 10, 64)
	fepoch, _ := strconv.ParseUint(q.Get("epoch"), 10, 64)
	waitMs, _ := strconv.Atoi(q.Get("wait_ms"))
	id := q.Get("id")
	if id == "" {
		id = r.RemoteAddr
	}
	if fepoch > s.epoch {
		// The poller has seen a newer primary than us: we are the stale
		// survivor of a failover. Refuse to serve — feeding our divergent
		// journal to the fleet is exactly what fencing exists to prevent.
		s.repl.fencedPolls.Add(1)
		writeErr(w, http.StatusConflict,
			"serve: replication poll carries epoch %d, newer than this primary's %d; this primary is fenced and must rejoin as a follower", fepoch, s.epoch)
		return
	}
	if err := fpReplSend.Hit(); err != nil {
		writeErr(w, http.StatusInternalServerError, "serve: replication send: %v", err)
		return
	}
	pos := replPos{gen: gen, off: off}
	// The poll position is the follower's durable acknowledgement.
	s.repl.observeFollower(id, pos, recs, fepoch)

	// Long-polls legitimately outlive the enclosing http.Server's read
	// and write timeouts (cmd/dmcd sets them against slowloris clients);
	// lift both for this response only. The read deadline matters too:
	// the server's background connection read (its client-abort
	// detector) would otherwise trip mid-park and cancel the poll.
	rc := http.NewResponseController(w)
	_ = rc.SetReadDeadline(time.Time{})
	_ = rc.SetWriteDeadline(time.Time{})

	wait := time.Duration(waitMs) * time.Millisecond
	if wait < 0 {
		wait = 0
	}
	if wait > maxReplWait {
		wait = maxReplWait
	}
	deadline := time.Now().Add(wait)
	h := w.Header()
	// setPos stamps the follower's next poll position, once it has
	// durably applied the body, and this primary's epoch.
	setPos := func(p replPos) {
		h.Set(hdrGen, strconv.FormatUint(p.gen, 10))
		h.Set(hdrOff, strconv.FormatInt(p.off, 10))
		h.Set(hdrEpoch, strconv.FormatUint(s.epoch, 10))
	}
	for {
		// Grab the change channel before reading: an append landing
		// between the read and the wait must wake us.
		ch := s.persist.waitCh()
		data, next, recs, reset, err := s.persist.readJournal(pos)
		var snap []byte
		if err == nil && reset {
			snap, data, next, recs, err = s.persist.readForReset()
		}
		if err != nil {
			writeErr(w, http.StatusInternalServerError, "%v", err)
			return
		}
		if reset || len(data) > 0 {
			if reset {
				s.repl.resetsServed.Add(1)
				h.Set(hdrReset, "1")
				h.Set(hdrSnapLen, strconv.Itoa(len(snap)))
			} else {
				s.repl.chunksServed.Add(1)
			}
			setPos(next)
			h.Set(hdrRecs, strconv.FormatInt(recs, 10))
			h.Set("Content-Type", "application/octet-stream")
			w.Write(snap)
			w.Write(data)
			return
		}
		// Caught up: park until the journal changes or the poll expires.
		left := time.Until(deadline)
		if left <= 0 {
			setPos(pos)
			w.WriteHeader(http.StatusNoContent)
			return
		}
		t := time.NewTimer(left)
		select {
		case <-ch:
			t.Stop()
		case <-t.C:
		case <-r.Context().Done():
			t.Stop()
			return
		case <-s.repl.stopped:
			t.Stop()
			h.Set(hdrEpoch, strconv.FormatUint(s.epoch, 10))
			w.WriteHeader(http.StatusNoContent)
			return
		}
	}
}

// parseFrames decodes and validates a replication body's frames. Every
// frame must be whole and checksum-clean — the body came over TCP from
// data the primary read back from its own journal, so any damage means
// a bug, not line noise — and every record must parse and validate,
// because the follower is about to make them durable.
func parseFrames(data []byte) ([]*scenario.SnapshotRecord, error) {
	var out []*scenario.SnapshotRecord
	r := bytes.NewReader(data)
	var buf []byte
	for off := 0; ; off += frameHeaderLen + len(buf) {
		var err error
		if buf, err = readFrame(r, buf); err == io.EOF {
			return out, nil
		}
		var rec *scenario.SnapshotRecord
		if err == nil {
			rec, err = decodeRecord(buf)
		}
		if err != nil {
			return nil, fmt.Errorf("serve: replication body offset %d: %w", off, err)
		}
		out = append(out, rec)
	}
}

// FollowerConfig configures a hot-standby Follower.
type FollowerConfig struct {
	// Primary is the primary's base URL (e.g. http://10.0.0.1:8080).
	Primary string
	// StateDir is the follower's own state dir; the replicated stream is
	// journaled here with the same format and guarantees as the
	// primary's, so promotion is just booting a Server from it.
	StateDir string
	// ID names this follower in the primary's follower table and
	// metrics. Empty defaults to "follower".
	ID string
	// PollWait is the long-poll wait the follower requests (capped
	// server-side at 30s). Zero means 10s.
	PollWait time.Duration
	// RetryInterval is the backoff after a failed poll. Zero means 500ms.
	RetryInterval time.Duration
	// Client overrides the HTTP client (tests). Nil means a dedicated
	// client with no overall timeout — the long poll IS the timeout.
	Client *http.Client
	// OnPromote, when set, is invoked by the follower's POST /v1/promote
	// admin endpoint. The callback owns the actual promotion (typically
	// Follower.Promote plus swapping HTTP handlers) so the process
	// embedding the follower controls the order.
	OnPromote func() error
}

func (c FollowerConfig) withDefaults() FollowerConfig {
	if c.ID == "" {
		c.ID = "follower"
	}
	if c.PollWait == 0 {
		c.PollWait = 10 * time.Second
	}
	if c.RetryInterval == 0 {
		c.RetryInterval = 500 * time.Millisecond
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	return c
}

// Follower is a hot standby: it pulls the primary's journal stream into
// its own state dir (same durability guarantees) and serves degraded
// read-only answers from the replicated last-good results. Promote
// turns it into a full Server with a bumped fencing epoch.
type Follower struct {
	cfg     FollowerConfig
	persist *persister

	// smu guards the applied in-memory state (the degraded serving
	// source) and the replay shadow.
	smu    sync.RWMutex
	state  map[string]*scenario.SessionState
	shadow seqShadow

	// cm guards the replication cursor — the primary-coordinate
	// position of the next poll, advanced only after the bytes before
	// it are fsync'd locally.
	cm     sync.Mutex
	cursor replPos

	ctx    context.Context
	cancel context.CancelFunc
	stop   chan struct{}
	done   chan struct{}
	once   sync.Once

	fenced  atomic.Bool
	em      sync.Mutex
	lastErr error

	records    atomic.Uint64
	chunks     atomic.Uint64
	resets     atomic.Uint64
	pollErrors atomic.Uint64
}

// NewFollower opens the follower's state dir (replaying whatever a
// previous incarnation already replicated) and starts the pull loop.
func NewFollower(cfg FollowerConfig) (*Follower, error) {
	cfg = cfg.withDefaults()
	if cfg.Primary == "" || cfg.StateDir == "" {
		return nil, fmt.Errorf("serve: follower requires a primary URL and a state dir")
	}
	p, state, shadow, err := openPersister(cfg.StateDir, 0, false)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	f := &Follower{
		cfg:     cfg,
		persist: p,
		state:   state,
		shadow:  shadow,
		ctx:     ctx,
		cancel:  cancel,
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	// The cursor deliberately starts at zero, not at the local journal
	// tail: local offsets are this incarnation's coordinates, not the
	// primary's. The first poll therefore takes a reset transfer — which
	// is also what safely discards a divergent suffix when a fenced
	// ex-primary rejoins as a follower on its old state dir.
	go f.run()
	return f, nil
}

// run is the pull loop: poll, apply, repeat; back off on errors; stop
// for good when fenced.
func (f *Follower) run() {
	defer close(f.done)
	for {
		select {
		case <-f.stop:
			return
		default:
		}
		err := f.pollOnce()
		if err == nil {
			continue
		}
		f.setErr(err)
		if errors.Is(err, ErrFenced) {
			// A fenced stream never becomes followable again; keep serving
			// degraded answers and wait for an operator (or promotion).
			f.fenced.Store(true)
			return
		}
		f.pollErrors.Add(1)
		select {
		case <-f.stop:
			return
		case <-time.After(f.cfg.RetryInterval):
		}
	}
}

func (f *Follower) setErr(err error) {
	f.em.Lock()
	f.lastErr = err
	f.em.Unlock()
}

// Err returns the most recent replication error (nil while healthy); a
// successful poll clears it.
func (f *Follower) Err() error {
	f.em.Lock()
	defer f.em.Unlock()
	return f.lastErr
}

// Fenced reports whether the stream was fenced (the primary is a stale
// failover survivor) and the pull loop has stopped.
func (f *Follower) Fenced() bool { return f.fenced.Load() }

// pollOnce runs one poll: request from the cursor, then apply whatever
// came back (chunk, reset transfer, or nothing).
func (f *Follower) pollOnce() error {
	f.cm.Lock()
	pos := f.cursor
	f.cm.Unlock()
	u := fmt.Sprintf("%s/v1/replicate?gen=%d&off=%d&recs=%d&epoch=%d&id=%s&wait_ms=%d",
		strings.TrimRight(f.cfg.Primary, "/"), pos.gen, pos.off, f.persist.recordsInGen(),
		f.persist.maxEpoch.Load(), url.QueryEscape(f.cfg.ID), f.cfg.PollWait.Milliseconds())
	req, err := http.NewRequestWithContext(f.ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	resp, err := f.cfg.Client.Do(req)
	if err != nil {
		return fmt.Errorf("serve: replication poll: %w", err)
	}
	defer resp.Body.Close()

	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNoContent:
		f.setErr(nil)
		return nil
	case http.StatusConflict:
		// The primary saw our epoch and called itself fenced — the
		// mirror-image of the check below (we'd only carry a higher epoch
		// if we had already seen a newer primary).
		return ErrFenced
	default:
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("serve: replication poll: primary answered %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}

	repoch, err := strconv.ParseUint(resp.Header.Get(hdrEpoch), 10, 64)
	if err != nil {
		return fmt.Errorf("serve: replication response missing %s: %w", hdrEpoch, err)
	}
	if known := f.persist.maxEpoch.Load(); repoch < known {
		return fmt.Errorf("%w (primary epoch %d, known epoch %d)", ErrFenced, repoch, known)
	}
	gen, err := strconv.ParseUint(resp.Header.Get(hdrGen), 10, 64)
	if err != nil {
		return fmt.Errorf("serve: replication response missing %s: %w", hdrGen, err)
	}
	off, err := strconv.ParseInt(resp.Header.Get(hdrOff), 10, 64)
	if err != nil {
		return fmt.Errorf("serve: replication response missing %s: %w", hdrOff, err)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxReplBody))
	if err != nil {
		return fmt.Errorf("serve: replication body: %w", err)
	}
	if err := fpReplApply.Hit(); err != nil {
		return fmt.Errorf("serve: replication apply: %w", err)
	}

	next := replPos{gen: gen, off: off}
	if resp.Header.Get(hdrReset) != "" {
		return f.applyReset(resp.Header, body, next, repoch)
	}
	return f.applyChunk(body, next, repoch)
}

// applyChunk validates, persists, then folds one journal chunk. That
// order is the ack invariant: the cursor (and so the position the next
// poll acknowledges) only moves after appendRaw's fsync returned.
func (f *Follower) applyChunk(body []byte, next replPos, repoch uint64) error {
	recs, err := parseFrames(body)
	if err != nil {
		return err
	}
	if err := f.persist.appendRaw(body, len(recs)); err != nil {
		// appendRaw truncated back; the retry re-requests the same chunk.
		return err
	}
	f.fold(recs, repoch)
	f.advance(next)
	f.chunks.Add(1)
	f.records.Add(uint64(len(recs)))
	f.setErr(nil)
	return nil
}

// applyReset replaces the follower's entire state with a transferred
// snapshot + journal.
func (f *Follower) applyReset(h http.Header, body []byte, next replPos, repoch uint64) error {
	snapLen, err := strconv.Atoi(h.Get(hdrSnapLen))
	if err != nil || snapLen < 0 || snapLen > len(body) {
		return fmt.Errorf("serve: reset transfer with bad %s %q (body %d bytes)", hdrSnapLen, h.Get(hdrSnapLen), len(body))
	}
	snap, jour := body[:snapLen], body[snapLen:]
	snapRecs, err := parseFrames(snap)
	if err != nil {
		return fmt.Errorf("serve: reset transfer snapshot: %w", err)
	}
	jourRecs, err := parseFrames(jour)
	if err != nil {
		return fmt.Errorf("serve: reset transfer journal: %w", err)
	}
	if err := f.persist.resetTo(snap, jour, int64(len(jourRecs))); err != nil {
		return err
	}
	// Rebuild the in-memory state from scratch: a reset discards any
	// divergent records the old state was built from.
	state := make(map[string]*scenario.SessionState)
	shadow := make(seqShadow)
	f.persist.fold(state, shadow, snapRecs...)
	f.persist.fold(state, shadow, jourRecs...)
	raise(&f.persist.maxEpoch, repoch)
	f.smu.Lock()
	f.state, f.shadow = state, shadow
	f.smu.Unlock()
	f.advance(next)
	f.resets.Add(1)
	f.records.Add(uint64(len(snapRecs) + len(jourRecs)))
	f.setErr(nil)
	return nil
}

// fold applies persisted records to the in-memory state.
func (f *Follower) fold(recs []*scenario.SnapshotRecord, repoch uint64) {
	f.smu.Lock()
	f.persist.fold(f.state, f.shadow, recs...)
	f.smu.Unlock()
	raise(&f.persist.maxEpoch, repoch)
}

func (f *Follower) advance(next replPos) {
	f.cm.Lock()
	f.cursor = next
	f.cm.Unlock()
}

// Sessions returns the replicated live session count.
func (f *Follower) Sessions() int {
	f.smu.RLock()
	defer f.smu.RUnlock()
	return len(f.state)
}

// Epoch returns the highest fencing epoch this follower has seen.
func (f *Follower) Epoch() uint64 { return f.persist.maxEpoch.Load() }

// halt stops the pull loop and closes the state dir. Idempotent.
func (f *Follower) halt() {
	f.once.Do(func() {
		close(f.stop)
		f.cancel()
	})
	<-f.done
	f.persist.close()
}

// Close stops the follower. The replicated state dir stays on disk,
// ready for a later NewFollower or promotion via New.
func (f *Follower) Close() { f.halt() }

// Promote turns the standby into the primary: the pull loop stops, the
// state dir closes, and a full Server boots from it with Config.Promote
// set — replaying everything replicated, bumping the fencing epoch past
// every epoch in the stream, and durably stamping the bump before
// serving. cfg's replication and durability fields apply to the new
// primary; StateDir and Promote are overridden. On error the follower
// is already stopped — failover must be retried, not resumed.
func (f *Follower) Promote(cfg Config) (*Server, error) {
	f.halt()
	cfg.StateDir = f.cfg.StateDir
	cfg.Promote = true
	return New(cfg)
}

// FollowerMetrics is the follower's /metrics document.
type FollowerMetrics struct {
	Primary  string `json:"primary"`
	Sessions int    `json:"sessions"`
	// Epoch is the highest fencing epoch seen; Fenced reports that the
	// stream was rejected because the primary's epoch fell behind it.
	Epoch  uint64 `json:"epoch"`
	Fenced bool   `json:"fenced"`
	// RecordsApplied counts records made durable locally (chunks and
	// reset transfers both); Resets counts full snapshot transfers.
	RecordsApplied uint64 `json:"records_applied"`
	ChunksApplied  uint64 `json:"chunks_applied"`
	Resets         uint64 `json:"resets"`
	PollErrors     uint64 `json:"poll_errors"`
	JournalBytes   int64  `json:"journal_bytes"`
	LastError      string `json:"last_error,omitempty"`
}

// Metrics snapshots the follower's counters.
func (f *Follower) Metrics() FollowerMetrics {
	m := FollowerMetrics{
		Primary:        f.cfg.Primary,
		Sessions:       f.Sessions(),
		Epoch:          f.Epoch(),
		Fenced:         f.fenced.Load(),
		RecordsApplied: f.records.Load(),
		ChunksApplied:  f.chunks.Load(),
		Resets:         f.resets.Load(),
		PollErrors:     f.pollErrors.Load(),
		JournalBytes:   f.persist.journalBytes.Load(),
	}
	if err := f.Err(); err != nil {
		m.LastError = err.Error()
	}
	return m
}

// Handler returns the follower's read-only HTTP API: degraded solve
// answers from replicated last-good results, metrics, health, and the
// promotion admin endpoint. Mutating endpoints answer 503 — a standby
// accepting writes would fork the fleet's state.
func (f *Follower) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/solve", f.handleSolve)
	mux.HandleFunc("POST /v1/observe", f.handleReadOnly)
	mux.HandleFunc("DELETE /v1/session/{id}", f.handleReadOnly)
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, f.Metrics())
	})
	mux.HandleFunc("GET /healthz", f.handleHealth)
	mux.HandleFunc("POST /v1/promote", f.handlePromote)
	return mux
}

func (f *Follower) handleReadOnly(w http.ResponseWriter, r *http.Request) {
	writeErr(w, http.StatusServiceUnavailable, "serve: read-only follower; write to the primary")
}

// handleSolve serves the degraded path only: a known session's
// replicated last-good strategy, marked degraded. A follower has no
// solver fleet — anything it cannot answer from replicated state is the
// primary's job.
func (f *Follower) handleSolve(w http.ResponseWriter, r *http.Request) {
	var req scenario.SolveRequest
	if !decode(w, r, &req) {
		return
	}
	if err := req.Validate(); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.SessionID == "" {
		writeErr(w, http.StatusServiceUnavailable, "serve: read-only follower cannot run one-shot solves; write to the primary")
		return
	}
	f.smu.RLock()
	st := f.state[req.SessionID]
	f.smu.RUnlock()
	if st == nil || st.LastGood == nil {
		writeErr(w, http.StatusServiceUnavailable, "serve: follower has no replicated answer for session %q", req.SessionID)
		return
	}
	writeAnswer(w, scenario.SolveResponse{
		SessionID: req.SessionID,
		Resolved:  false,
		Result:    st.LastGood,
		Degraded:  true,
	})
}

func (f *Follower) handleHealth(w http.ResponseWriter, r *http.Request) {
	var trouble []string
	if f.fenced.Load() {
		trouble = append(trouble, "replication fenced: primary is a stale failover survivor")
	} else if err := f.Err(); err != nil {
		trouble = append(trouble, fmt.Sprintf("replication stalled: %v", err))
	}
	body := map[string]any{"status": "ok", "role": "follower", "epoch": f.Epoch(), "sessions": f.Sessions()}
	if len(trouble) > 0 {
		body["status"] = "degraded: " + strings.Join(trouble, "; ")
	}
	writeJSON(w, http.StatusOK, body)
}

// handlePromote is the failover admin endpoint. The embedding process
// (cmd/dmcd) supplies OnPromote, which runs Follower.Promote and swaps
// the HTTP handlers; without one the endpoint reports the follower
// cannot self-promote.
func (f *Follower) handlePromote(w http.ResponseWriter, r *http.Request) {
	if f.cfg.OnPromote == nil {
		writeErr(w, http.StatusNotImplemented, "serve: this follower has no promotion hook; restart it with -promote instead")
		return
	}
	if err := f.cfg.OnPromote(); err != nil {
		writeErr(w, http.StatusInternalServerError, "serve: promotion failed: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "promoted"})
}
