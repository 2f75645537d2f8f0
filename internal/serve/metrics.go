package serve

import (
	"sync"
	"sync/atomic"
	"time"
)

// Latency histogram geometry: log-spaced buckets from latFirst upward,
// each latGrowth× wider than the last. 48 buckets cover 20µs → ~1900s;
// anything beyond lands in the last bucket. Quantiles read off the
// cumulative counts are accurate to one bucket width (~28%), which is
// plenty for a saturation dashboard — the alternative (recording raw
// samples) costs allocation on the solve hot path.
const (
	latBuckets = 48
	latFirst   = 20 * time.Microsecond
	latGrowth  = 1.5
)

var latBounds = func() [latBuckets]time.Duration {
	var b [latBuckets]time.Duration
	f := float64(latFirst)
	for i := range b {
		b[i] = time.Duration(f)
		f *= latGrowth
	}
	return b
}()

// rateWindow counts events over a sliding window of one-second slots,
// for a solves/sec gauge that reacts within seconds instead of
// averaging over the daemon's whole uptime.
type rateWindow struct {
	mu    sync.Mutex
	slots [rateSlots]uint64
	secs  [rateSlots]int64
}

const rateSlots = 10

func (r *rateWindow) observe(now time.Time) {
	sec := now.Unix()
	i := int(sec % rateSlots)
	r.mu.Lock()
	if r.secs[i] != sec {
		r.secs[i] = sec
		r.slots[i] = 0
	}
	r.slots[i]++
	r.mu.Unlock()
}

// perSec returns events/sec averaged over the filled portion of the
// window, excluding the current (incomplete) second when older full
// seconds exist.
func (r *rateWindow) perSec(now time.Time) float64 {
	sec := now.Unix()
	r.mu.Lock()
	defer r.mu.Unlock()
	var total uint64
	var span int
	for i := 0; i < rateSlots; i++ {
		age := sec - r.secs[i]
		if age >= 1 && age < rateSlots {
			total += r.slots[i]
			span++
		}
	}
	if span == 0 {
		// Nothing but the current second: report it as-is.
		return float64(r.slots[int(sec%rateSlots)])
	}
	return float64(total) / float64(span)
}

// shardMetrics is one shard's counters. All hot-path updates are
// atomic; snapshots are racy-but-consistent-enough reads, the usual
// metrics contract.
type shardMetrics struct {
	solves   atomic.Uint64
	warm     atomic.Uint64
	errors   atomic.Uint64
	rejected atomic.Uint64
	waves    atomic.Uint64
	buckets  [latBuckets]atomic.Uint64
	rate     rateWindow

	// Failure-containment counters (the tentpole's ledger): recovered
	// solver panics, tasks shed for an expired deadline budget, tasks
	// dropped because the client disconnected while queued, and degraded
	// (stale-but-served) responses while the breaker was open.
	panics         atomic.Uint64
	shedExpired    atomic.Uint64
	abandonedTasks atomic.Uint64
	degraded       atomic.Uint64

	// retrySeq drives the deterministic Retry-After jitter: each hint
	// consumes one tick of a counter-keyed hash stream.
	retrySeq atomic.Uint64
}

// observe records one completed task.
func (m *shardMetrics) observe(lat time.Duration, warm bool, failed bool) {
	m.solves.Add(1)
	if warm {
		m.warm.Add(1)
	}
	if failed {
		m.errors.Add(1)
	}
	i := 0
	for i < latBuckets-1 && lat > latBounds[i] {
		i++
	}
	m.buckets[i].Add(1)
	m.rate.observe(time.Now())
}

// quantile returns the latency at quantile q ∈ (0,1] from the bucket
// counts (upper bound of the containing bucket), or 0 with no samples.
func (m *shardMetrics) quantile(q float64) time.Duration {
	var counts [latBuckets]uint64
	var total uint64
	for i := range counts {
		counts[i] = m.buckets[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	target := uint64(q * float64(total))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range counts {
		cum += c
		if cum >= target {
			return latBounds[i]
		}
	}
	return latBounds[latBuckets-1]
}

// ShardMetrics is one shard's snapshot on the /metrics wire.
type ShardMetrics struct {
	Shard int `json:"shard"`
	// Sessions counts the live sessions hashed onto the shard, estimator
	// sessions and restored, not yet solved ones included.
	Sessions int `json:"sessions"`
	// QueueDepth is the number of admitted tasks waiting for a free
	// execution slot (executing tasks are not counted).
	QueueDepth int `json:"queue_depth"`
	// Solves counts completed tasks (including failed ones); Waves
	// counts busy periods: the times the shard went from no executing
	// task to one. Solves/Waves is the mean tasks per busy period.
	Solves uint64 `json:"solves"`
	Waves  uint64 `json:"waves"`
	// WarmSolves counts tasks served from session warm state;
	// WarmHitRate is WarmSolves/Solves.
	WarmSolves  uint64  `json:"warm_solves"`
	WarmHitRate float64 `json:"warm_hit_rate"`
	Errors      uint64  `json:"errors"`
	// Rejected counts tasks turned away by admission control (HTTP 429).
	Rejected uint64 `json:"rejected"`
	// Panics counts recovered solver panics (each one a 500 + a
	// quarantined session solver); the shard kept serving through them
	// all.
	Panics uint64 `json:"panics"`
	// ShedExpired counts tasks shed because their deadline budget ran
	// out while queued (HTTP 504); Abandoned counts tasks dropped
	// because their client disconnected before an execution slot came
	// free.
	ShedExpired uint64 `json:"shed_expired"`
	Abandoned   uint64 `json:"abandoned"`
	// BreakerState is the shard circuit breaker's current position
	// (closed, open, half-open); BreakerOpenTotal counts how many times
	// it tripped. DegradedServed counts stale last-good responses served
	// while open.
	BreakerState     string `json:"breaker_state"`
	BreakerOpenTotal uint64 `json:"breaker_open_total"`
	DegradedServed   uint64 `json:"degraded_served"`
	// SolvesPerSec is the completion rate over a sliding 10 s window.
	SolvesPerSec float64 `json:"solves_per_sec"`
	// P50Ms/P99Ms are enqueue-to-completion latency quantiles (ms).
	P50Ms float64 `json:"p50_ms"`
	P99Ms float64 `json:"p99_ms"`
}

// DurabilityMetrics is the state-dir section of /metrics (present only
// with persistence enabled).
type DurabilityMetrics struct {
	// RestoredSessions is how many sessions this process rebuilt from
	// the state dir at boot.
	RestoredSessions int `json:"restored_sessions"`
	// Snapshots counts compacting full snapshots written (periodic and
	// final); JournalBytes/JournalRecords describe the live journal
	// since the last one.
	Snapshots      uint64 `json:"snapshots"`
	JournalBytes   int64  `json:"journal_bytes"`
	JournalRecords uint64 `json:"journal_records"`
	// JournalErrors counts appends that failed (each one failed its
	// request: acknowledged always implies journaled).
	JournalErrors uint64 `json:"journal_errors"`
	// TruncatedBytes is how much torn/corrupt journal suffix boot
	// recovery has cut back to the last valid record.
	TruncatedBytes int64 `json:"truncated_bytes"`
}

// ReplFollowerMetrics is one follower's row in the primary's
// replication section.
type ReplFollowerMetrics struct {
	ID string `json:"id"`
	// LagBytes/LagRecords is how far behind the journal tail the
	// follower's durable cursor is. With Resync set the cursor is from
	// an older journal incarnation (its next poll takes a snapshot reset
	// transfer) and the whole current journal counts as lag.
	LagBytes   int64 `json:"lag_bytes"`
	LagRecords int64 `json:"lag_records"`
	Resync     bool  `json:"resync,omitempty"`
	// Epoch is the fencing epoch the follower last announced.
	Epoch uint64 `json:"epoch"`
	// LastSeenMs is how long ago the follower last polled.
	LastSeenMs float64 `json:"last_seen_ms"`
}

// ReplicationMetrics is the primary's replication section of /metrics.
type ReplicationMetrics struct {
	// Mode is the acknowledgement mode ("async" or "sync"); Epoch this
	// primary's fencing term.
	Mode      string                `json:"mode"`
	Epoch     uint64                `json:"epoch"`
	Followers []ReplFollowerMetrics `json:"followers"`
	// ChunksServed/ResetsServed count replication responses by kind;
	// SyncTimeouts counts sync-mode writes failed for want of a follower
	// ack; FencedPolls counts polls rejected for carrying a newer epoch
	// than this primary's (evidence this primary is a stale survivor).
	ChunksServed uint64 `json:"chunks_served"`
	ResetsServed uint64 `json:"resets_served"`
	SyncTimeouts uint64 `json:"sync_timeouts"`
	FencedPolls  uint64 `json:"fenced_polls"`
}

// Metrics is the full /metrics document.
type Metrics struct {
	UptimeSec float64 `json:"uptime_sec"`
	// Sessions is the total live session count across shards.
	Sessions    int                 `json:"sessions"`
	Shards      []ShardMetrics      `json:"shards"`
	Durability  *DurabilityMetrics  `json:"durability,omitempty"`
	Replication *ReplicationMetrics `json:"replication,omitempty"`
}

// Metrics snapshots every shard's counters.
func (s *Server) Metrics() Metrics {
	now := time.Now()
	out := Metrics{
		UptimeSec: now.Sub(s.start).Seconds(),
		Shards:    make([]ShardMetrics, len(s.shards)),
	}
	// Sessions count from the serve registry, not from warm solvers: an
	// estimator session solves on its Adaptor's own solver, and a
	// restored one has no warm solver until its first solve.
	perShard := make([]int, len(s.shards))
	s.smu.RLock()
	for _, se := range s.sessions {
		perShard[se.sh.idx]++
	}
	s.smu.RUnlock()
	for i, sh := range s.shards {
		m := &sh.met
		solves := m.solves.Load()
		sm := ShardMetrics{
			Shard:            i,
			Sessions:         perShard[i],
			QueueDepth:       sh.waiting(),
			Solves:           solves,
			Waves:            m.waves.Load(),
			WarmSolves:       m.warm.Load(),
			Errors:           m.errors.Load(),
			Rejected:         m.rejected.Load(),
			Panics:           m.panics.Load(),
			ShedExpired:      m.shedExpired.Load(),
			Abandoned:        m.abandonedTasks.Load(),
			BreakerState:     sh.brk.snapshot().String(),
			BreakerOpenTotal: sh.brk.openTotal.Load(),
			DegradedServed:   m.degraded.Load(),
			SolvesPerSec:     m.rate.perSec(now),
			P50Ms:            float64(m.quantile(0.50)) / float64(time.Millisecond),
			P99Ms:            float64(m.quantile(0.99)) / float64(time.Millisecond),
		}
		if solves > 0 {
			sm.WarmHitRate = float64(sm.WarmSolves) / float64(solves)
		}
		out.Sessions += sm.Sessions
		out.Shards[i] = sm
	}
	if p := s.persist; p != nil {
		out.Durability = &DurabilityMetrics{
			RestoredSessions: s.restored,
			Snapshots:        p.snapshots.Load(),
			JournalBytes:     p.journalBytes.Load(),
			JournalRecords:   uint64(p.recordsInGen()),
			JournalErrors:    p.journalErrors.Load(),
			TruncatedBytes:   p.truncatedBytes.Load(),
		}
		out.Replication = &ReplicationMetrics{
			Mode:         s.cfg.ReplAck,
			Epoch:        s.epoch,
			Followers:    s.repl.lagSnapshot(),
			ChunksServed: s.repl.chunksServed.Load(),
			ResetsServed: s.repl.resetsServed.Load(),
			SyncTimeouts: s.repl.syncTimeouts.Load(),
			FencedPolls:  s.repl.fencedPolls.Load(),
		}
	}
	return out
}
