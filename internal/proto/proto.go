// Package proto implements the deadline-aware multipath transport the
// paper's evaluation runs over ns-3 (§VII-A), here over internal/netsim.
//
// A Session wires a client and a server across one simulated link per path
// plus a reverse acknowledgment link. The client generates fixed-size
// messages at a constant rate, assigns each to a path combination with
// Algorithm 1 (or a baseline selector), transmits, and retransmits on
// timeout along the combination's next path; messages assigned to the
// blackhole are dropped immediately. The server deduplicates, checks each
// message's creation timestamp against the lifetime, and acknowledges
// along the lowest-delay path. Extensions: fast retransmit on per-path
// reordering evidence (§VIII-D) and SACK-style acknowledgment vectors
// (§VIII-C).
package proto

import (
	"errors"
	"fmt"
	"time"

	"dmc/internal/core"
	"dmc/internal/netsim"
	"dmc/internal/sched"
	"dmc/internal/trace"
)

// Defaults mirror the paper's workload (§VII-A).
const (
	// DefaultMessageCount is the paper's 100,000 generated messages.
	DefaultMessageCount = 100_000
	// DefaultMessageBytes is the paper's 1024-byte messages (header
	// included).
	DefaultMessageBytes = 1024
	// DefaultAckBytes sizes the sequence-number acknowledgment packet.
	DefaultAckBytes = 64
)

// Config describes one simulation session.
type Config struct {
	// Solution is the sending strategy (required): its X/Combos drive the
	// per-packet assignment, its Network carries λ, δ, and path count.
	Solution *core.Solution
	// Timeouts are the pairwise retransmission timeouts in real path
	// indexing (required when the strategy retransmits).
	Timeouts *core.Timeouts
	// TruePaths configures the actual forward links, one per path. These
	// may differ from Solution.Network's characteristics — that gap is
	// exactly what the sensitivity experiment (Fig. 3) measures.
	TruePaths []netsim.LinkConfig
	// AckLink optionally overrides the reverse (acknowledgment) link
	// configuration; by default the ack path's TruePaths entry is
	// mirrored.
	AckLink *netsim.LinkConfig
	// AckPathOverride optionally forces the acknowledgment path (real
	// index). Nil selects the lowest-mean-delay path (Eq. 25).
	AckPathOverride *int
	// Selector overrides Algorithm 1 for the scheduler ablation.
	Selector sched.Selector

	// MessageCount, MessageBytes, AckBytes default to the paper's
	// workload constants.
	MessageCount int
	MessageBytes int
	AckBytes     int

	// FastRetransmitDups enables §VIII-D fast retransmit: a pending
	// transmission is retransmitted early once this many later-sent
	// packets on the same path have been acknowledged. 0 disables.
	FastRetransmitDups int
	// AckWindow enables §VIII-C vector acknowledgments carrying the
	// receipt bitmap of the last AckWindow sequence numbers, making the
	// session robust to acknowledgment loss. 0 sends plain per-packet
	// acks.
	AckWindow int
}

// Result aggregates a finished session.
type Result struct {
	// Generated counts messages produced by the application.
	Generated int
	// Blackholed counts messages deliberately dropped at the sender.
	Blackholed int
	// Transmissions counts data packets offered to links (first attempts
	// and retransmissions).
	Transmissions int
	// Retransmissions counts attempts after the first.
	Retransmissions int
	// FastRetransmits counts retransmissions triggered by duplicate-ack
	// evidence rather than timeout.
	FastRetransmits int
	// Expired counts retransmissions skipped because the deadline had
	// already passed at the sender.
	Expired int
	// DeliveredInTime counts unique messages arriving within Lifetime.
	DeliveredInTime int
	// DeliveredLate counts unique messages arriving after their deadline.
	DeliveredLate int
	// Duplicates counts redundant receptions of already-delivered
	// messages.
	Duplicates int
	// AcksSent and AcksReceived count acknowledgment traffic.
	AcksSent     int
	AcksReceived int
	// PathStats snapshots each forward link, AckStats the reverse link.
	PathStats []netsim.LinkStats
	AckStats  netsim.LinkStats
	// Latency is the delivery-latency distribution (generation to first
	// arrival) over unique deliveries, in-time or not.
	Latency trace.Histogram
}

// Quality is the measured communication quality: in-time deliveries over
// generated messages (the simulation counterpart of Eq. 6).
func (r *Result) Quality() float64 {
	if r.Generated == 0 {
		return 0
	}
	return float64(r.DeliveredInTime) / float64(r.Generated)
}

// String summarizes the session.
func (r *Result) String() string {
	return fmt.Sprintf("generated=%d in-time=%d (%.2f%%) late=%d dup=%d retx=%d (fast=%d) blackholed=%d",
		r.Generated, r.DeliveredInTime, r.Quality()*100, r.DeliveredLate,
		r.Duplicates, r.Retransmissions, r.FastRetransmits, r.Blackholed)
}

// dataMsg is the application header: "a timestamp and a sequence number"
// (§VII-A), plus transmission bookkeeping.
type dataMsg struct {
	seq     uint64
	created time.Duration
	attempt int
	path    int    // real path index
	txSeq   uint64 // per-path send order, for fast retransmit
}

// ackMsg acknowledges receipt: "the sequence number of the received
// message" (§VII-A), echoing the arrival path and send order for RTT and
// reordering inference, plus an optional receipt bitmap (§VIII-C).
type ackMsg struct {
	seq    uint64
	path   int
	txSeq  uint64
	base   uint64 // first seq covered by bits
	bits   []bool // receipt bitmap for [base, base+len(bits))
	hasWin bool
}

// Session is a wired client/server pair ready to Run.
type Session struct {
	sim *netsim.Simulator
	cfg Config

	forward []*netsim.Link
	ackLink *netsim.Link

	selector sched.Selector
	combos   []core.Combo
	lifetime time.Duration
	interval float64 // ns between messages

	// client state
	pending   map[uint64]*msgState
	perPathTx []uint64         // next per-path txSeq
	inflight  [][]*flightEntry // per path, send-ordered outstanding
	onDeliver func(seq uint64, inTime bool)

	// server state
	received   map[uint64]struct{}
	highestSeq uint64
	haveAny    bool

	ran bool
	res Result
}

type msgState struct {
	combo   core.Combo
	attempt int
	created time.Duration
	timer   *netsim.Timer
	dups    int
}

type flightEntry struct {
	txSeq   uint64
	seq     uint64
	attempt int
	st      *msgState
}

// NewSession validates the configuration and builds the links.
func NewSession(sim *netsim.Simulator, cfg Config) (*Session, error) {
	if sim == nil {
		return nil, errors.New("proto: nil simulator")
	}
	if cfg.Solution == nil {
		return nil, errors.New("proto: nil solution")
	}
	n := cfg.Solution.Network
	if len(cfg.TruePaths) != len(n.Paths) {
		return nil, fmt.Errorf("proto: %d true path configs for %d paths", len(cfg.TruePaths), len(n.Paths))
	}
	if cfg.MessageCount == 0 {
		cfg.MessageCount = DefaultMessageCount
	}
	if cfg.MessageCount < 0 {
		return nil, fmt.Errorf("proto: negative message count %d", cfg.MessageCount)
	}
	if cfg.MessageBytes <= 0 {
		cfg.MessageBytes = DefaultMessageBytes
	}
	if cfg.AckBytes <= 0 {
		cfg.AckBytes = DefaultAckBytes
	}
	ackPath := n.AckPathIndex()
	if cfg.AckPathOverride != nil {
		ackPath = *cfg.AckPathOverride
		if ackPath < 0 || ackPath >= len(n.Paths) {
			return nil, fmt.Errorf("proto: ack path %d out of range", ackPath)
		}
	}
	if cfg.FastRetransmitDups < 0 || cfg.AckWindow < 0 {
		return nil, errors.New("proto: negative extension parameters")
	}
	combos := cfg.Solution.Combos()
	needsTimeouts := false
	for l, x := range cfg.Solution.X {
		if x <= 0 {
			continue
		}
		c := combos[l]
		for k := 0; k+1 < len(c); k++ {
			if c[k] != 0 && c[k+1] != 0 {
				needsTimeouts = true
			}
		}
	}
	if needsTimeouts && (cfg.Timeouts == nil || len(cfg.Timeouts.T) != len(n.Paths)) {
		return nil, errors.New("proto: strategy retransmits but timeouts are missing or mis-sized")
	}

	s := &Session{
		sim:       sim,
		cfg:       cfg,
		combos:    combos,
		lifetime:  n.Lifetime,
		interval:  float64(cfg.MessageBytes*8) / n.Rate * 1e9,
		pending:   make(map[uint64]*msgState),
		perPathTx: make([]uint64, len(n.Paths)),
		inflight:  make([][]*flightEntry, len(n.Paths)),
		received:  make(map[uint64]struct{}, cfg.MessageCount),
	}

	if cfg.Selector != nil {
		s.selector = cfg.Selector
	} else {
		sel, err := sched.NewDeficit(cfg.Solution.X)
		if err != nil {
			return nil, fmt.Errorf("proto: building Algorithm 1 selector: %w", err)
		}
		s.selector = sel
	}

	for i, lc := range cfg.TruePaths {
		if lc.Name == "" {
			lc.Name = fmt.Sprintf("path%d", i+1)
		}
		link, err := netsim.NewLink(sim, lc, s.onData)
		if err != nil {
			return nil, fmt.Errorf("proto: forward link %d: %w", i, err)
		}
		s.forward = append(s.forward, link)
	}
	ackCfg := cfg.TruePaths[ackPath]
	ackCfg.Name = "ack"
	if cfg.AckLink != nil {
		ackCfg = *cfg.AckLink
		if ackCfg.Name == "" {
			ackCfg.Name = "ack"
		}
	}
	ack, err := netsim.NewLink(sim, ackCfg, s.onAck)
	if err != nil {
		return nil, fmt.Errorf("proto: ack link: %w", err)
	}
	s.ackLink = ack
	return s, nil
}

// OnDeliver registers a hook invoked at the server for each unique
// delivery (estimators use this in the adaptive example).
func (s *Session) OnDeliver(fn func(seq uint64, inTime bool)) { s.onDeliver = fn }

// Run schedules the workload, drives the simulation to completion, and
// returns the aggregated result. A session runs once.
func (s *Session) Run() (*Result, error) {
	if s.ran {
		return nil, errors.New("proto: session already ran")
	}
	s.ran = true
	for i := 0; i < s.cfg.MessageCount; i++ {
		seq := uint64(i)
		at := time.Duration(float64(i) * s.interval)
		s.sim.Schedule(at, func() { s.generate(seq) })
	}
	s.sim.Run()
	for _, l := range s.forward {
		s.res.PathStats = append(s.res.PathStats, l.Stats())
	}
	s.res.AckStats = s.ackLink.Stats()
	res := s.res
	return &res, nil
}

// generate creates message seq and launches its first attempt.
func (s *Session) generate(seq uint64) {
	s.res.Generated++
	comboIdx := s.selector.Select()
	st := &msgState{
		combo:   s.combos[comboIdx],
		created: s.sim.Now(),
	}
	s.pending[seq] = st
	s.attempt(seq, st)
}

// attempt transmits the current attempt of st and arms the retransmission
// timer.
func (s *Session) attempt(seq uint64, st *msgState) {
	k := st.attempt
	pathModel := st.combo[k]
	if pathModel == 0 {
		// Blackhole: deliberate drop.
		if k == 0 {
			s.res.Blackholed++
		}
		delete(s.pending, seq)
		return
	}
	path := pathModel - 1

	s.res.Transmissions++
	if k > 0 {
		s.res.Retransmissions++
	}
	tx := s.perPathTx[path]
	s.perPathTx[path]++
	msg := dataMsg{seq: seq, created: st.created, attempt: k, path: path, txSeq: tx}
	s.forward[path].Send(netsim.Packet{Bytes: s.cfg.MessageBytes, Payload: msg})
	if s.cfg.FastRetransmitDups > 0 {
		s.inflight[path] = append(s.inflight[path], &flightEntry{txSeq: tx, seq: seq, attempt: k, st: st})
	}

	// Arm the timer for the next attempt, if any is useful.
	if k+1 >= len(st.combo) {
		return
	}
	next := st.combo[k+1]
	if next == 0 {
		// Next "path" is the blackhole: drop after this attempt; no timer.
		return
	}
	t, ok := s.cfg.Timeouts.Get(path, next-1)
	if !ok {
		// No timeout makes the retransmission useful (undefined t_{i,j}).
		return
	}
	st.timer = s.sim.Schedule(t, func() { s.onTimeout(seq, st) })
}

// onTimeout moves st to its next attempt unless the message already
// expired at the sender.
func (s *Session) onTimeout(seq uint64, st *msgState) {
	if _, live := s.pending[seq]; !live {
		return
	}
	st.timer = nil
	st.attempt++
	st.dups = 0
	if s.sim.Now() > st.created+s.lifetime {
		// Past the deadline: the data is obsolete (§I) — do not waste
		// bandwidth on it.
		s.res.Expired++
		delete(s.pending, seq)
		return
	}
	s.attempt(seq, st)
}

// onData is the server's receive path.
func (s *Session) onData(pkt netsim.Packet) {
	msg := pkt.Payload.(dataMsg)
	if _, dup := s.received[msg.seq]; dup {
		s.res.Duplicates++
	} else {
		s.received[msg.seq] = struct{}{}
		inTime := s.sim.Now() <= msg.created+s.lifetime
		if inTime {
			s.res.DeliveredInTime++
		} else {
			s.res.DeliveredLate++
		}
		s.res.Latency.Observe(s.sim.Now() - msg.created)
		if s.onDeliver != nil {
			s.onDeliver(msg.seq, inTime)
		}
	}
	if !s.haveAny || msg.seq > s.highestSeq {
		s.highestSeq = msg.seq
		s.haveAny = true
	}

	ack := ackMsg{seq: msg.seq, path: msg.path, txSeq: msg.txSeq}
	if w := s.cfg.AckWindow; w > 0 {
		base := uint64(0)
		if s.highestSeq+1 > uint64(w) {
			base = s.highestSeq + 1 - uint64(w)
		}
		bits := make([]bool, 0, w)
		for q := base; q <= s.highestSeq; q++ {
			_, got := s.received[q]
			bits = append(bits, got)
		}
		ack.base = base
		ack.bits = bits
		ack.hasWin = true
	}
	s.res.AcksSent++
	s.ackLink.Send(netsim.Packet{Bytes: s.cfg.AckBytes, Payload: ack})
}

// onAck is the client's acknowledgment path.
func (s *Session) onAck(pkt netsim.Packet) {
	ack := pkt.Payload.(ackMsg)
	s.res.AcksReceived++
	s.settle(ack.seq)
	if ack.hasWin {
		for off, got := range ack.bits {
			if got {
				s.settle(ack.base + uint64(off))
			}
		}
	}
	if s.cfg.FastRetransmitDups > 0 {
		s.noteDelivered(ack.path, ack.txSeq)
	}
}

// settle marks a message delivered and cancels its pending work.
func (s *Session) settle(seq uint64) {
	st, live := s.pending[seq]
	if !live {
		return
	}
	if st.timer != nil {
		st.timer.Cancel()
		st.timer = nil
	}
	delete(s.pending, seq)
}

// noteDelivered implements §VIII-D: acknowledgment of a packet sent later
// on the same path is evidence that earlier packets on that path were
// lost (per-path order is mostly preserved). After FastRetransmitDups
// such signals, retransmit early.
func (s *Session) noteDelivered(path int, txSeq uint64) {
	if path < 0 || path >= len(s.inflight) {
		return
	}
	flight := s.inflight[path]
	keep := flight[:0]
	var fire []*flightEntry
	for _, fe := range flight {
		_, live := s.pending[fe.seq]
		if !live || fe.st.timer == nil || fe.st.attempt != fe.attempt {
			continue // settled, superseded, or not awaiting retransmission
		}
		if fe.txSeq >= txSeq {
			keep = append(keep, fe)
			continue
		}
		fe.st.dups++
		if fe.st.dups >= s.cfg.FastRetransmitDups {
			fire = append(fire, fe)
		} else {
			keep = append(keep, fe)
		}
	}
	s.inflight[path] = keep
	for _, fe := range fire {
		if fe.st.timer != nil {
			fe.st.timer.Cancel()
			fe.st.timer = nil
		}
		s.res.FastRetransmits++
		s.onTimeout(fe.seq, fe.st)
	}
}
