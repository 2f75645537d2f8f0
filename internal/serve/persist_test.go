package serve

import (
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dmc/internal/fault"
	"dmc/internal/scenario"
)

// stateRecord builds a minimal valid session record for persister
// tests.
func stateRecord(t *testing.T, seq uint64, id string, wire scenario.Network) *scenario.SnapshotRecord {
	t.Helper()
	rec := &scenario.SnapshotRecord{
		Version: scenario.SnapshotVersion,
		Seq:     seq,
		Kind:    scenario.RecordSession,
		Session: &scenario.SessionState{ID: id, Solve: scenario.Solve{Network: wire}},
	}
	if err := rec.Validate(); err != nil {
		t.Fatalf("test record invalid: %v", err)
	}
	return rec
}

func dropRecord(seq uint64, id string) *scenario.SnapshotRecord {
	return &scenario.SnapshotRecord{
		Version:   scenario.SnapshotVersion,
		Seq:       seq,
		Kind:      scenario.RecordDrop,
		SessionID: id,
	}
}

// TestPersisterRoundTrip pins the core journal contract: appended
// records come back at replay, highest Seq per session wins, drops
// delete, and maxSeq seeds past everything replayed.
func TestPersisterRoundTrip(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewPCG(1, 1))
	wireA, wireB := testNetwork(rng, 2), testNetwork(rng, 3)

	p, state, _, err := openPersister(dir, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(state) != 0 {
		t.Fatalf("fresh dir restored %d sessions", len(state))
	}
	for _, rec := range []*scenario.SnapshotRecord{
		stateRecord(t, 1, "a", wireA),
		stateRecord(t, 2, "b", wireA),
		stateRecord(t, 3, "a", wireB), // supersedes seq 1
		dropRecord(4, "b"),
	} {
		if _, err := p.append(rec); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	p.close()

	p2, state, _, err := openPersister(dir, 0, false)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer p2.close()
	if len(state) != 1 || state["a"] == nil {
		t.Fatalf("restored %v, want only session a", state)
	}
	if got := len(state["a"].Solve.Network.Paths); got != len(wireB.Paths) {
		t.Errorf("session a replayed the stale record: %d paths, want %d", got, len(wireB.Paths))
	}
	if p2.maxSeq.Load() != 4 {
		t.Errorf("maxSeq = %d, want 4", p2.maxSeq.Load())
	}
}

// TestPersisterTornSuffixTruncates is the crash-mid-append contract: a
// journal ending in garbage boots, keeps every intact record, truncates
// the tear, and accepts new appends afterwards.
func TestPersisterTornSuffixTruncates(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewPCG(2, 2))
	wire := testNetwork(rng, 2)

	p, _, _, err := openPersister(dir, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.append(stateRecord(t, 1, "a", wire)); err != nil {
		t.Fatal(err)
	}
	p.close()

	tears := [][]byte{
		{0xff, 0xff, 0xff},                             // torn frame header
		{0x20, 0x00, 0x00, 0x00, 1, 2, 3, 4, 'x'},      // torn payload
		{0x02, 0x00, 0x00, 0x00, 0, 0, 0, 0, 'h', 'i'}, // checksum mismatch
		{0x00, 0x00, 0x00, 0x00, 0, 0, 0, 0},           // zero-length record
	}
	for i, tear := range tears {
		jf, err := os.OpenFile(filepath.Join(dir, journalFile), os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := jf.Write(tear); err != nil {
			t.Fatal(err)
		}
		jf.Close()

		p, state, _, err := openPersister(dir, 0, false)
		if err != nil {
			t.Fatalf("tear %d: boot failed: %v", i, err)
		}
		if len(state) != 1 || state["a"] == nil {
			t.Fatalf("tear %d: intact prefix lost: %v", i, state)
		}
		if p.truncatedBytes.Load() != int64(len(tear)) {
			t.Errorf("tear %d: truncated %d bytes, want %d", i, p.truncatedBytes.Load(), len(tear))
		}
		// The journal stays usable: append a fresh record on top.
		if _, err := p.append(stateRecord(t, uint64(10+i), "a", wire)); err != nil {
			t.Fatalf("tear %d: append after truncation: %v", i, err)
		}
		p.close()
	}
}

// TestPersisterSnapshotCompacts: compaction atomically replaces the
// snapshot, resets the journal, and replay prefers the higher-Seq
// journal records over a stale snapshot.
func TestPersisterSnapshotCompacts(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewPCG(3, 3))
	wireA, wireB := testNetwork(rng, 2), testNetwork(rng, 3)

	p, _, _, err := openPersister(dir, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 4; i++ {
		if _, err := p.append(stateRecord(t, i, "a", wireA)); err != nil {
			t.Fatal(err)
		}
	}
	p.mu.Lock()
	err = p.writeSnapshotLocked([]*scenario.SnapshotRecord{stateRecord(t, 4, "a", wireA)})
	p.mu.Unlock()
	if err != nil {
		t.Fatalf("writeSnapshotLocked: %v", err)
	}
	if p.journalBytes.Load() != 0 {
		t.Errorf("journal not reset after snapshot: %d bytes", p.journalBytes.Load())
	}
	if p.snapshots.Load() != 1 {
		t.Errorf("snapshots = %d, want 1", p.snapshots.Load())
	}
	// Post-snapshot journal record must win over the snapshot at replay.
	if _, err := p.append(stateRecord(t, 5, "a", wireB)); err != nil {
		t.Fatal(err)
	}
	p.close()

	p2, state, _, err := openPersister(dir, 0, false)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer p2.close()
	if got := len(state["a"].Solve.Network.Paths); got != len(wireB.Paths) {
		t.Errorf("journal record lost to stale snapshot: %d paths, want %d", got, len(wireB.Paths))
	}
}

// TestJournalRecordsCountsLiveJournal: DurabilityMetrics.JournalRecords
// counts the live journal — the records since the last compaction,
// seeded by boot replay — so it always pairs with JournalBytes, and
// JournalBytes/JournalRecords is the frame size.
func TestJournalRecordsCountsLiveJournal(t *testing.T) {
	dir := t.TempDir()
	wire := testNetwork(rand.New(rand.NewPCG(4, 4)), 2)
	// Two-digit Seqs frame to one size.
	rec := func(seq int) *scenario.SnapshotRecord { return stateRecord(t, uint64(seq), "a", wire) }
	data, err := frame(rec(10))
	if err != nil {
		t.Fatal(err)
	}
	frameLen := int64(len(data))
	seq := 10
	appendN := func(s *Server, n int) {
		t.Helper()
		for range n {
			if _, err := s.persist.append(rec(seq)); err != nil {
				t.Fatal(err)
			}
			seq++
		}
	}
	check := func(s *Server, when string, want int) {
		t.Helper()
		d := s.Metrics().Durability
		if d.JournalRecords != uint64(want) || d.JournalBytes != int64(want)*frameLen {
			t.Fatalf("%s: journal_records %d, journal_bytes %d; want %d records of %d bytes",
				when, d.JournalRecords, d.JournalBytes, want, frameLen)
		}
	}

	boot := func() *Server {
		t.Helper()
		s, err := New(Config{Shards: 1, StateDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		return s
	}

	const n, m = 5, 3
	s := boot()
	appendN(s, n)
	check(s, "before compaction", n)
	if err := s.snapshotNow(); err != nil {
		t.Fatal(err)
	}
	appendN(s, m)
	check(s, "after compaction", m)
	// Crash (no final snapshot): the reboot replays the m live records.
	s.crash()
	check(boot(), "after restart", m)
}

// TestPersisterFutureVersionRefusesBoot: an intact record from a newer
// schema is a hard boot error naming the version — truncating it would
// silently discard durable state; guessing at its layout is worse.
func TestPersisterFutureVersionRefusesBoot(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewPCG(4, 4))

	p, _, _, err := openPersister(dir, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	future := stateRecord(t, 1, "a", testNetwork(rng, 2))
	future.Version = scenario.SnapshotVersion + 1
	if _, err := p.append(future); err != nil {
		t.Fatal(err)
	}
	p.close()

	_, _, _, err = openPersister(dir, 0, false)
	if err == nil {
		t.Fatal("future-version journal record booted")
	}
	if !strings.Contains(err.Error(), "newer") {
		t.Errorf("error %q does not explain the version problem", err)
	}
}

// TestPersisterCorruptSnapshotRefusesBoot: the snapshot was written
// atomically, so damage there is not a torn append — boot must refuse
// rather than silently truncate compacted history.
func TestPersisterCorruptSnapshotRefusesBoot(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, snapshotFile), []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, _, err := openPersister(dir, 0, false)
	if err == nil {
		t.Fatal("corrupt snapshot booted")
	}
	if !strings.Contains(err.Error(), "snapshot") {
		t.Errorf("error %q does not name the snapshot", err)
	}
}

// TestPersisterFaultPoints exercises the injection seams: a write fault
// fails the append (so the caller fails the request — acknowledged
// always implies journaled), a fsync fault likewise, and a replay fault
// truncates the journal like any other unreadable suffix. A failed
// append is cut back out of the journal: the file stays as long as the
// counted journal — the offsets replication reads by — and a reopen does
// not restore the failed record, even with an append on top of it.
func TestPersisterFaultPoints(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewPCG(5, 5))
	wire := testNetwork(rng, 2)

	p, _, _, err := openPersister(dir, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.append(stateRecord(t, 1, "a", wire)); err != nil {
		t.Fatal(err)
	}

	fault.Activate(&fault.Plan{Seed: 11, Points: map[string][]fault.Spec{
		"persist.write": {{Kind: fault.Error, Prob: 1}},
	}})
	if _, err := p.append(stateRecord(t, 2, "a", wire)); err == nil {
		t.Error("append succeeded through a write fault")
	}
	fault.Activate(&fault.Plan{Seed: 12, Points: map[string][]fault.Spec{
		"persist.fsync": {{Kind: fault.Error, Prob: 1}},
	}})
	if _, err := p.append(stateRecord(t, 3, "b", wire)); err == nil {
		t.Error("append succeeded through a fsync fault")
	}
	fault.Deactivate()
	if p.journalErrors.Load() != 2 {
		t.Errorf("journalErrors = %d, want 2", p.journalErrors.Load())
	}
	if _, err := p.append(stateRecord(t, 4, "a", wire)); err != nil {
		t.Fatal(err)
	}
	if got, want := journalSize(t, dir), p.journalBytes.Load(); got != want {
		t.Errorf("journal file is %d bytes, journalBytes counts %d: the failed append was left in", got, want)
	}
	p.close()

	p2, state, _, err := openPersister(dir, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if state["b"] != nil {
		t.Error("reopen restored the fsync-faulted session")
	}
	if state["a"] == nil || p2.maxSeq.Load() != 4 {
		t.Errorf("reopen lost the acknowledged appends: state %v, maxSeq %d", state, p2.maxSeq.Load())
	}
	p2.close()

	fault.Activate(&fault.Plan{Seed: 13, Points: map[string][]fault.Spec{
		"persist.replay": {{Kind: fault.Error, Prob: 1}},
	}})
	defer fault.Deactivate()
	p3, state, _, err := openPersister(dir, 0, false)
	if err != nil {
		t.Fatalf("replay fault must degrade to truncation, not fail boot: %v", err)
	}
	defer p3.close()
	if len(state) != 0 {
		t.Errorf("replay fault at the first record should restore nothing, got %v", state)
	}
}

// TestRetryAfterJitter pins the backoff hint's two properties: bounded
// ([1,30] whole seconds, spread across callers instead of one
// synchronized value) and deterministic (a fresh shard replays the
// identical sequence).
func TestRetryAfterJitter(t *testing.T) {
	mkShard := func() *shard {
		sh := &shard{admitted: make(chan struct{}, 256), running: make(chan struct{}, 1)}
		for i := 0; i < 200; i++ {
			sh.admitted <- struct{}{}
			sh.met.observe(80*time.Millisecond, true, false)
		}
		return sh
	}
	s := &Server{}
	sh := mkShard()
	seen := map[int]bool{}
	seq := make([]int, 64)
	for i := range seq {
		v := s.retryAfter(sh)
		if v < 1 || v > 30 {
			t.Fatalf("retryAfter = %d outside [1,30]", v)
		}
		seen[v] = true
		seq[i] = v
	}
	if len(seen) < 2 {
		t.Errorf("no jitter: every hint was %v", seq[0])
	}
	sh2 := mkShard()
	for i := range seq {
		if v := s.retryAfter(sh2); v != seq[i] {
			t.Fatalf("hint %d: %d != %d — jitter must be deterministic", i, v, seq[i])
		}
	}
}
