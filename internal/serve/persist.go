// Durability layer: a versioned snapshot + append-only journal of
// session state, so a dmcd restart — deploy, OOM-kill, crash — does not
// silently discard every session's §VIII-A estimator counters,
// objective binding, and last good strategy.
//
// On-disk layout under the state dir:
//
//	snapshot    full state at the last compaction (atomic: written to
//	            snapshot.tmp, fsync'd, renamed over, dir fsync'd)
//	journal     records appended since that snapshot, each fsync'd
//	            before the request that produced it is acknowledged
//	            (unless Config.JournalNoSync)
//
// Both files are streams of framed scenario.SnapshotRecord values:
// a 4-byte little-endian payload length, a 4-byte CRC32 (IEEE) of the
// payload, then the JSON payload. Replay applies snapshot then journal,
// keeping the highest-Seq record per session, so a crash between the
// snapshot rename and the journal reset re-applies stale records
// harmlessly. A torn or corrupt journal suffix truncates to the last
// valid record instead of failing boot; a record from a newer schema
// version refuses boot with a clear error — losing state silently and
// guessing at a future layout are the two failure modes this file
// exists to rule out.
//
// Lock discipline: all file IO runs under the persister's own mutex,
// never under Server.smu or a session mutex — the lockheld analyzer
// treats file writes and fsync as blocking operations, so holding a
// guarded lock across journal IO is machine-checked away. State is
// captured in memory under the session lock, appended after release.
// Compaction additionally holds mu from before the first session
// capture through the journal truncate (snapshotNow): appends serialize
// on the same mutex, so every record the truncate discards was appended
// — and its session mutated — before the captures began, and the
// snapshot therefore holds that state or newer. Without that barrier an
// append could land (fsync'd, acknowledged) between its session's
// capture and the truncate, and a crash would restore the stale
// capture.
package serve

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"dmc/internal/fault"
	"dmc/internal/scenario"
)

// The durability layer's injection seams: record writes (torn-write
// class failures surface here), fsync (the acknowledged-but-not-durable
// window), and replay reads (short reads and IO errors at boot).
var (
	fpPersistWrite  = fault.Register("persist.write")
	fpPersistFsync  = fault.Register("persist.fsync")
	fpPersistReplay = fault.Register("persist.replay")
)

const (
	snapshotFile = "snapshot"
	journalFile  = "journal"

	// frameHeaderLen is the per-record framing overhead: payload length
	// plus CRC32, both little-endian uint32.
	frameHeaderLen = 8

	// maxRecordBytes bounds a single record at replay, so a garbage
	// length field cannot demand an absurd allocation. Session records
	// are a few KB even with large strategies.
	maxRecordBytes = 16 << 20

	// defaultSnapshotBytes is the journal size that triggers a
	// compacting snapshot when Config.SnapshotBytes is zero.
	defaultSnapshotBytes = 4 << 20

	// maxReplChunk caps one replication read, so a follower far behind
	// catches up in bounded responses instead of one unbounded body.
	maxReplChunk = 1 << 20
)

// replPos addresses a point in the replicated journal stream: the
// journal incarnation (gen changes whenever the journal is reset — a
// compaction, a reset transfer, or a fresh boot) and the byte offset
// within it. Offsets are only comparable within a gen; gens are
// strictly increasing across resets and boots, so "newer" is
// well-defined: (g2, o2) is at or past (g1, o1) iff g2 > g1, or
// g2 == g1 and o2 >= o1 — a higher gen's journal starts from a snapshot
// that already compacts everything any lower gen held.
type replPos struct {
	gen uint64
	off int64
}

// atOrPast reports whether p has durably reached q.
func (p replPos) atOrPast(q replPos) bool {
	return p.gen > q.gen || (p.gen == q.gen && p.off >= q.off)
}

// persister owns the state dir: the open journal, the append path, and
// snapshot compaction. Safe for concurrent use; all IO serializes on mu.
type persister struct {
	dir           string
	snapshotBytes int64
	noSync        bool

	mu      sync.Mutex
	journal *os.File
	// jread is a read-only handle on the same journal inode, for
	// replication reads (the journal is truncated in place, never
	// renamed, so the handle stays valid across compactions).
	jread  *os.File
	closed bool
	// gen is the journal incarnation (see replPos): seeded from the
	// clock at open and bumped monotonically on every journal reset, so
	// a replication cursor from an older incarnation — or an older boot
	// — can never alias a valid offset in the current one.
	gen uint64
	// genRecords counts records in the current journal incarnation (the
	// record-granularity twin of journalBytes, for lag metrics and
	// DurabilityMetrics.JournalRecords).
	genRecords int64
	// notify is closed (and cleared) whenever the journal changes —
	// an append or a reset — waking replication long-polls. Lazily
	// re-created by waitCh.
	notify chan struct{}
	// replayedJournalRecords counts journal records seen at boot replay
	// (openPersister folds it into genRecords once).
	replayedJournalRecords int64

	// Metrics, readable without mu.
	journalBytes   atomic.Int64
	journalErrors  atomic.Uint64
	snapshots      atomic.Uint64
	truncatedBytes atomic.Int64
	snapshotting   atomic.Bool
	maxSeq         atomic.Uint64
	// maxEpoch is the highest fencing epoch seen across replayed and
	// appended records; promotion boots at maxEpoch+1.
	maxEpoch atomic.Uint64
}

// openPersister opens (creating if needed) the state dir, replays
// snapshot + journal, and returns the persister plus the restored
// session records keyed by session ID (drop records already applied)
// and the winning-Seq shadow map (streaming followers keep folding
// records into both).
func openPersister(dir string, snapshotBytes int64, noSync bool) (*persister, map[string]*scenario.SessionState, seqShadow, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, nil, fmt.Errorf("serve: state dir: %w", err)
	}
	if snapshotBytes == 0 {
		snapshotBytes = defaultSnapshotBytes
	}
	p := &persister{dir: dir, snapshotBytes: snapshotBytes, noSync: noSync}
	// The boot gen must exceed every gen this state dir ever announced
	// to a follower; wall-clock nanoseconds dominate any plausible
	// bump count (resetLocked also takes max(gen+1, now)).
	p.gen = uint64(time.Now().UnixNano())

	state := make(map[string]*scenario.SessionState)
	shadow := make(seqShadow)
	// Snapshot first: it is the compacted prefix of the journal's
	// history. It was written atomically, so corruption here is bitrot
	// or an operator mistake — refuse boot rather than serve a silently
	// truncated fleet.
	if err := p.replayFile(filepath.Join(dir, snapshotFile), state, shadow, false); err != nil {
		return nil, nil, nil, err
	}
	// Then the journal, tolerating (and truncating) a torn suffix: the
	// process can die mid-append, and everything before the tear was
	// acknowledged durable.
	if err := p.replayFile(filepath.Join(dir, journalFile), state, shadow, true); err != nil {
		return nil, nil, nil, err
	}

	j, err := os.OpenFile(filepath.Join(dir, journalFile), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("serve: opening journal: %w", err)
	}
	if fi, err := j.Stat(); err == nil {
		p.journalBytes.Store(fi.Size())
	}
	p.genRecords = p.replayedJournalRecords
	p.journal = j
	r, err := os.Open(filepath.Join(dir, journalFile))
	if err != nil {
		j.Close()
		return nil, nil, nil, fmt.Errorf("serve: opening journal for replication reads: %w", err)
	}
	p.jread = r
	return p, state, shadow, nil
}

// replayFile folds one record file into state. With truncateOnCorrupt,
// a torn/corrupt/short-read suffix is cut back to the last valid record
// (journal semantics); without it any damage is a hard error (snapshot
// semantics). Future-version and structurally invalid records are hard
// errors either way — they were written intact, so ignoring them would
// silently drop durable state.
func (p *persister) replayFile(path string, state map[string]*scenario.SessionState, shadow seqShadow, truncateOnCorrupt bool) error {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("serve: opening %s: %w", filepath.Base(path), err)
	}
	defer f.Close()

	var off int64
	var hdr [frameHeaderLen]byte
	buf := make([]byte, 0, 4096)
	corrupt := func(reason string) error {
		if !truncateOnCorrupt {
			return fmt.Errorf("serve: %s corrupt at offset %d (%s); refusing to boot from a damaged snapshot", filepath.Base(path), off, reason)
		}
		fi, err := f.Stat()
		if err != nil {
			return fmt.Errorf("serve: %s: %w", filepath.Base(path), err)
		}
		dropped := fi.Size() - off
		if err := os.Truncate(path, off); err != nil {
			return fmt.Errorf("serve: truncating %s to last valid record: %w", filepath.Base(path), err)
		}
		p.truncatedBytes.Add(dropped)
		log.Printf("serve: %s: %s at offset %d; truncated %d byte suffix to the last valid record", filepath.Base(path), reason, off, dropped)
		return nil
	}

	for {
		if err := fpPersistReplay.Hit(); err != nil {
			return corrupt(fmt.Sprintf("injected replay fault: %v", err))
		}
		n, err := io.ReadFull(f, hdr[:])
		if err == io.EOF {
			return nil
		}
		if err != nil {
			if errors.Is(err, io.ErrUnexpectedEOF) {
				return corrupt(fmt.Sprintf("torn frame header (%d of %d bytes)", n, frameHeaderLen))
			}
			return corrupt(fmt.Sprintf("reading frame header: %v", err))
		}
		size := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if size == 0 || size > maxRecordBytes {
			return corrupt(fmt.Sprintf("implausible record length %d", size))
		}
		if cap(buf) < int(size) {
			buf = make([]byte, size)
		}
		buf = buf[:size]
		if n, err := io.ReadFull(f, buf); err != nil {
			return corrupt(fmt.Sprintf("torn record payload (%d of %d bytes)", n, size))
		}
		if crc32.ChecksumIEEE(buf) != sum {
			return corrupt("record checksum mismatch")
		}

		// The frame is intact: from here every problem is semantic, and
		// semantic problems are hard errors — an unreadable-but-durable
		// record means state this build must not silently discard.
		v, err := scenario.SnapshotRecordVersion(buf)
		if err != nil {
			return fmt.Errorf("serve: %s offset %d: %w", filepath.Base(path), off, err)
		}
		if err := scenario.CheckSnapshotVersion(v); err != nil {
			return fmt.Errorf("serve: %s offset %d: %w", filepath.Base(path), off, err)
		}
		var rec scenario.SnapshotRecord
		if err := json.Unmarshal(buf, &rec); err != nil {
			return fmt.Errorf("serve: %s offset %d: parsing record: %w", filepath.Base(path), off, err)
		}
		if err := rec.Validate(); err != nil {
			return fmt.Errorf("serve: %s offset %d: %w", filepath.Base(path), off, err)
		}
		applyRecord(state, shadow, &rec)
		if rec.Seq > p.maxSeq.Load() {
			p.maxSeq.Store(rec.Seq)
		}
		if rec.Epoch > p.maxEpoch.Load() {
			p.maxEpoch.Store(rec.Epoch)
		}
		if truncateOnCorrupt {
			p.replayedJournalRecords++
		}
		off += frameHeaderLen + int64(size)
	}
}

// seqShadow tracks the winning Seq per session during replay.
type seqShadow = map[string]uint64

// applyRecord folds one record into the replay state, newest Seq wins:
// replay order within a file is append order, but a crash between a
// snapshot rename and the journal reset leaves stale lower-Seq journal
// records behind, and two same-session records can land in the journal
// slightly out of capture order when their workers raced — Seq, assigned
// under the session lock, is the authority.
func applyRecord(state map[string]*scenario.SessionState, shadow seqShadow, rec *scenario.SnapshotRecord) {
	switch rec.Kind {
	case scenario.RecordSession:
		id := rec.Session.ID
		if rec.Seq < shadow[id] {
			return
		}
		shadow[id] = rec.Seq
		state[id] = rec.Session
	case scenario.RecordDrop:
		id := rec.SessionID
		if rec.Seq < shadow[id] {
			return
		}
		shadow[id] = rec.Seq
		delete(state, id)
	}
}

// frame encodes one record with its length + CRC32 header.
func frame(rec *scenario.SnapshotRecord) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("serve: encoding snapshot record: %w", err)
	}
	out := make([]byte, frameHeaderLen+len(payload))
	binary.LittleEndian.PutUint32(out[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[4:8], crc32.ChecksumIEEE(payload))
	copy(out[frameHeaderLen:], payload)
	return out, nil
}

// append journals one record durably: framed write, then fsync (unless
// configured off), before the caller acknowledges the request the
// record describes. An error means the record may not survive a crash —
// the caller must fail the request rather than acknowledge state the
// journal does not hold. On success it returns the stream position just
// past the record, the address a replication follower must durably
// reach before a sync-mode acknowledgement.
func (p *persister) append(rec *scenario.SnapshotRecord) (replPos, error) {
	data, err := frame(rec)
	if err != nil {
		return replPos{}, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return replPos{}, fmt.Errorf("serve: journal closed")
	}
	if err := fpPersistWrite.Hit(); err != nil {
		p.journalErrors.Add(1)
		return replPos{}, fmt.Errorf("serve: journal write: %w", err)
	}
	if _, err := p.journal.Write(data); err != nil {
		p.journalErrors.Add(1)
		return replPos{}, fmt.Errorf("serve: journal write: %w", err)
	}
	if !p.noSync {
		if err := p.fsyncJournalLocked(); err != nil {
			p.journalErrors.Add(1)
			return replPos{}, err
		}
	}
	end := p.journalBytes.Add(int64(len(data)))
	p.genRecords++
	if rec.Epoch > p.maxEpoch.Load() {
		p.maxEpoch.Store(rec.Epoch)
	}
	p.notifyLocked()
	return replPos{gen: p.gen, off: end}, nil
}

// notifyLocked wakes every replication long-poll waiting for journal
// change; the caller holds p.mu.
func (p *persister) notifyLocked() {
	if p.notify != nil {
		close(p.notify)
		p.notify = nil
	}
}

// waitCh returns a channel that closes on the next journal change
// (append, reset, or close). Grab it BEFORE checking the cursor you
// intend to wait past, or the change can slip between check and wait.
func (p *persister) waitCh() <-chan struct{} {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		// Already closed: hand back a closed channel so waiters never
		// hang on a journal that will not change again.
		ch := make(chan struct{})
		close(ch)
		return ch
	}
	if p.notify == nil {
		p.notify = make(chan struct{})
	}
	return p.notify
}

// cursor returns the journal stream's current tail position.
func (p *persister) cursor() replPos {
	p.mu.Lock()
	defer p.mu.Unlock()
	return replPos{gen: p.gen, off: p.journalBytes.Load()}
}

// alignFrames walks data from the start and returns the prefix length
// covering only whole frames, plus the frame count. Replication chunks
// must never split a frame: the follower appends chunks verbatim to its
// own journal, and a split frame there is indistinguishable from a torn
// write.
func alignFrames(data []byte) (n int, recs int) {
	for n+frameHeaderLen <= len(data) {
		size := int(binary.LittleEndian.Uint32(data[n : n+4]))
		if n+frameHeaderLen+size > len(data) {
			break
		}
		n += frameHeaderLen + size
		recs++
	}
	return n, recs
}

// readJournal reads replication data from pos: a chunk of whole frames
// starting at pos.off in the current journal. reset=true means pos is
// not addressable in the current incarnation (older gen, or an offset
// past the tail — a diverged or corrupted follower) and the follower
// needs a full snapshot transfer instead. An empty chunk with
// reset=false means the follower is caught up. File IO runs under p.mu
// — the persister's own mutex, whose purpose is serializing exactly
// this — so a compaction can never truncate the journal mid-read.
func (p *persister) readJournal(pos replPos) (data []byte, next replPos, recs int, reset bool, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, replPos{}, 0, false, fmt.Errorf("serve: journal closed")
	}
	size := p.journalBytes.Load()
	if pos.gen != p.gen || pos.off < 0 || pos.off > size {
		return nil, replPos{}, 0, true, nil
	}
	span := size - pos.off
	if span == 0 {
		return nil, pos, 0, false, nil
	}
	if span > maxReplChunk {
		span = maxReplChunk
	}
	buf := make([]byte, span)
	if _, err := p.jread.ReadAt(buf, pos.off); err != nil {
		return nil, replPos{}, 0, false, fmt.Errorf("serve: replication read: %w", err)
	}
	n, recs := alignFrames(buf)
	if n == 0 {
		// A chunk boundary inside the first frame: the frame is larger
		// than the chunk cap. Session records are KBs; a frame beyond
		// maxReplChunk means local corruption, not load.
		return nil, replPos{}, 0, false, fmt.Errorf("serve: replication read at %d: frame exceeds %d byte chunk cap", pos.off, maxReplChunk)
	}
	return buf[:n], replPos{gen: p.gen, off: pos.off + int64(n)}, recs, false, nil
}

// readForReset reads the full snapshot + journal for a follower reset
// transfer, atomically with respect to appends and compactions (p.mu).
// recs is the journal's record count, the follower's starting
// genRecords after applying the transfer.
func (p *persister) readForReset() (snap, jour []byte, pos replPos, recs int64, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, nil, replPos{}, 0, fmt.Errorf("serve: journal closed")
	}
	snap, err = os.ReadFile(filepath.Join(p.dir, snapshotFile))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, nil, replPos{}, 0, fmt.Errorf("serve: reading snapshot for transfer: %w", err)
	}
	size := p.journalBytes.Load()
	jour = make([]byte, size)
	if size > 0 {
		if _, err := p.jread.ReadAt(jour, 0); err != nil {
			return nil, nil, replPos{}, 0, fmt.Errorf("serve: reading journal for transfer: %w", err)
		}
	}
	return snap, jour, replPos{gen: p.gen, off: size}, p.genRecords, nil
}

// recordsInGen returns the record count of the current journal
// incarnation.
func (p *persister) recordsInGen() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.genRecords
}

// appendRaw appends pre-framed replication chunks to the journal and
// fsyncs — the follower's apply path. Unlike append, it always syncs
// regardless of noSync: a follower's poll cursor is its replication
// acknowledgement, and acking state its disk does not hold would let a
// sync-mode primary acknowledge a write that a double failure then
// loses. On a partial-write error the journal is truncated back to the
// pre-call size so a retry of the same chunk cannot duplicate frames;
// if even that fails the journal is declared broken.
func (p *persister) appendRaw(data []byte, recs int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return fmt.Errorf("serve: journal closed")
	}
	pre := p.journalBytes.Load()
	fail := func(err error) error {
		p.journalErrors.Add(1)
		if terr := p.journal.Truncate(pre); terr != nil {
			return fmt.Errorf("serve: replication apply: %w (and truncating back failed: %v; journal needs a reset transfer)", err, terr)
		}
		return fmt.Errorf("serve: replication apply: %w", err)
	}
	if err := fpPersistWrite.Hit(); err != nil {
		return fail(err)
	}
	if _, err := p.journal.Write(data); err != nil {
		return fail(err)
	}
	if err := p.fsyncJournalLocked(); err != nil {
		return fail(err)
	}
	p.journalBytes.Store(pre + int64(len(data)))
	p.genRecords += int64(recs)
	p.notifyLocked()
	return nil
}

// resetTo replaces the follower's on-disk state with a transferred
// snapshot + journal, with the same crash ordering as writeSnapshot:
// temp snapshot, fsync, rename, dir fsync, then the journal rewrite.
// A crash between rename and journal rewrite replays the new snapshot
// plus the old journal — whose stale lower-Seq records lose at replay,
// exactly the writeSnapshot argument.
func (p *persister) resetTo(snap, jour []byte, recs int64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return fmt.Errorf("serve: journal closed")
	}
	tmpPath := filepath.Join(p.dir, snapshotFile+".tmp")
	werr := func(err error) error {
		p.journalErrors.Add(1)
		return fmt.Errorf("serve: reset transfer: %w", err)
	}
	if err := fpPersistWrite.Hit(); err != nil {
		return werr(err)
	}
	tmp, err := os.Create(tmpPath)
	if err != nil {
		return werr(err)
	}
	defer os.Remove(tmpPath)
	if _, err := tmp.Write(snap); err != nil {
		tmp.Close()
		return werr(err)
	}
	if err := fpPersistFsync.Hit(); err != nil {
		tmp.Close()
		return werr(err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return werr(err)
	}
	if err := tmp.Close(); err != nil {
		return werr(err)
	}
	if err := os.Rename(tmpPath, filepath.Join(p.dir, snapshotFile)); err != nil {
		return werr(err)
	}
	if err := p.fsyncDir(); err != nil {
		p.journalErrors.Add(1)
		return err
	}
	if err := p.journal.Truncate(0); err != nil {
		return werr(err)
	}
	if _, err := p.journal.Seek(0, io.SeekStart); err != nil {
		return werr(err)
	}
	if _, err := p.journal.Write(jour); err != nil {
		return werr(err)
	}
	if err := p.fsyncJournalLocked(); err != nil {
		p.journalErrors.Add(1)
		return err
	}
	p.journalBytes.Store(int64(len(jour)))
	p.genRecords = recs
	p.resetGenLocked()
	p.notifyLocked()
	return nil
}

// resetGenLocked advances the journal incarnation; the caller holds
// p.mu and has just reset the journal.
func (p *persister) resetGenLocked() {
	now := uint64(time.Now().UnixNano())
	if now > p.gen {
		p.gen = now
	} else {
		p.gen++
	}
}

func (p *persister) fsyncJournalLocked() error {
	if err := fpPersistFsync.Hit(); err != nil {
		return fmt.Errorf("serve: journal fsync: %w", err)
	}
	if err := p.journal.Sync(); err != nil {
		return fmt.Errorf("serve: journal fsync: %w", err)
	}
	return nil
}

// shouldSnapshot reports whether the journal has outgrown its
// compaction threshold.
func (p *persister) shouldSnapshot() bool {
	return p.snapshotBytes > 0 && p.journalBytes.Load() >= p.snapshotBytes
}

// writeSnapshot atomically replaces the snapshot with recs and resets
// the journal. Crash-ordering: the temp snapshot is fully written and
// fsync'd, renamed over the old one, the directory fsync'd — only then
// is the journal truncated. A crash anywhere in between replays the old
// snapshot + full journal, or the new snapshot + a stale journal whose
// lower-Seq records lose at replay. Either way, no acknowledged state
// is lost.
//
// Callers that captured recs from live sessions must use
// writeSnapshotLocked with mu already held across the capture (see the
// package comment's compaction barrier); this entry is for callers
// whose recs cannot be raced by concurrent appends (tests, offline
// tooling).
func (p *persister) writeSnapshot(recs []*scenario.SnapshotRecord) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.writeSnapshotLocked(recs)
}

// writeSnapshotLocked is writeSnapshot's body; the caller holds p.mu.
func (p *persister) writeSnapshotLocked(recs []*scenario.SnapshotRecord) error {
	if p.closed {
		return fmt.Errorf("serve: journal closed")
	}
	tmpPath := filepath.Join(p.dir, snapshotFile+".tmp")
	tmp, err := os.Create(tmpPath)
	if err != nil {
		return fmt.Errorf("serve: snapshot: %w", err)
	}
	defer os.Remove(tmpPath) // no-op after the rename
	for _, rec := range recs {
		data, err := frame(rec)
		if err != nil {
			tmp.Close()
			return err
		}
		if err := fpPersistWrite.Hit(); err != nil {
			tmp.Close()
			return fmt.Errorf("serve: snapshot write: %w", err)
		}
		if _, err := tmp.Write(data); err != nil {
			tmp.Close()
			return fmt.Errorf("serve: snapshot write: %w", err)
		}
	}
	if err := fpPersistFsync.Hit(); err != nil {
		tmp.Close()
		return fmt.Errorf("serve: snapshot fsync: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("serve: snapshot fsync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("serve: snapshot close: %w", err)
	}
	if err := os.Rename(tmpPath, filepath.Join(p.dir, snapshotFile)); err != nil {
		return fmt.Errorf("serve: snapshot rename: %w", err)
	}
	if err := p.fsyncDir(); err != nil {
		return err
	}

	// The snapshot is durable; the journal's records are now redundant
	// (their Seqs are baked into the snapshot). Reset it in place.
	if err := p.journal.Truncate(0); err != nil {
		return fmt.Errorf("serve: journal reset: %w", err)
	}
	if _, err := p.journal.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("serve: journal reset: %w", err)
	}
	p.journalBytes.Store(0)
	p.genRecords = 0
	// The journal reset starts a new incarnation: replication cursors
	// into the old journal are invalid (the bytes are gone), and the gen
	// bump is what tells a polling follower to take a reset transfer. It
	// also satisfies sync-ack waiters parked on old-gen positions — the
	// snapshot the new gen starts from compacts everything they awaited.
	p.resetGenLocked()
	p.snapshots.Add(1)
	p.notifyLocked()
	return nil
}

// fsyncDir makes the snapshot rename itself durable.
func (p *persister) fsyncDir() error {
	if err := fpPersistFsync.Hit(); err != nil {
		return fmt.Errorf("serve: state dir fsync: %w", err)
	}
	d, err := os.Open(p.dir)
	if err != nil {
		return fmt.Errorf("serve: state dir fsync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("serve: state dir fsync: %w", err)
	}
	return nil
}

// close releases the journal handle. Pending data is already on disk
// (append fsyncs per record unless JournalNoSync); with JournalNoSync a
// final fsync narrows the loss window.
func (p *persister) close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.closed = true
	if p.noSync {
		_ = p.journal.Sync()
	}
	_ = p.journal.Close()
	if p.jread != nil {
		_ = p.jread.Close()
	}
	// Wake replication long-polls and sync-ack waiters; they re-check
	// and see closed.
	p.notifyLocked()
}
