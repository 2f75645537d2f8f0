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
//	            (unless Config.JournalNoSync); a failed append is cut
//	            back out
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

// errJournalClosed refuses IO on a closed persister.
var errJournalClosed = errors.New("serve: journal closed")

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
	// bump count (resetGenLocked also takes max(gen+1, now)).
	p.gen = uint64(time.Now().UnixNano())

	state := make(map[string]*scenario.SessionState)
	shadow := make(seqShadow)
	// Snapshot first: it is the compacted prefix of the journal's
	// history. It was written atomically, so corruption here is bitrot
	// or an operator mistake — refuse boot rather than serve a silently
	// truncated fleet.
	if _, err := p.replayFile(filepath.Join(dir, snapshotFile), state, shadow, false); err != nil {
		return nil, nil, nil, err
	}
	// Then the journal, tolerating (and truncating) a torn suffix: the
	// process can die mid-append, and everything before the tear was
	// acknowledged durable.
	recs, err := p.replayFile(filepath.Join(dir, journalFile), state, shadow, true)
	if err != nil {
		return nil, nil, nil, err
	}
	p.genRecords = recs

	j, err := os.OpenFile(filepath.Join(dir, journalFile), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("serve: opening journal: %w", err)
	}
	// journalBytes must start out as the file's true size: the writer
	// cuts a failed append back to it, and replication reads address the
	// file by it.
	fi, err := j.Stat()
	if err != nil {
		j.Close()
		return nil, nil, nil, fmt.Errorf("serve: sizing journal: %w", err)
	}
	p.journalBytes.Store(fi.Size())
	p.journal = j
	r, err := os.Open(filepath.Join(dir, journalFile))
	if err != nil {
		j.Close()
		return nil, nil, nil, fmt.Errorf("serve: opening journal for replication reads: %w", err)
	}
	p.jread = r
	return p, state, shadow, nil
}

// replayFile folds one record file into state and returns its record
// count. With truncateOnCorrupt, a torn/corrupt/short-read suffix is
// cut back to the last valid record (journal semantics); without it any
// damage is a hard error (snapshot semantics). Future-version and
// structurally invalid records are hard errors either way — they were
// written intact, so ignoring them would silently drop durable state.
func (p *persister) replayFile(path string, state map[string]*scenario.SessionState, shadow seqShadow, truncateOnCorrupt bool) (int64, error) {
	name := filepath.Base(path)
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("serve: opening %s: %w", name, err)
	}
	defer f.Close()

	var off, recs int64
	buf := make([]byte, 0, 4096)
	for {
		err := fpPersistReplay.Hit()
		if err == nil {
			if buf, err = readFrame(f, buf); err == io.EOF {
				return recs, nil
			}
		}
		if err != nil {
			if !truncateOnCorrupt {
				return 0, fmt.Errorf("serve: %s corrupt at offset %d (%v); refusing to boot from a damaged snapshot", name, off, err)
			}
			fi, err2 := f.Stat()
			if err2 != nil {
				return 0, fmt.Errorf("serve: %s: %w", name, err2)
			}
			if err2 := os.Truncate(path, off); err2 != nil {
				return 0, fmt.Errorf("serve: truncating %s to last valid record: %w", name, err2)
			}
			p.truncatedBytes.Add(fi.Size() - off)
			log.Printf("serve: %s: %v at offset %d; truncated %d byte suffix to the last valid record", name, err, off, fi.Size()-off)
			return recs, nil
		}
		// The frame is intact: from here every problem is semantic, and
		// semantic problems are hard errors — an unreadable-but-durable
		// record means state this build must not silently discard.
		rec, err := decodeRecord(buf)
		if err != nil {
			return 0, fmt.Errorf("serve: %s offset %d: %w", name, off, err)
		}
		p.fold(state, shadow, rec)
		recs++
		off += frameHeaderLen + int64(len(buf))
	}
}

// readFrame reads the next frame from r into buf's storage and returns
// the payload, or io.EOF at a clean end of the stream. A torn frame, an
// implausible length or a checksum mismatch is an error saying which.
// Boot replay and parseFrames both read through it.
func readFrame(r io.Reader, buf []byte) ([]byte, error) {
	var hdr [frameHeaderLen]byte
	if n, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return buf, io.EOF
		}
		return buf, fmt.Errorf("torn frame header (%d of %d bytes): %w", n, frameHeaderLen, err)
	}
	size := binary.LittleEndian.Uint32(hdr[0:4])
	if size == 0 || size > maxRecordBytes {
		return buf, fmt.Errorf("implausible record length %d", size)
	}
	if cap(buf) < int(size) {
		buf = make([]byte, size)
	}
	buf = buf[:size]
	if n, err := io.ReadFull(r, buf); err != nil {
		return buf, fmt.Errorf("torn record payload (%d of %d bytes): %w", n, size, err)
	}
	if crc32.ChecksumIEEE(buf) != binary.LittleEndian.Uint32(hdr[4:8]) {
		return buf, errors.New("record checksum mismatch")
	}
	return buf, nil
}

// decodeRecord decodes one frame payload for boot replay and
// parseFrames alike: it peeks at the schema version and refuses a newer
// one before parsing — guessing at a future layout is worse than
// refusing it — then parses the record and validates it.
func decodeRecord(payload []byte) (*scenario.SnapshotRecord, error) {
	v, err := scenario.SnapshotRecordVersion(payload)
	if err == nil {
		err = scenario.CheckSnapshotVersion(v)
	}
	if err != nil {
		return nil, err
	}
	rec := new(scenario.SnapshotRecord)
	if err := json.Unmarshal(payload, rec); err != nil {
		return nil, fmt.Errorf("parsing record: %w", err)
	}
	if err := rec.Validate(); err != nil {
		return nil, err
	}
	return rec, nil
}

// seqShadow tracks the winning Seq per session during replay.
type seqShadow = map[string]uint64

// fold folds records into state, for boot replay and the follower's
// chunks and reset transfers alike. Newest Seq wins: replay order
// within a file is append order, but a crash between a snapshot rename
// and the journal reset leaves stale lower-Seq journal records behind,
// and two same-session records can land in the journal slightly out of
// capture order when their requests raced — Seq, assigned under the
// session lock, is the authority. It also raises the persister's Seq
// and epoch high-water marks past every record folded.
func (p *persister) fold(state map[string]*scenario.SessionState, shadow seqShadow, recs ...*scenario.SnapshotRecord) {
	for _, rec := range recs {
		id, live := rec.SessionID, rec.Kind == scenario.RecordSession
		if live {
			id = rec.Session.ID
		}
		if rec.Seq >= shadow[id] {
			shadow[id] = rec.Seq
			if live {
				state[id] = rec.Session
			} else {
				delete(state, id)
			}
		}
		raise(&p.maxSeq, rec.Seq)
		raise(&p.maxEpoch, rec.Epoch)
	}
}

// raise lifts a high-water mark to v. Each mark has one writer at a
// time (boot replay, the follower's pull loop, or appends under mu), so
// a load and a store suffice.
func raise(mark *atomic.Uint64, v uint64) {
	if v > mark.Load() {
		mark.Store(v)
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
// record describes. On error the writer has cut the record back out of
// the journal (the error says if even that failed), and the caller must
// fail the request rather than acknowledge state the journal does not
// hold. On success it returns the stream position just past the record,
// the address a replication follower must durably reach before a
// sync-mode acknowledgement.
func (p *persister) append(rec *scenario.SnapshotRecord) (replPos, error) {
	data, err := frame(rec)
	if err != nil {
		return replPos{}, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	pos, err := p.writeLocked(data, 1, !p.noSync)
	if err != nil {
		return replPos{}, err
	}
	raise(&p.maxEpoch, rec.Epoch)
	return pos, nil
}

// appendRaw appends pre-framed replication chunks to the journal and
// fsyncs — the follower's apply path. Unlike append, it always syncs
// regardless of noSync: a follower's poll cursor is its replication
// acknowledgement, and acking state its disk does not hold would let a
// sync-mode primary acknowledge a write that a double failure then
// loses. A failed chunk is cut back out, so a retry of the same chunk
// cannot duplicate frames.
func (p *persister) appendRaw(data []byte, recs int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, err := p.writeLocked(data, int64(recs), true)
	return err
}

// writeLocked is the journal writer behind append, appendRaw and
// resetTo: it appends data (recs whole frames) and, with sync, fsyncs.
// On any write or fsync failure it cuts the journal back to its
// previous end, so a failed record is neither replayed at boot nor
// streamed to a follower, and every later offset stays true; the
// failure counts toward journal_errors. The caller holds p.mu.
func (p *persister) writeLocked(data []byte, recs int64, sync bool) (replPos, error) {
	if p.closed {
		return replPos{}, errJournalClosed
	}
	pre := p.journalBytes.Load()
	err := writeFile(p.journal, data)
	if err == nil && sync {
		err = syncFile(p.journal)
	}
	if err != nil {
		p.journalErrors.Add(1)
		if terr := p.journal.Truncate(pre); terr != nil {
			return replPos{}, fmt.Errorf("serve: journal append: %w (and cutting the journal back to %d bytes failed: %v)", err, pre, terr)
		}
		return replPos{}, fmt.Errorf("serve: journal append: %w", err)
	}
	end := p.journalBytes.Add(int64(len(data)))
	p.genRecords += recs
	p.notifyLocked()
	return replPos{gen: p.gen, off: end}, nil
}

// writeFile writes data to f behind the persist.write seam.
func writeFile(f *os.File, data []byte) error {
	if err := fpPersistWrite.Hit(); err != nil {
		return err
	}
	_, err := f.Write(data)
	return err
}

// syncFile fsyncs f behind the persist.fsync seam.
func syncFile(f *os.File) error {
	if err := fpPersistFsync.Hit(); err != nil {
		return err
	}
	return f.Sync()
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
func alignFrames(data []byte) (n int, recs int64) {
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
func (p *persister) readJournal(pos replPos) (data []byte, next replPos, recs int64, reset bool, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, replPos{}, 0, false, errJournalClosed
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
		return nil, nil, replPos{}, 0, errJournalClosed
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

// shouldSnapshot reports whether the journal has outgrown its
// compaction threshold.
func (p *persister) shouldSnapshot() bool {
	return p.snapshotBytes > 0 && p.journalBytes.Load() >= p.snapshotBytes
}

// writeSnapshotLocked compacts: it installs recs as the snapshot,
// framing and writing them one at a time, and empties the journal. The
// caller holds p.mu from before it captured recs from live sessions
// (see the package comment's compaction barrier).
func (p *persister) writeSnapshotLocked(recs []*scenario.SnapshotRecord) error {
	if p.closed {
		return errJournalClosed
	}
	err := p.installLocked(func(f *os.File) error {
		for _, rec := range recs {
			data, err := frame(rec)
			if err != nil {
				return err
			}
			if err := writeFile(f, data); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("serve: snapshot: %w", err)
	}
	p.snapshots.Add(1)
	return nil
}

// resetTo replaces the follower's on-disk state with a transferred
// snapshot + journal: the snapshot goes in through the installer, then
// the journal through the writer. A crash between the snapshot rename
// and the journal rewrite replays the new snapshot plus the old journal,
// whose stale lower-Seq records lose at replay — the compaction
// argument. A failed journal write leaves the journal empty; the cursor
// has not moved, so the next poll takes the transfer again.
func (p *persister) resetTo(snap, jour []byte, recs int64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return errJournalClosed
	}
	if err := p.installLocked(func(f *os.File) error { return writeFile(f, snap) }); err != nil {
		p.journalErrors.Add(1)
		return fmt.Errorf("serve: reset transfer: %w", err)
	}
	_, err := p.writeLocked(jour, recs, true)
	return err
}

// installLocked is the snapshot installer behind compaction and reset
// transfers: it writes a new snapshot with write, then resets the
// journal and starts a new incarnation. Crash ordering: the temp
// snapshot is fully written and fsync'd, renamed over the old one, and
// the directory fsync'd — only then is the journal truncated. A crash
// anywhere in between replays the old snapshot + full journal, or the
// new snapshot + a stale journal whose lower-Seq records lose at
// replay. Either way, no acknowledged state is lost. The caller holds
// p.mu.
func (p *persister) installLocked(write func(*os.File) error) error {
	tmpPath := filepath.Join(p.dir, snapshotFile+".tmp")
	tmp, err := os.Create(tmpPath)
	if err != nil {
		return err
	}
	defer os.Remove(tmpPath) // no-op after the rename
	err = write(tmp)
	if err == nil {
		err = syncFile(tmp)
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err := os.Rename(tmpPath, filepath.Join(p.dir, snapshotFile)); err != nil {
		return err
	}
	// Make the rename itself durable.
	d, err := os.Open(p.dir)
	if err == nil {
		err = syncFile(d)
		d.Close()
	}
	if err != nil {
		return fmt.Errorf("state dir fsync: %w", err)
	}
	// The snapshot is durable; the journal's records are now redundant
	// (their Seqs are baked into the snapshot). Reset it in place: the
	// journal is opened O_APPEND, so the next write lands at offset 0.
	if err := p.journal.Truncate(0); err != nil {
		return fmt.Errorf("journal reset: %w", err)
	}
	p.journalBytes.Store(0)
	p.genRecords = 0
	// The journal reset starts a new incarnation: replication cursors
	// into the old journal are invalid (the bytes are gone), and the gen
	// bump is what tells a polling follower to take a reset transfer. It
	// also satisfies sync-ack waiters parked on old-gen positions — the
	// snapshot the new gen starts from compacts everything they awaited.
	p.resetGenLocked()
	p.notifyLocked()
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
