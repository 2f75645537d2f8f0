package serve

import (
	"bytes"
	"encoding/json"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dmc/internal/scenario"
)

// FuzzDecodeFrames hammers the one frame reader and record decoder that
// boot replay and replication share, seeded with framed session and
// drop records: whole, torn and bit-flipped. Whatever parseFrames
// accepts must
//
//   - parse again, re-framed record by record, to equal records (equal
//     JSON encodings, so an empty list and an omitted one compare
//     equal),
//   - be rejected with its last byte dropped — a torn frame is never
//     mistaken for a whole one, and
//   - restore the same state when replayed as a journal file: same
//     sessions, Seq and epoch high-water marks and record count, and
//     nothing truncated.
func FuzzDecodeFrames(f *testing.F) {
	rng := rand.New(rand.NewPCG(31, 7))
	var body []byte
	for _, rec := range []*scenario.SnapshotRecord{
		{Version: scenario.SnapshotVersion, Seq: 1, Epoch: 2, Kind: scenario.RecordSession,
			Session: &scenario.SessionState{ID: "a", Solve: scenario.Solve{Network: testNetwork(rng, 2)}}},
		{Version: scenario.SnapshotVersion, Seq: 2, Kind: scenario.RecordSession,
			Session: &scenario.SessionState{ID: "b", Solve: scenario.Solve{Network: testNetwork(rng, 3)}}},
		{Version: scenario.SnapshotVersion, Seq: 3, Kind: scenario.RecordDrop, SessionID: "a"},
	} {
		data, err := frame(rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		body = append(body, data...)
	}
	f.Add(body)
	f.Add(body[:len(body)-3])
	f.Add(body[:5])
	for _, bit := range []int{3, 8*frameHeaderLen + 40, 8*len(body) - 1} {
		flipped := bytes.Clone(body)
		flipped[bit/8] ^= 1 << (bit % 8)
		f.Add(flipped)
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := parseFrames(data)
		if err != nil {
			return
		}
		var reframed []byte
		for _, rec := range recs {
			fr, err := frame(rec)
			if err != nil {
				t.Fatalf("re-framing an accepted record: %v", err)
			}
			reframed = append(reframed, fr...)
		}
		again, err := parseFrames(reframed)
		if err != nil {
			t.Fatalf("re-framed body rejected: %v", err)
		}
		if len(again) != len(recs) {
			t.Fatalf("re-framed body parsed to %d records, want %d", len(again), len(recs))
		}
		for i := range recs {
			want, _ := json.Marshal(recs[i])
			got, _ := json.Marshal(again[i])
			if !bytes.Equal(got, want) {
				t.Fatalf("record %d changed across re-framing:\n got %s\nwant %s", i, got, want)
			}
		}

		if len(data) > 0 {
			if _, err := parseFrames(data[:len(data)-1]); err == nil {
				t.Fatal("accepted the body with its last byte dropped")
			}
		}

		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, journalFile), data, 0o644); err != nil {
			t.Fatal(err)
		}
		p, state, _, err := openPersister(dir, 0, false)
		if err != nil {
			t.Fatalf("replaying an accepted body: %v", err)
		}
		defer p.close()
		ref := new(persister)
		refState := make(map[string]*scenario.SessionState)
		ref.fold(refState, make(seqShadow), recs...)
		if !reflect.DeepEqual(state, refState) {
			t.Fatalf("replay restored %d sessions, the parsed records %d, or their states differ", len(state), len(refState))
		}
		if p.maxSeq.Load() != ref.maxSeq.Load() || p.maxEpoch.Load() != ref.maxEpoch.Load() {
			t.Fatalf("replay high-water marks seq %d epoch %d, parsed records seq %d epoch %d",
				p.maxSeq.Load(), p.maxEpoch.Load(), ref.maxSeq.Load(), ref.maxEpoch.Load())
		}
		if p.genRecords != int64(len(recs)) || p.truncatedBytes.Load() != 0 {
			t.Fatalf("replay counted %d records and truncated %d bytes; want %d and 0",
				p.genRecords, p.truncatedBytes.Load(), len(recs))
		}
	})
}
