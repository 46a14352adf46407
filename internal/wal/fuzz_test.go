package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"oms"
	"oms/internal/service"
	"oms/internal/wire"
)

// seedLog builds a healthy little log in the format the WAL writes:
// node frames (one with edge weights), a batch frame whose recorded
// blocks include -1 (a duplicate push), a stats frame, a seal.
func seedLog() []byte {
	var log []byte
	log = wire.AppendFrame(log, wire.AppendNodePayload(nil, 0, 1, []int32{1, 2}, nil))
	log = wire.AppendFrame(log, wire.AppendNodePayload(nil, 1, 2, []int32{0}, []int32{3}))
	batch := wire.AppendBatchHeader(nil, []int32{0, 1, -1})
	batch = wire.AppendNodePayload(batch, 2, 1, []int32{0, 1}, nil)
	batch = wire.AppendNodePayload(batch, 3, 1, nil, nil)
	batch = wire.AppendNodePayload(batch, 2, 1, []int32{0, 1}, nil)
	log = wire.AppendFrame(log, batch)
	log = wire.AppendFrame(log, appendStatsPayload(nil, oms.EstimatorState{
		SeenNodes: 4, SeenNodeWeight: 5, SeenAdj: 5, SeenEdgeWeight: 7,
		NextRatchet: 6, Revision: 3,
		Est: oms.StreamStats{N: 8, M: 4, TotalNodeWeight: 10, TotalEdgeWeight: 7},
	}))
	return wire.AppendFrame(log, []byte{recSeal})
}

// FuzzLogScan feeds arbitrary bytes to the WAL recovery scanner and
// holds its contract: never panic, never allocate beyond the input's
// proportions, and always cut a torn or corrupt tail cleanly — the
// surviving prefix must re-scan to the identical result and replay
// exactly the counted records.
func FuzzLogScan(f *testing.F) {
	good := seedLog()
	f.Add(good)
	f.Add(good[:len(good)-3]) // torn mid-frame
	f.Add([]byte{})           // empty log
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	corrupt := append([]byte(nil), good...)
	corrupt[10] ^= 0x40 // flip a payload bit: CRC must catch it
	f.Add(corrupt)
	huge := wire.AppendFrame(nil, wire.AppendUvarint([]byte{wire.TypeBatch}, 1<<32-1)) // count 2^32-1, no entries
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "log.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		fh, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		nodes, sealed, validEnd, err := scanLog(fh)
		fh.Close()
		if err != nil {
			t.Fatalf("scan of a readable file errored: %v", err)
		}
		if validEnd < 0 || validEnd > int64(len(data)) {
			t.Fatalf("validEnd %d outside [0,%d]", validEnd, len(data))
		}
		if nodes < 0 {
			t.Fatalf("negative node count %d", nodes)
		}

		// Truncate-cleanly property: the valid prefix re-scans to the
		// same verdict...
		if err := os.WriteFile(path, data[:validEnd], 0o644); err != nil {
			t.Fatal(err)
		}
		fh, err = os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		nodes2, sealed2, validEnd2, err := scanLog(fh)
		fh.Close()
		if err != nil {
			t.Fatal(err)
		}
		if nodes2 != nodes || sealed2 != sealed || validEnd2 != validEnd {
			t.Fatalf("truncated prefix rescans to (%d,%v,%d), want (%d,%v,%d)",
				nodes2, sealed2, validEnd2, nodes, sealed, validEnd)
		}
		// ...and replays exactly the counted records, stats frames
		// decoding cleanly along the way.
		replayed := int64(0)
		err = replayLog(path, 0, nodes, func(u, w int32, adj, ew []int32, block int32) error {
			replayed++
			if ew != nil && len(ew) != len(adj) {
				t.Fatalf("record with %d edge weights for %d edges", len(ew), len(adj))
			}
			return nil
		}, func(st oms.EstimatorState) error { return nil })
		if err != nil {
			t.Fatalf("replay of the validated prefix failed: %v", err)
		}
		if replayed != nodes {
			t.Fatalf("replayed %d records, scan counted %d", replayed, nodes)
		}
	})
}

// FuzzSnapshotDecode feeds arbitrary bytes to the checkpoint decoder:
// it must never panic, and anything it accepts must re-encode to a
// snapshot that decodes to the same state.
func FuzzSnapshotDecode(f *testing.F) {
	good := encodeSnapshot(7, oms.SessionState{
		EdgesSeen: 9,
		Loads:     []int64{3, 4},
		Parts:     []int32{0, 1, -1},
		Estimator: &oms.EstimatorState{
			SeenNodes: 3, SeenNodeWeight: 3, SeenAdj: 4, SeenEdgeWeight: 4,
			NextRatchet: 4, Revision: 2,
			Est: oms.StreamStats{N: 4, M: 2, TotalNodeWeight: 4, TotalEdgeWeight: 2},
		},
	})
	full := append(append(append([]byte{}, snapMagic[:]...),
		binary.LittleEndian.AppendUint32(nil, crc32.ChecksumIEEE(good))...), good...)
	f.Add(full)
	f.Add(full[:len(full)-2])
	f.Add([]byte("OMSSNAP1garbage"))
	f.Add(bytes.Repeat([]byte{0x01}, 40))

	f.Fuzz(func(t *testing.T, data []byte) {
		count, st, err := decodeSnapshot(data)
		if err != nil {
			return
		}
		if count < 0 || st.EdgesSeen < 0 {
			t.Fatalf("accepted negative scalars: count %d, edges %d", count, st.EdgesSeen)
		}
		reenc := encodeSnapshot(count, st)
		rt := append(append(append([]byte{}, snapMagic[:]...),
			binary.LittleEndian.AppendUint32(nil, crc32.ChecksumIEEE(reenc))...), reenc...)
		count2, st2, err := decodeSnapshot(rt)
		if err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
		if count2 != count || st2.EdgesSeen != st.EdgesSeen ||
			len(st2.Loads) != len(st.Loads) || len(st2.Parts) != len(st.Parts) ||
			(st2.Estimator == nil) != (st.Estimator == nil) {
			t.Fatalf("round trip changed the state: (%d,%+v) vs (%d,%+v)", count, st, count2, st2)
		}
	})
}

// FuzzRecoverSession drives the whole per-session recovery path —
// spec + arbitrary log bytes — through Store.Recover: it must never
// panic and every recovered session's replay must succeed over the
// truncated log.
func FuzzRecoverSession(f *testing.F) {
	f.Add(seedLog())
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0x7f}, 100))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		st, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		lg, err := st.Create("s1-0000f00d", service.CreateSpec{N: 8, M: 8, K: 2})
		if err != nil {
			t.Fatal(err)
		}
		lg.Close()
		if err := os.WriteFile(filepath.Join(dir, "sessions", "s1-0000f00d", "log.wal"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		recs, _ := st.Recover()
		for _, rec := range recs {
			err := rec.Replay(func(u, w int32, adj, ew []int32, block int32) error { return nil },
				func(oms.EstimatorState) error { return nil })
			if err != nil {
				t.Fatalf("replay of recovered session failed: %v", err)
			}
			rec.Log.Close()
		}
	})
}
