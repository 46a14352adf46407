package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
	"time"

	"oms"
	"oms/internal/service"
	"oms/internal/wire"
)

// testGraph returns a deterministic small graph as push records.
type pushRec struct {
	u, w int32
	adj  []int32
	ew   []int32
}

func testStream(t *testing.T, n int32) ([]pushRec, oms.SessionConfig) {
	t.Helper()
	g := oms.GenDelaunay(n, 7)
	recs := make([]pushRec, 0, n)
	for u := int32(0); u < g.NumNodes(); u++ {
		adj := append([]int32(nil), g.Neighbors(u)...)
		recs = append(recs, pushRec{u: u, w: 1, adj: adj})
	}
	cfg := oms.SessionConfig{
		Stats: oms.StreamStats{N: g.NumNodes(), M: g.NumEdges()},
		K:     8,
	}
	return recs, cfg
}

func openStore(t *testing.T, dir string) *Store {
	t.Helper()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func spec(n int32, m int64) service.CreateSpec {
	return service.CreateSpec{N: n, M: m, K: 8}
}

func TestLogRoundTripSealed(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	recs, _ := testStream(t, 1000)

	lg, err := st.Create("s1-0000abcd", spec(1000, 0))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := lg.AppendNode(r.u, r.w, r.adj, r.ew); err != nil {
			t.Fatal(err)
		}
	}
	if err := lg.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := lg.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := lg.AppendNode(0, 1, nil, nil); err == nil {
		t.Fatal("append after seal succeeded")
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}

	got, err := st.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if len(got) != 1 {
		t.Fatalf("recovered %d sessions, want 1", len(got))
	}
	rec := got[0]
	if rec.ID != "s1-0000abcd" || !rec.Sealed || rec.Spec.N != 1000 {
		t.Fatalf("recovered %+v", rec)
	}
	i := 0
	err = rec.Replay(func(u, w int32, adj, ew []int32, block int32) error {
		want := recs[i]
		if u != want.u || w != want.w || !equalI32(adj, want.adj) || !equalI32(ew, want.ew) {
			t.Fatalf("record %d: got (%d,%d,%v,%v) want %+v", i, u, w, adj, ew, want)
		}
		i++
		return nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if i != len(recs) {
		t.Fatalf("replayed %d records, want %d", i, len(recs))
	}
	rec.Log.Close()
}

func TestTornTailTruncatedAndResumable(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	recs, _ := testStream(t, 1000)

	lg, err := st.Create("s1-00000001", spec(1000, 0))
	if err != nil {
		t.Fatal(err)
	}
	half := len(recs) / 2
	for _, r := range recs[:half] {
		if err := lg.AppendNode(r.u, r.w, r.adj, r.ew); err != nil {
			t.Fatal(err)
		}
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a torn frame: append a plausible header and a partial
	// payload that the crash cut short.
	logPath := filepath.Join(dir, sessionsDir, "s1-00000001", logName)
	f, err := os.OpenFile(logPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{40, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, wire.TypeNode, 1, 2}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	got, err := st.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if len(got) != 1 || got[0].Sealed {
		t.Fatalf("recovered %+v", got)
	}
	n := 0
	if err := got[0].Replay(func(u, w int32, adj, ew []int32, block int32) error { n++; return nil }, nil); err != nil {
		t.Fatal(err)
	}
	if n != half {
		t.Fatalf("replayed %d records, want the valid prefix %d", n, half)
	}

	// The reopened log must append cleanly at the truncation point.
	for _, r := range recs[half:] {
		if err := got[0].Log.AppendNode(r.u, r.w, r.adj, r.ew); err != nil {
			t.Fatal(err)
		}
	}
	if err := got[0].Log.Close(); err != nil {
		t.Fatal(err)
	}
	again, err := st.Recover()
	if err != nil {
		t.Fatal(err)
	}
	n = 0
	if err := again[0].Replay(func(u, w int32, adj, ew []int32, block int32) error { n++; return nil }, nil); err != nil {
		t.Fatal(err)
	}
	if n != len(recs) {
		t.Fatalf("after resume replayed %d records, want %d", n, len(recs))
	}
	again[0].Log.Close()
}

func TestSnapshotBoundsReplayToTail(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	recs, cfg := testStream(t, 2000)

	eng, err := oms.NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lg, err := st.Create("s2-00000002", spec(cfg.Stats.N, cfg.Stats.M))
	if err != nil {
		t.Fatal(err)
	}
	cut := len(recs) * 2 / 3
	for _, r := range recs[:cut] {
		if _, err := eng.Push(r.u, r.w, r.adj, r.ew); err != nil {
			t.Fatal(err)
		}
		if err := lg.AppendNode(r.u, r.w, r.adj, r.ew); err != nil {
			t.Fatal(err)
		}
	}
	if err := lg.Snapshot(eng.ExportState()); err != nil {
		t.Fatal(err)
	}
	for _, r := range recs[cut : cut+100] {
		if _, err := eng.Push(r.u, r.w, r.adj, r.ew); err != nil {
			t.Fatal(err)
		}
		if err := lg.AppendNode(r.u, r.w, r.adj, r.ew); err != nil {
			t.Fatal(err)
		}
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}

	got, err := st.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	rec := got[0]
	if rec.Snapshot == nil {
		t.Fatal("no snapshot recovered")
	}

	// Restore + tail replay must land on the exact engine state, and
	// replay must deliver only the 100 post-snapshot records.
	eng2, err := oms.NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng2.RestoreState(*rec.Snapshot); err != nil {
		t.Fatal(err)
	}
	n := 0
	err = rec.Replay(func(u, w int32, adj, ew []int32, block int32) error {
		n++
		_, err := eng2.Push(u, w, adj, ew)
		return err
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Fatalf("replayed %d records, want the 100-record tail", n)
	}
	s1, s2 := eng.ExportState(), eng2.ExportState()
	if s1.EdgesSeen != s2.EdgesSeen || !equalI64(s1.Loads, s2.Loads) || !equalI32(s1.Parts, s2.Parts) {
		t.Fatal("restored + replayed state differs from the live engine")
	}
	rec.Log.Close()
}

func TestCorruptSnapshotIgnored(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	recs, cfg := testStream(t, 1000)

	eng, _ := oms.NewSession(cfg)
	lg, err := st.Create("s3-00000003", spec(cfg.Stats.N, cfg.Stats.M))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs[:500] {
		if _, err := eng.Push(r.u, r.w, r.adj, r.ew); err != nil {
			t.Fatal(err)
		}
		if err := lg.AppendNode(r.u, r.w, r.adj, r.ew); err != nil {
			t.Fatal(err)
		}
	}
	if err := lg.Snapshot(eng.ExportState()); err != nil {
		t.Fatal(err)
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	snapPath := filepath.Join(dir, sessionsDir, "s3-00000003", snapName)
	b, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xff
	if err := os.WriteFile(snapPath, b, 0o644); err != nil {
		t.Fatal(err)
	}

	got, err := st.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Snapshot != nil {
		t.Fatal("corrupt snapshot was not discarded")
	}
	n := 0
	if err := got[0].Replay(func(u, w int32, adj, ew []int32, block int32) error { n++; return nil }, nil); err != nil {
		t.Fatal(err)
	}
	if n != 500 {
		t.Fatalf("full replay delivered %d records, want 500", n)
	}
	got[0].Log.Close()
}

func TestIdleTailFsyncTimer(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{SyncInterval: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	slg, err := st.Create("s9-00000009", spec(10, 0))
	if err != nil {
		t.Fatal(err)
	}
	lg := slg.(*Log)
	// Burn the in-interval sync budget, then leave a dirty tail behind
	// a deferred-sync flush and go idle.
	if err := lg.AppendNode(0, 1, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := lg.Flush(); err != nil { // fsyncs (first sync was at open)
		t.Fatal(err)
	}
	if err := lg.AppendNode(1, 1, []int32{0}, nil); err != nil {
		t.Fatal(err)
	}
	if err := lg.Flush(); err != nil { // within the interval: sync deferred
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		lg.mu.Lock()
		dirty := lg.dirty
		lg.mu.Unlock()
		if !dirty {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("idle dirty tail never fsynced")
		}
		time.Sleep(10 * time.Millisecond)
	}
	lg.Close()
}

func TestPartialCreateLeavesNoGhostSession(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	// A session directory with a spec but no log models a create that
	// failed partway (Create cleans up after itself; this is the
	// defense if that cleanup itself died). Recovery must skip it with
	// an error, not resurrect an empty session.
	ghost := filepath.Join(dir, sessionsDir, "s8-00000008")
	if err := os.MkdirAll(ghost, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(ghost, specName), []byte(`{"id":"s8-00000008","spec":{"n":4,"m":3,"k":2}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := st.Recover()
	if err == nil {
		t.Fatal("recovery of a log-less session dir reported no error")
	}
	if len(got) != 0 {
		t.Fatalf("recovered %d ghost sessions, want 0", len(got))
	}
}

func TestRemoveGarbageCollects(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	lg, err := st.Create("s4-00000004", spec(10, 0))
	if err != nil {
		t.Fatal(err)
	}
	lg.Close()
	if err := st.Remove("s4-00000004"); err != nil {
		t.Fatal(err)
	}
	got, err := st.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("recovered %d sessions after remove, want 0", len(got))
	}
	if _, err := os.Stat(filepath.Join(dir, sessionsDir, "s4-00000004")); !os.IsNotExist(err) {
		t.Fatalf("session dir survives remove: %v", err)
	}
}

func TestSnapshotEncodingRoundTrip(t *testing.T) {
	st := oms.SessionState{
		EdgesSeen: 12345,
		Loads:     []int64{0, -3, 1 << 40, 7},
		Parts:     []int32{-1, 0, 5, -1, 3},
	}
	count, got, err := decodeSnapshot(append(append(append([]byte{}, snapMagic[:]...),
		crcBytes(encodeSnapshot(99, st))...), encodeSnapshot(99, st)...))
	if err != nil {
		t.Fatal(err)
	}
	if count != 99 || got.EdgesSeen != st.EdgesSeen || !equalI64(got.Loads, st.Loads) || !equalI32(got.Parts, st.Parts) {
		t.Fatalf("round trip: %d %+v", count, got)
	}
	// Any single-byte flip must be rejected.
	enc := append(append(append([]byte{}, snapMagic[:]...), crcBytes(encodeSnapshot(99, st))...), encodeSnapshot(99, st)...)
	for i := range enc {
		bad := bytes.Clone(enc)
		bad[i] ^= 0x01
		if _, _, err := decodeSnapshot(bad); err == nil {
			t.Fatalf("flip at byte %d accepted", i)
		}
	}
}

func crcBytes(body []byte) []byte {
	var out [4]byte
	binary.LittleEndian.PutUint32(out[:], crc32.ChecksumIEEE(body))
	return out[:]
}

func equalI32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalI64(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// batchOf converts push records to service nodes plus fake blocks.
func batchOf(recs []pushRec) ([]service.PushNode, []int32) {
	nodes := make([]service.PushNode, len(recs))
	blocks := make([]int32, len(recs))
	for i, r := range recs {
		nodes[i] = service.PushNode{U: r.u, W: r.w, Adj: r.adj, EW: r.ew}
		blocks[i] = r.u % 8
	}
	return nodes, blocks
}

// TestBatchFrameRoundTrip: a group-committed batch replays every node
// with its recorded block, interleaved correctly with per-node frames.
func TestBatchFrameRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	recs, _ := testStream(t, 600)

	lg, err := st.Create("s1-0000bbbb", spec(600, 0))
	if err != nil {
		t.Fatal(err)
	}
	// One per-node frame, then a batch frame, then another per-node
	// frame: replay must see all three in order with the right blocks.
	if err := lg.AppendNode(recs[0].u, recs[0].w, recs[0].adj, recs[0].ew); err != nil {
		t.Fatal(err)
	}
	nodes, blocks := batchOf(recs[1:400])
	if err := lg.AppendBatch(nodes, blocks); err != nil {
		t.Fatal(err)
	}
	if err := lg.AppendNode(recs[400].u, recs[400].w, recs[400].adj, recs[400].ew); err != nil {
		t.Fatal(err)
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}

	got, err := st.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("recovered %d sessions, want 1", len(got))
	}
	i := 0
	err = got[0].Replay(func(u, w int32, adj, ew []int32, block int32) error {
		want := recs[i]
		if u != want.u || w != want.w || !equalI32(adj, want.adj) {
			t.Fatalf("record %d: got (%d,%d,%v), want %+v", i, u, w, adj, want)
		}
		switch i {
		case 0, 400:
			if block != -1 {
				t.Fatalf("per-node record %d replayed with block %d, want -1", i, block)
			}
		default:
			if block != want.u%8 {
				t.Fatalf("batch record %d replayed block %d, want %d", i, block, want.u%8)
			}
		}
		i++
		return nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if i != 401 {
		t.Fatalf("replayed %d records, want 401", i)
	}
	got[0].Log.Close()
}

// TestTornBatchFrameDropsWholeGroup is the group-commit crash test: a
// crash mid-batch tears the single frame, and recovery must resurrect
// none of the batch — never a prefix of it — while keeping everything
// committed before the batch.
func TestTornBatchFrameDropsWholeGroup(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	recs, _ := testStream(t, 400)

	lg, err := st.Create("s1-0000cccc", spec(400, 0))
	if err != nil {
		t.Fatal(err)
	}
	// A durable prefix: one committed batch.
	nodes, blocks := batchOf(recs[:100])
	if err := lg.AppendBatch(nodes, blocks); err != nil {
		t.Fatal(err)
	}
	// A second batch that the crash will cut short.
	nodes2, blocks2 := batchOf(recs[100:300])
	if err := lg.AppendBatch(nodes2, blocks2); err != nil {
		t.Fatal(err)
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}

	logPath := filepath.Join(dir, sessionsDir, "s1-0000cccc", logName)
	full, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	// The durable prefix is the first frame: header + payload length.
	firstFrame := int64(wire.FrameHeaderSize) + int64(binary.LittleEndian.Uint32(full[0:]))
	if firstFrame <= 0 || firstFrame >= int64(len(full)) {
		t.Fatalf("unexpected frame layout: first frame %d of %d bytes", firstFrame, len(full))
	}

	// Tear the second batch's frame at representative points: just
	// after its header, mid-payload, and one byte short of complete.
	// Every cut must recover to exactly the first batch.
	for _, cutAt := range []int64{firstFrame + wire.FrameHeaderSize, (firstFrame + int64(len(full))) / 2, int64(len(full)) - 1} {
		if err := os.WriteFile(logPath, full[:cutAt], 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := st.Recover()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 {
			t.Fatalf("recovered %d sessions, want 1", len(got))
		}
		n := 0
		if err := got[0].Replay(func(u, w int32, adj, ew []int32, block int32) error { n++; return nil }, nil); err != nil {
			t.Fatal(err)
		}
		got[0].Log.Close()
		if n != 100 {
			t.Fatalf("cut at %d: replayed %d records, want exactly the 100 of the committed batch", cutAt, n)
		}
		// Recovery truncated the torn frame back to the durable prefix.
		fi, err := os.Stat(logPath)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() != firstFrame {
			t.Fatalf("cut at %d: log is %d bytes after recovery, want the durable prefix %d", cutAt, fi.Size(), firstFrame)
		}
	}
}

// TestOversizedBatchRejectedNotSplit: a batch that cannot fit one frame
// is an error — the group-commit guarantee forbids silently splitting
// it into independently-torn frames.
func TestOversizedBatchRejectedNotSplit(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	slog, err := st.Create("s1-0000dddd", spec(100, 0))
	if err != nil {
		t.Fatal(err)
	}
	lg := slog.(*Log)
	defer lg.Close()
	// 300 nodes sharing one 1M-entry adjacency slice: even at one byte
	// per varint delta the frame exceeds the bound, and the size
	// pre-check rejects it without encoding anything.
	bigAdj := make([]int32, 1<<20)
	nodes := make([]service.PushNode, 300)
	blocks := make([]int32, 300)
	for i := range nodes {
		nodes[i] = service.PushNode{U: int32(i), W: 1, Adj: bigAdj}
	}
	if err := lg.AppendBatch(nodes, blocks); err == nil {
		t.Fatal("oversized batch accepted")
	}
	if got := lg.Nodes(); got != 0 {
		t.Fatalf("rejected batch logged %d nodes", got)
	}
}

// TestScanEndsPrefixAtBadRecord: a frame whose CRC holds but whose
// record does not decode ends the valid prefix like a torn tail. That
// covers a batch failing at its second node (none of its nodes count)
// and the retired fixed-width node and batch records. A read fault is
// different: it is an error, never a prefix to truncate to.
func TestScanEndsPrefixAtBadRecord(t *testing.T) {
	head := wire.AppendFrame(nil, wire.AppendNodePayload(nil, 0, 1, []int32{1}, nil))
	badBatch := wire.AppendBatchHeader(nil, []int32{0, 1})
	badBatch = wire.AppendNodePayload(badBatch, 1, 1, []int32{0}, nil)
	badBatch = append(badBatch, wire.TypeNode, 0xff) // the second node is cut short
	for name, tail := range map[string][]byte{
		"batch-bad-second-node": badBatch,
		"v1-node":               {1, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0},
		"v1-batch":              {3, 0, 0, 0, 0},
	} {
		path := filepath.Join(t.TempDir(), logName)
		log := wire.AppendFrame(append([]byte(nil), head...), tail)
		log = wire.AppendFrame(log, []byte{recSeal})
		if err := os.WriteFile(path, log, 0o644); err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		nodes, sealed, validEnd, err := scanLog(f)
		f.Close()
		if err != nil || nodes != 1 || sealed || validEnd != int64(len(head)) {
			t.Fatalf("%s: scan = (%d nodes, sealed %v, end %d, %v), want (1, false, %d, nil)",
				name, nodes, sealed, validEnd, err, len(head))
		}
	}

	d, err := os.Open(t.TempDir()) // reading a directory fails with EISDIR
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, _, _, err := scanLog(d); err == nil {
		t.Fatal("scan swallowed a read fault as the end of the log")
	}
}
