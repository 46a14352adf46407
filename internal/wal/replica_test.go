package wal

import (
	"bytes"
	"encoding/binary"
	"io"
	"os"
	"slices"
	"testing"

	"oms"
	"oms/internal/wire"
)

// shipFrames feeds every frame of log to rl the way the replication
// stream handler does: read through a wire.Reader, then Append the
// payload and the verbatim frame bytes.
func shipFrames(t *testing.T, rl *ReplicaLog, log []byte) {
	t.Helper()
	rd := wire.NewReader(bytes.NewReader(log))
	for {
		rd.Arena.Reset()
		payload, frame, err := rd.NextFrame()
		if err == io.EOF {
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := rl.Append(payload, frame); err != nil {
			t.Fatal(err)
		}
	}
}

// replicaFileSize is the on-disk length of a replica's log.
func replicaFileSize(t *testing.T, st *Store, id string) int64 {
	t.Helper()
	fi, err := os.Stat(st.LogPath(id))
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestReplicaLogMirrorsOwnerLog: a follower that is shipped an owner's
// log frame by frame ends up with the identical file, rejects what is
// not a log record, resumes at a frame boundary after a torn append,
// and hands over a session that recovers sealed.
func TestReplicaLogMirrorsOwnerLog(t *testing.T) {
	const id = "s1-0000abab"
	owner := openStore(t, t.TempDir())
	recs, _ := testStream(t, 300)
	lg, err := owner.Create(id, spec(300, 0))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs[:100] {
		if err := lg.AppendNode(r.u, r.w, r.adj, r.ew); err != nil {
			t.Fatal(err)
		}
	}
	nodes, blocks := batchOf(recs[100:])
	if err := lg.AppendBatch(nodes, blocks); err != nil {
		t.Fatal(err)
	}
	if err := lg.AppendStats(oms.EstimatorState{SeenNodes: 300, SeenNodeWeight: 300, Revision: 1}); err != nil {
		t.Fatal(err)
	}
	if err := lg.Seal(); err != nil {
		t.Fatal(err)
	}
	lg.Close()
	ownerLog, err := os.ReadFile(owner.LogPath(id))
	if err != nil {
		t.Fatal(err)
	}
	specBytes, err := owner.ReadSpecBytes(id)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := openStore(t, t.TempDir()).OpenReplica("s1-0000baba", specBytes); err == nil {
		t.Fatal("replica accepted a spec naming another session")
	}
	replicas := openStore(t, t.TempDir())
	rl, err := replicas.OpenReplica(id, specBytes)
	if err != nil {
		t.Fatal(err)
	}

	// Ship the first 50 per-node frames.
	half := 0
	for i := 0; i < 50; i++ {
		half += wire.FrameHeaderSize + int(binary.LittleEndian.Uint32(ownerLog[half:]))
	}
	shipFrames(t, rl, ownerLog[:half])
	if rl.Offset() != int64(half) || rl.Sealed() {
		t.Fatalf("after 50 frames: offset %d sealed %v, want %d unsealed", rl.Offset(), rl.Sealed(), half)
	}

	// Frames that carry no log record — a retired fixed-width node
	// record, an assignment reply — are refused, and the file stays
	// exactly as it was.
	for _, payload := range [][]byte{
		{1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0},
		wire.AppendAssignPayload(nil, []int32{0}, []int32{1}),
	} {
		if err := rl.Append(payload, wire.AppendFrame(nil, payload)); err == nil {
			t.Fatalf("replica accepted a type-%d payload", payload[0])
		}
	}
	if rl.Offset() != int64(half) || replicaFileSize(t, replicas, id) != int64(half) {
		t.Fatalf("rejected frames moved the replica to offset %d, %d bytes; want %d",
			rl.Offset(), replicaFileSize(t, replicas, id), half)
	}

	// A follower crash mid-append leaves part of the next frame behind;
	// reopening cuts it back to the last whole frame.
	if err := rl.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(replicas.LogPath(id), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(ownerLog[half : half+5]); err != nil {
		t.Fatal(err)
	}
	f.Close()
	rl, err = replicas.OpenReplica(id, specBytes)
	if err != nil {
		t.Fatal(err)
	}
	if rl.Offset() != int64(half) || replicaFileSize(t, replicas, id) != int64(half) {
		t.Fatalf("reopened torn replica at offset %d, %d bytes; want the frame boundary %d",
			rl.Offset(), replicaFileSize(t, replicas, id), half)
	}

	// The owner resumes shipping at the replica's offset.
	shipFrames(t, rl, ownerLog[rl.Offset():])
	if err := rl.Sync(); err != nil {
		t.Fatal(err)
	}
	if rl.Offset() != int64(len(ownerLog)) || !rl.Sealed() {
		t.Fatalf("after the whole log: offset %d sealed %v, want %d sealed", rl.Offset(), rl.Sealed(), len(ownerLog))
	}
	seal := wire.AppendFrame(nil, []byte{recSeal})
	if err := rl.Append(seal[wire.FrameHeaderSize:], seal); err == nil {
		t.Fatal("sealed replica accepted another frame")
	}
	if err := rl.Close(); err != nil {
		t.Fatal(err)
	}
	replicaLog, err := os.ReadFile(replicas.LogPath(id))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(replicaLog, ownerLog) {
		t.Fatalf("replica log (%d bytes) differs from the owner's (%d bytes)", len(replicaLog), len(ownerLog))
	}

	// Promotion: move the replica into a live store and recover it.
	if ids, err := replicas.ReplicaIDs(); err != nil || !slices.Equal(ids, []string{id}) {
		t.Fatalf("ReplicaIDs = %v, %v; want [%s]", ids, err, id)
	}
	live := openStore(t, t.TempDir())
	if err := live.AdoptFrom(replicas, id); err != nil {
		t.Fatal(err)
	}
	rec, err := live.RecoverSession(id)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Log.Close()
	if !rec.Sealed || rec.ID != id {
		t.Fatalf("adopted session %q sealed %v, want %q sealed", rec.ID, rec.Sealed, id)
	}
	replayed := 0
	if err := rec.Replay(func(u, w int32, adj, ew []int32, block int32) error {
		replayed++
		return nil
	}, nil); err != nil {
		t.Fatal(err)
	}
	if replayed != len(recs) {
		t.Fatalf("adopted session replayed %d nodes, want %d", replayed, len(recs))
	}
}
