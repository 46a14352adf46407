// Package wal persists omsd push sessions: a per-session append-only
// record log plus periodic engine snapshots, so a crashed or redeployed
// daemon rebuilds every session and resumes unsealed streams at the
// exact next node.
//
// The design exploits the defining property of the paper's algorithm:
// OMS assigns each node irrevocably in one pass, deterministically for
// a fixed configuration, seed, and stream order. A session is therefore
// exactly a replayable log of (node, weight, adjacency) records —
// replaying the log through the engine reproduces every load counter
// and assignment bit-identically. Durability is then cheap:
//
//   - log.wal — length-prefixed binary frames, one per accepted push,
//     each protected by a CRC32. Appends are buffered; the service
//     flushes to the OS once per acknowledged chunk, and fsync is
//     batched on a configurable interval, so a process crash loses
//     nothing acknowledged and an OS crash loses at most the sync
//     window.
//   - snap — an atomically replaced checkpoint of the engine state
//     (tree loads + assignment vector, O(n + k) by Theorem 1) covering
//     a durable prefix of the log, so recovery replays only the tail.
//   - spec.json — the session's creation spec, fixing the replay
//     configuration.
//
// Recovery scans the log, truncates a torn tail at the first bad
// frame, loads the newest valid snapshot, and replays the uncovered
// suffix. Duplicate records are harmless: engine pushes are idempotent,
// so a record logged twice replays to the same state.
package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"sync"
	"time"

	"oms"
	"oms/internal/service"
	"oms/internal/wire"
)

// The log holds wire frames (length, CRC32, payload). Node and batch
// records are the wire package's own (wire.TypeNode, wire.TypeBatch),
// byte-identical to what the binary ingest API carries, so a validated
// request frame appends verbatim. Two record types belong to the WAL
// alone; types 1 and 3 were its retired fixed-width node and batch
// records and are never reused.
const (
	recSeal = 2 // the session finished; nothing follows
	// recStats is one stats-revision checkpoint of an adaptive (open-
	// ended) session: the estimator state in force after the preceding
	// records. Ratcheting is a deterministic function of the record
	// sequence, so replay would re-derive the same state anyway — the
	// frame pins it, resynchronizing recovery even if estimator
	// internals drift between binary versions, and making divergence a
	// loud recovery failure instead of silently different partitions.
	recStats = 4
)

// Log is one session's append-only record log, implementing the
// service's SessionLog. Appends buffer in memory; Flush writes through
// to the OS and batches fsync per the configured interval. A Log is
// driven by the single worker owning its session, with Close callable
// concurrently from the manager.
type Log struct {
	mu     sync.Mutex
	f      *os.File
	w      *bufio.Writer
	dir    string // session directory, owns snap + spec.json
	buf    []byte // frame scratch
	nodes  int64  // node records in the log
	sealed bool
	closed bool

	// size is the byte length of the log including records still in the
	// write buffer; flushed is the prefix written through to the OS. A
	// replication shipper reads [shippedOffset, Flushed()) off the log
	// file, so flushed must only ever advance to whole-frame boundaries —
	// which it does, because appends buffer whole frames and flushed is
	// updated only after a successful buffer flush.
	size    int64
	flushed int64

	syncEvery time.Duration
	dirty     bool // bytes possibly not yet fsynced
	lastSync  time.Time
	// obsAppend/obsFsync observe append and fsync latencies into the
	// daemon's histograms; nil when the store is not instrumented.
	obsAppend func(time.Duration)
	obsFsync  func(time.Duration)
	// syncTimer fsyncs a dirty tail the stream went idle on, so the
	// batched-sync exposure is bounded by wall clock, not by when the
	// next chunk happens to arrive.
	syncTimer *time.Timer
}

// AppendNode buffers one node record. The record reaches the OS at the
// next Flush and stable storage at the next batched fsync (or Seal /
// Snapshot / Close, which all force one).
func (l *Log) AppendNode(u, w int32, adj, ew []int32) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case l.closed:
		return fmt.Errorf("wal: append to closed log")
	case l.sealed:
		return fmt.Errorf("wal: append to sealed log")
	}
	t0 := time.Now()
	l.buf = wire.AppendNodePayload(l.buf[:0], u, w, adj, ew)
	if err := l.writeFrame(l.buf); err != nil {
		return err
	}
	l.observeAppend(t0)
	l.nodes++
	return nil
}

// AppendNodeFrame buffers one node record from its already-encoded wire
// frame, verbatim — the header and payload bytes the HTTP boundary
// validated are exactly the bytes the log holds. The caller vouches for
// the frame (service verifies the CRC and decodes the record before the
// engine accepts the push), so nothing is re-checked or re-encoded
// here: this is the zero-copy half of log-before-ack.
func (l *Log) AppendNodeFrame(frame []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case l.closed:
		return fmt.Errorf("wal: append to closed log")
	case l.sealed:
		return fmt.Errorf("wal: append to sealed log")
	}
	t0 := time.Now()
	if _, err := l.w.Write(frame); err != nil {
		return err
	}
	l.dirty = true
	l.size += int64(len(frame))
	l.observeAppend(t0)
	l.nodes++
	return nil
}

// observeAppend reports one append's encode+write latency to the
// store's hook; callers hold mu.
func (l *Log) observeAppend(t0 time.Time) {
	if l.obsAppend != nil {
		l.obsAppend(time.Since(t0))
	}
}

// syncFile fsyncs the log file, timing the stall; callers hold mu.
func (l *Log) syncFile() error {
	t0 := time.Now()
	err := l.f.Sync()
	if l.obsFsync != nil {
		l.obsFsync(time.Since(t0))
	}
	return err
}

// AppendBatch buffers one ingest batch as a group-committed frame: all
// nodes plus their assigned blocks under a single CRC, so recovery sees
// the batch all-or-nothing (a crash mid-write tears the one frame and
// drops the whole group — never a prefix). The recorded assignments
// make replay exact even though parallel batch assignment is racy.
//
// The all-or-nothing guarantee requires exactly one frame, so a batch
// whose encoding would exceed the recovery scan's frame bound is an
// error, never a silent split — the service turns that into a killed
// session rather than a batch that could resurrect partially. The HTTP
// layer cuts batches by bytes as well as count, so real ingest stays
// orders of magnitude below the bound.
func (l *Log) AppendBatch(nodes []service.PushNode, blocks []int32) error {
	if len(nodes) != len(blocks) {
		return fmt.Errorf("wal: batch of %d nodes with %d blocks", len(nodes), len(blocks))
	}
	if len(nodes) == 0 {
		return nil
	}
	// Cheap lower bound on the encoded size (varints are at least one
	// byte per field and per adjacency entry): a batch that cannot fit
	// the frame bound is rejected before encoding a quarter-gigabyte
	// payload just to measure it.
	minSize := int64(2) + int64(len(nodes))
	for i := range nodes {
		if f := nodes[i].Frame; f != nil {
			minSize += int64(len(f) - wire.FrameHeaderSize)
			continue
		}
		minSize += 4 + int64(len(nodes[i].Adj)) + int64(len(nodes[i].EW))
	}
	if minSize > wire.MaxFramePayload {
		return fmt.Errorf("wal: batch encodes to at least %d bytes, over the %d frame bound (split the batch)", minSize, wire.MaxFramePayload)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case l.closed:
		return fmt.Errorf("wal: append to closed log")
	case l.sealed:
		return fmt.Errorf("wal: append to sealed log")
	}
	t0 := time.Now()
	payload := wire.AppendBatchHeader(l.buf[:0], blocks)
	for i := range nodes {
		nd := nodes[i]
		if nd.Frame != nil {
			// The request's validated node payload, copied verbatim out
			// of its frame — the group record is the only new encoding.
			payload = append(payload, nd.Frame[wire.FrameHeaderSize:]...)
			continue
		}
		w := nd.W
		if w == 0 {
			w = 1
		}
		payload = wire.AppendNodePayload(payload, nd.U, w, nd.Adj, nd.EW)
	}
	l.buf = payload
	if len(payload) > wire.MaxFramePayload {
		return fmt.Errorf("wal: batch encodes to %d bytes, over the %d frame bound (split the batch)", len(payload), wire.MaxFramePayload)
	}
	if err := l.writeFrame(payload); err != nil {
		return err
	}
	l.observeAppend(t0)
	l.nodes += int64(len(nodes))
	return nil
}

// estimatorFieldsLen is the fixed encoded size of an estimator-state
// block: ten little-endian int64 fields. Stats frames and snapshots
// share the encoding through the two helpers below.
const estimatorFieldsLen = 10 * 8

// statsPayloadLen is the fixed encoded size of a stats frame payload.
const statsPayloadLen = 1 + estimatorFieldsLen

// appendEstimatorFields encodes the estimator state block.
func appendEstimatorFields(buf []byte, st oms.EstimatorState) []byte {
	for _, v := range []int64{
		st.SeenNodes, st.SeenNodeWeight, st.SeenAdj, st.SeenEdgeWeight,
		st.NextRatchet, st.Revision,
		int64(st.Est.N), st.Est.M, st.Est.TotalNodeWeight, st.Est.TotalEdgeWeight,
	} {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	return buf
}

// decodeEstimatorFields is the inverse of appendEstimatorFields over
// exactly estimatorFieldsLen bytes.
func decodeEstimatorFields(p []byte) (oms.EstimatorState, error) {
	if len(p) < estimatorFieldsLen {
		return oms.EstimatorState{}, wire.ErrMalformed
	}
	f := make([]int64, 10)
	for i := range f {
		f[i] = int64(binary.LittleEndian.Uint64(p[8*i:]))
	}
	st := oms.EstimatorState{
		SeenNodes: f[0], SeenNodeWeight: f[1], SeenAdj: f[2], SeenEdgeWeight: f[3],
		NextRatchet: f[4], Revision: f[5],
	}
	st.Est.N = int32(f[6])
	st.Est.M, st.Est.TotalNodeWeight, st.Est.TotalEdgeWeight = f[7], f[8], f[9]
	if st.SeenNodes < 0 || st.SeenNodeWeight < 0 || st.Revision < 0 || st.Est.N < 0 {
		return oms.EstimatorState{}, wire.ErrMalformed
	}
	return st, nil
}

// appendStatsPayload encodes one estimator-state record.
func appendStatsPayload(buf []byte, st oms.EstimatorState) []byte {
	return appendEstimatorFields(append(buf, recStats), st)
}

// decodeStatsPayload is the inverse of appendStatsPayload, minus the
// type byte already consumed by the caller.
func decodeStatsPayload(p []byte) (oms.EstimatorState, error) {
	if len(p) != statsPayloadLen-1 {
		return oms.EstimatorState{}, wire.ErrMalformed
	}
	return decodeEstimatorFields(p)
}

// AppendStats buffers one stats-revision record: the adaptive
// estimator state in force after every record appended so far. The
// service logs one whenever a chunk or batch advanced the revision.
func (l *Log) AppendStats(st oms.EstimatorState) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case l.closed:
		return fmt.Errorf("wal: append to closed log")
	case l.sealed:
		return fmt.Errorf("wal: append to sealed log")
	}
	l.buf = appendStatsPayload(l.buf[:0], st)
	return l.writeFrame(l.buf)
}

// writeFrame frames payload into the buffered writer; callers hold mu.
func (l *Log) writeFrame(payload []byte) error {
	var hdr [wire.FrameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
	if _, err := l.w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := l.w.Write(payload); err != nil {
		return err
	}
	l.dirty = true
	l.size += wire.FrameHeaderSize + int64(len(payload))
	return nil
}

// Flush writes buffered records through to the operating system and
// fsyncs if the batched sync interval has elapsed (always, when the
// interval is zero or negative).
func (l *Log) Flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("wal: flush of closed log")
	}
	return l.flushLocked(false)
}

// flushLocked empties the buffer and fsyncs when due or forced; when
// the fsync is deferred it arms the idle-tail timer instead.
func (l *Log) flushLocked(force bool) error {
	if err := l.w.Flush(); err != nil {
		return err
	}
	l.flushed = l.size
	if !l.dirty {
		return nil
	}
	now := time.Now()
	if force || l.syncEvery <= 0 || now.Sub(l.lastSync) >= l.syncEvery {
		if err := l.syncFile(); err != nil {
			return err
		}
		l.dirty = false
		l.lastSync = now
		if l.syncTimer != nil {
			l.syncTimer.Stop()
			l.syncTimer = nil
		}
		return nil
	}
	if l.syncTimer == nil {
		d := l.syncEvery - now.Sub(l.lastSync)
		if d < time.Millisecond {
			d = time.Millisecond
		}
		l.syncTimer = time.AfterFunc(d, l.timedSync)
	}
	return nil
}

// timedSync is the idle-tail fsync: without it, a stream that pauses
// right after a deferred-sync Flush would keep acknowledged records
// un-fsynced until the next chunk arrives, making the documented
// "-wal-sync window" unbounded in wall-clock time. Errors here are left
// for the next Flush/Seal/Close to surface.
func (l *Log) timedSync() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.syncTimer = nil
	if l.closed || !l.dirty {
		return
	}
	if err := l.w.Flush(); err != nil {
		return
	}
	l.flushed = l.size
	if err := l.syncFile(); err != nil {
		return
	}
	l.dirty = false
	l.lastSync = time.Now()
}

// Seal appends the terminal seal record and forces the whole log to
// stable storage; further appends fail.
func (l *Log) Seal() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case l.closed:
		return fmt.Errorf("wal: seal of closed log")
	case l.sealed:
		return nil
	}
	if err := l.writeFrame([]byte{recSeal}); err != nil {
		return err
	}
	if err := l.flushLocked(true); err != nil {
		return err
	}
	l.sealed = true
	return nil
}

// Close flushes, fsyncs, and releases the log, leaving its files in
// place (Store.Remove garbage-collects them). Close is idempotent.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.syncTimer != nil {
		l.syncTimer.Stop()
		l.syncTimer = nil
	}
	err := l.flushLocked(true)
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Sealed reports whether the log carries the terminal seal record.
func (l *Log) Sealed() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sealed
}

// Nodes returns the number of node records in the log.
func (l *Log) Nodes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nodes
}

// Flushed returns the byte length of the log prefix written through to
// the operating system. It advances only on whole-frame boundaries
// (appends buffer whole frames; Flush empties the buffer), so a reader
// streaming [offset, Flushed()) off the log file — the replication
// shipper — always ships complete frames.
func (l *Log) Flushed() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.flushed
}
