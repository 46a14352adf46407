package cluster

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"sync"

	"oms/internal/wal"
	"oms/internal/wire"
)

// replicaStream is one inbound replication stream's shared state. The
// handler goroutine appends, syncs and acks; a promotion closes the
// stream from outside. The mutex serializes the two — in particular no
// append or fsync can interleave with the promotion rename.
type replicaStream struct {
	mu     sync.Mutex
	rl     *wal.ReplicaLog
	closed bool
}

// closeLocked detaches the stream from its file. Idempotent.
func (rs *replicaStream) closeLocked() {
	if !rs.closed {
		rs.closed = true
		rs.rl.Close()
	}
}

// closeReplicaStream detaches the inbound stream for id, if any: after
// it returns, no handler goroutine will write another byte to that
// session's replica file — the promotion rename is safe.
func (n *Node) closeReplicaStream(id, why string) {
	n.mu.Lock()
	rs := n.repl[id]
	delete(n.repl, id)
	n.mu.Unlock()
	if rs == nil {
		return
	}
	rs.mu.Lock()
	rs.closeLocked()
	rs.mu.Unlock()
	n.cfg.Logf("cluster: replica stream %s closed (%s)", id, why)
}

// ServeHTTP is the /v1/replica/sessions/{id} surface, mounted through
// service.Config.Replica: POST is a replication stream from the
// session's owner, DELETE is GC propagation.
func (n *Node) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	switch r.Method {
	case http.MethodDelete:
		n.closeReplicaStream(id, "owner deleted the session")
		if err := n.cfg.Replicas.Remove(id); err != nil {
			replicaError(w, http.StatusInternalServerError, err.Error(), "internal")
			return
		}
		w.WriteHeader(http.StatusNoContent)
	case http.MethodPost:
		n.serveReplicaStream(w, r, id)
	default:
		replicaError(w, http.StatusMethodNotAllowed, "method not allowed", "bad_request")
	}
}

func replicaError(w http.ResponseWriter, status int, msg, code string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": msg, "code": code})
}

func (n *Node) serveReplicaStream(w http.ResponseWriter, r *http.Request, id string) {
	// A node that owns the session by its current ring cannot also
	// follow it: either the sender is working from a stale table, or
	// this node already promoted the session after the sender's supposed
	// death. Rejecting protects the promoted copy from a zombie owner.
	if n.OwnsID(id) {
		if n.replRejects != nil {
			n.replRejects.Inc()
		}
		replicaError(w, http.StatusConflict, "node "+n.cfg.Self+" owns session "+id+", cannot follow it", "wrong_node")
		return
	}

	rd := wire.NewReader(r.Body)
	payload, _, err := rd.NextFrame()
	if err != nil {
		replicaError(w, http.StatusBadRequest, "bad spec frame: "+err.Error(), "malformed_frame")
		return
	}
	if len(payload) < 1 || payload[0] != repSpec {
		replicaError(w, http.StatusBadRequest, "stream must open with a spec frame", "malformed_frame")
		return
	}
	rl, err := n.cfg.Replicas.OpenReplica(id, payload[1:])
	if err != nil {
		replicaError(w, http.StatusBadRequest, err.Error(), "bad_request")
		return
	}
	rs := &replicaStream{rl: rl}
	n.mu.Lock()
	if old := n.repl[id]; old != nil {
		// The owner reconnected before the old connection noticed; the
		// new stream supersedes it.
		old.mu.Lock()
		old.closeLocked()
		old.mu.Unlock()
	}
	n.repl[id] = rs
	n.mu.Unlock()
	defer func() {
		rs.mu.Lock()
		rs.closeLocked()
		rs.mu.Unlock()
		n.mu.Lock()
		if n.repl[id] == rs {
			delete(n.repl, id)
		}
		n.mu.Unlock()
	}()

	// Full duplex: the hello-ack (and every later ack) flows back while
	// the request body is still streaming in.
	rc := http.NewResponseController(w)
	if err := rc.EnableFullDuplex(); err != nil {
		replicaError(w, http.StatusInternalServerError, "full-duplex unsupported: "+err.Error(), "internal")
		return
	}
	w.Header().Set("Content-Type", wire.MediaType)
	w.WriteHeader(http.StatusOK)

	// sendCtl writes one control frame; callers hold the stream mutex.
	sendCtl := func(typ byte, off int64) error {
		if _, err := w.Write(ctlFrame(typ, off)); err != nil {
			return err
		}
		return rc.Flush()
	}

	rs.mu.Lock()
	lastAck := rl.Offset()
	err = sendCtl(repAck, lastAck)
	rs.mu.Unlock()
	if err != nil {
		return
	}

	for {
		payload, frame, err := rd.NextFrame()
		rs.mu.Lock()
		if rs.closed {
			rs.mu.Unlock()
			return
		}
		if err != nil {
			defer rs.mu.Unlock()
			if errors.Is(err, io.EOF) {
				// Clean end of stream: make the tail durable and ack it.
				if rl.Sync() == nil {
					sendCtl(repAck, rl.Offset())
				}
				return
			}
			// Torn or corrupt frame on the wire: whatever is on disk up
			// to Offset is intact — nack it so the owner resends from
			// there on a fresh connection.
			if n.nacks != nil {
				n.nacks.Inc()
			}
			rl.Sync()
			sendCtl(repNack, rl.Offset())
			n.cfg.Logf("cluster: replica %s: corrupt frame (%v), nacked at %d", id, err, rl.Offset())
			return
		}
		if err := rl.Append(payload, frame); err != nil {
			rl.Sync()
			sendCtl(repNack, rl.Offset())
			rs.mu.Unlock()
			n.cfg.Logf("cluster: replica %s: %v, nacked at %d", id, err, rl.Offset())
			return
		}
		// The frame is in the file; drop its bytes from the arena.
		rd.Arena.Reset()
		// Group commit: once no whole frame is left in the read-ahead,
		// the next frame must come from the stream, so make everything
		// appended so far durable and ack it. Frames the owner sends
		// during the fsync queue up and the next ack covers them; under a
		// backlog that is one fsync and ack per read.
		if off := rl.Offset(); !rd.FrameBuffered() && off > lastAck {
			if rl.Sync() != nil || sendCtl(repAck, off) != nil {
				rs.mu.Unlock()
				return
			}
			lastAck = off
		}
		rs.mu.Unlock()
	}
}
