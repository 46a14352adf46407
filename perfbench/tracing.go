package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"oms/internal/service"
	"oms/internal/wal"
	"oms/internal/wire"
)

// recorder keeps what the traced run's clients put on and took off the
// wire for push requests: byte counts, and the first request bodies
// for replaying through the wire decoder.
type recorder struct {
	mu       sync.Mutex
	reqBytes int64
	repBytes int64
	bodies   [][]byte
	binary   bool
}

const keepBodies = 256

// recordingTransport is the traced run's client transport: it counts
// push request and reply bytes and keeps a sample of request bodies.
type recordingTransport struct {
	next http.RoundTripper
	rec  *recorder
}

func (t *recordingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !strings.HasSuffix(req.URL.Path, "/nodes") || req.GetBody == nil {
		return t.next.RoundTrip(req)
	}
	t.rec.mu.Lock()
	t.rec.reqBytes += req.ContentLength
	t.rec.binary = req.Header.Get("Content-Type") == wire.MediaType
	if len(t.rec.bodies) < keepBodies {
		if body, err := req.GetBody(); err == nil {
			if b, err := io.ReadAll(body); err == nil {
				t.rec.bodies = append(t.rec.bodies, b)
			}
		}
	}
	t.rec.mu.Unlock()
	resp, err := t.next.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, rec: t.rec}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	rec *recorder
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.rec.mu.Lock()
	b.rec.repBytes += int64(n)
	b.rec.mu.Unlock()
	return n, err
}

// decodeNsPerNode replays the recorded push bodies through the decoder
// the server runs at its ingest boundary: wire.Reader.NextNode for
// binary frames; for NDJSON, the shim's work of decoding each line into
// a service.PushNode and re-encoding it as its canonical frame.
func (rec *recorder) decodeNsPerNode() float64 {
	if len(rec.bodies) == 0 {
		return 0
	}
	var nodes int64
	var busy time.Duration
	var frame []byte
	for busy < 200*time.Millisecond {
		t0 := time.Now()
		for _, body := range rec.bodies {
			if rec.binary {
				rd := wire.NewReader(bytes.NewReader(body))
				for {
					if _, _, err := rd.NextNode(); err != nil {
						break
					}
					rd.Arena.Reset()
					nodes++
				}
				continue
			}
			sc := bufio.NewScanner(bytes.NewReader(body))
			sc.Buffer(make([]byte, 64<<10), 16<<20)
			for sc.Scan() {
				var nd service.PushNode
				if json.Unmarshal(sc.Bytes(), &nd) != nil {
					break
				}
				frame = wire.AppendNodeFrame(frame[:0], nd.U, max(nd.W, 1), nd.Adj, nd.EW)
				nodes++
			}
		}
		busy += time.Since(t0)
	}
	return float64(busy.Nanoseconds()) / float64(nodes)
}

// spanDoc is the subset of a GET /v1/traces/{id} document we read.
type spanDoc struct {
	Spans []struct {
		Name   string    `json:"name"`
		ID     string    `json:"span_id"`
		Parent string    `json:"parent_id"`
		Start  time.Time `json:"start"`
		Dur    int64     `json:"dur_ns"`
	} `json:"spans"`
}

// spanTotals accumulates the traced run's span tree: each push's client
// span with the server's http span as its child and the server's stage
// spans as the http span's children; each refine's job span with its
// pass spans.
type spanTotals struct {
	mu                    sync.Mutex
	client, http, covered float64
	stage                 map[string]float64
	queueWaits            []float64
	refine, refinePass    float64
	lost, fetched         int
}

// collect fetches the span trees of a client's not yet collected
// requests. It runs between sessions, so at most one session's
// requests per client are in flight in omsd's trace ring; a trace
// missing from every member counts as lost to ring overflow.
func (s *deployment) collect(lg *clientLog) {
	refs := lg.traces
	lg.traces = nil
	for _, ref := range refs {
		doc, ok := s.fetchTrace(ref.id, ref.kind == "refine")
		tt := &s.spans
		tt.mu.Lock()
		if !ok {
			tt.lost++
			tt.mu.Unlock()
			continue
		}
		tt.fetched++
		switch ref.kind {
		case "push":
			root := doc.Spans[0]
			parent := interval{root.Start, root.Start.Add(time.Duration(root.Dur))}
			var kids []interval
			for _, sp := range doc.Spans[1:] {
				if sp.Parent != root.ID {
					continue
				}
				kids = append(kids, interval{sp.Start, sp.Start.Add(time.Duration(sp.Dur))})
				tt.stage[sp.Name] += float64(sp.Dur) / 1e9
				if sp.Name == "queue" {
					tt.queueWaits = append(tt.queueWaits, float64(sp.Dur)/1e9)
				}
			}
			tt.client += ref.client.Seconds()
			tt.http += float64(root.Dur) / 1e9
			tt.covered += covered(parent, kids).Seconds()
		case "refine":
			for _, sp := range doc.Spans {
				if sp.Name != "refine" {
					continue
				}
				job := interval{sp.Start, sp.Start.Add(time.Duration(sp.Dur))}
				var passes []interval
				for _, p := range doc.Spans {
					if p.Name == "refine.pass" && p.Parent == sp.ID {
						passes = append(passes, interval{p.Start, p.Start.Add(time.Duration(p.Dur))})
						tt.refinePass += float64(p.Dur) / 1e9
					}
				}
				tt.refine += (time.Duration(sp.Dur) - covered(job, passes)).Seconds()
			}
		}
		tt.mu.Unlock()
	}
}

// fetchTrace finds a trace on whichever member recorded it. A refine
// trace is complete once its job span has been published; give the
// job's record a moment to land.
func (s *deployment) fetchTrace(id string, refine bool) (spanDoc, bool) {
	for attempt := 0; attempt < 50; attempt++ {
		for _, d := range s.ds {
			var doc spanDoc
			if err := getJSON(context.Background(), d.base+"/v1/traces/"+id, &doc); err != nil || len(doc.Spans) == 0 {
				continue
			}
			if !refine {
				return doc, true
			}
			for _, sp := range doc.Spans {
				if sp.Name == "refine" {
					return doc, true
				}
			}
		}
		if !refine {
			return spanDoc{}, false
		}
		time.Sleep(10 * time.Millisecond)
	}
	return spanDoc{}, false
}

// sample polls every member's gauges during the traced run and keeps
// their maxima; the returned function stops it and waits.
func (s *deployment) sample() func() {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			var backlog, heap, lag float64
			for _, d := range s.ds {
				sc, err := d.scrape()
				if err != nil {
					continue
				}
				backlog += sc.value("omsd_queue_backlog")
				heap += sc.value("omsd_heap_alloc_bytes")
				lag += sc.value("oms_repl_lag_bytes")
			}
			s.backlog, s.heap, s.lag = max(s.backlog, backlog), max(s.heap, heap), max(s.lag, lag)
			select {
			case <-done:
				return
			case <-t.C:
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// layerMetrics fills the per-layer numbers of a traced daemon run from
// the span totals, the recorded wire bodies and the members' final
// /metrics scrapes (each member started fresh, so totals are deltas).
func (s *deployment) layerMetrics(r *run, finals []scrape, nodes int64, pushes int) {
	tt := &s.spans
	total := func(name string) float64 {
		var v float64
		for _, sc := range finals {
			v += sc.value(name)
		}
		return v
	}
	var fsyncCount, fsyncSum float64
	var fsyncP99 float64
	for _, sc := range finals {
		if h := sc.hist(service.WALFsyncHistogram); h != nil {
			fsyncCount += float64(h.Count)
			fsyncSum += h.Sum
			fsyncP99 = max(fsyncP99, h.Quantile(0.99))
		}
	}
	var appendCount float64
	for _, sc := range finals {
		if h := sc.hist(service.WALAppendHistogram); h != nil {
			appendCount += float64(h.Count)
		}
	}
	fn := float64(nodes)

	r.layer("core.assign_s", tt.stage["assign"])
	r.layer("core.ns_per_node", tt.stage["assign"]*1e9/fn)
	r.layer("core.assign_share", ratio(tt.stage["assign"], tt.http))
	r.layer("wire.request_bytes_per_node", float64(s.rec.reqBytes)/fn)
	r.layer("wire.reply_bytes_per_node", float64(s.rec.repBytes)/fn)
	r.layer("wire.decode_ns_per_node", s.rec.decodeNsPerNode())
	r.layer("client.outside_server_s", tt.client-tt.http)
	r.layer("service.http_self_s", tt.http-tt.covered)
	r.layer("service.span_coverage", ratio(tt.covered, tt.http))
	r.layer("service.queue_wait_s", tt.stage["queue"])
	r.layer("service.queue_wait_p99_ms", percentile(tt.queueWaits, 0.99)*1e3)
	r.layer("service.backlog_max", s.backlog)
	r.layer("service.backpressure_frac", ratio(total("omsd_backpressure_waits_total"), total("omsd_chunks_ingested_total")))
	r.layer("wal.append_s", tt.stage["wal.append"])
	r.layer("wal.append_count", appendCount)
	r.layer("wal.fsync_s", fsyncSum)
	r.layer("wal.flush_s", tt.stage["wal.fsync"])
	r.layer("wal.fsync_count", fsyncCount)
	r.layer("wal.fsync_p99_ms", fsyncP99*1e3)
	r.layer("wal.fsyncs_per_push", ratio(fsyncCount, float64(pushes)))
	r.layer("wal.checkpoint_s", tt.stage["checkpoint"])
	r.layer("wal.checkpoint_count", total("omsd_wal_snapshots_total"))
	r.layer("refine.wait_s", tt.refine)
	r.layer("refine.pass_s", tt.refinePass)
	acks, nacks, degraded := total("oms_repl_acks_total"), total("oms_repl_nacks_total"), total("oms_repl_sync_degraded_total")
	r.layer("cluster.ship_bytes_per_node", total("oms_repl_ship_bytes_total")/fn)
	r.layer("cluster.ack_frac", ratio(acks, acks+nacks))
	r.layer("cluster.sync_degraded_frac", ratio(degraded, acks+degraded))
	r.layer("cluster.lag_bytes_max", s.lag)
	r.layer("runtime.gc_pause_s", total("omsd_gc_pause_total_ns")/1e9)
	r.layer("runtime.heap_peak_mb", s.heap/(1<<20))
	r.layer("trace.lost_count", float64(tt.lost))
	r.check(tt.lost == 0, "%d of %d traces lost to trace ring overflow", tt.lost, tt.lost+tt.fetched)
	r.note("span coverage %.1f%%: stage spans (queue, assign, wal.append, wal.fsync, checkpoint) cover that share of the server http span; the rest (service.http_self_s) is body read, decode/transcode, validation and reply encoding",
		100*ratio(tt.covered, tt.http))
	r.note("omsd's wal.fsync span wraps the whole log Flush (wal.flush_s %.3fs); the fsync histogram alone (wal.fsync_s) holds %.3fs", tt.stage["wal.fsync"], fsyncSum)
	if s.kind.cluster {
		r.note("the sync replication ack wait has no span of its own: it sits inside the wal.fsync (Flush) span, not in service.http_self_s")
		r.note("repl.write spans are not measured: omsd records them only in head-sampled ship traces, and -trace-sample 0 turns those off")
	}
}

// walReadSide measures the WAL read paths on a copy of the stopped
// daemon's data dir: wal.Open plus Store.Recover, and a sealed log's
// replay through Store.ReplaySource.
func walReadSide(r *run, dataDir string, logs []*clientLog) error {
	stopAll()
	cp := filepath.Join(r.dir, "data-copy")
	if err := copyDir(dataDir, cp); err != nil {
		return err
	}
	t0 := time.Now()
	st, err := wal.Open(cp, wal.Options{})
	if err == nil {
		_, err = st.Recover()
	}
	r.layer("wal.recover_s", time.Since(t0).Seconds())
	r.op(err)
	if err != nil {
		return nil
	}
	var nodes int64
	var busy time.Duration
	for _, lg := range logs {
		if lg.kept == "" {
			continue
		}
		src, err := st.ReplaySource(lg.kept)
		r.op(err)
		if err != nil {
			continue
		}
		t0 := time.Now()
		err = src.ForEach(func(u, w int32, adj, ew []int32) { nodes++ })
		busy += time.Since(t0)
		r.op(err)
	}
	r.layer("wal.replay_nodes_per_s", ratio(float64(nodes), busy.Seconds()))
	return nil
}

func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !info.Mode().IsRegular() {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
}
