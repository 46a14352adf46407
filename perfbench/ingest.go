package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"oms"
	"oms/client"
	"oms/internal/wal"
	"oms/internal/wire"
)

// ingestKind is one daemon workload's shape.
type ingestKind struct {
	binary  bool  // push binary frames (else NDJSON)
	push    int32 // nodes per push request
	cluster bool  // 2-node cluster with -repl-ack sync
	refine  bool  // refine, fetch best, restart and compare
	k       int32 // blocks per session
	nodes   int32 // nodes per client graph at scale 1
	graph   func(n int32, seed uint64) *oms.Graph
}

var (
	// A Delaunay mesh at k=64: per push, HTTP, frame decode, queueing
	// and the WAL dominate, while the engine walk is a small share.
	ingestBinary = ingestKind{binary: true, push: 1024, k: 64, nodes: 1 << 16,
		graph: func(n int32, seed uint64) *oms.Graph { return oms.GenDelaunay(n, seed) }}
	ingestReplicated = ingestKind{binary: true, cluster: true, push: 1024, k: 64, nodes: 1 << 16, graph: ingestBinary.graph}
	// A skewed-degree RMAT graph at k=4096 over the NDJSON shim, in
	// smaller pushes so a run carries enough of them for a p99.
	ndjsonRefine = ingestKind{refine: true, push: 256, k: 4096, nodes: 1 << 15,
		graph: func(n int32, seed uint64) *oms.Graph { return oms.GenRMATSocial(n, int64(n)*8, seed) }}
)

const (
	refinePasses = 2
	setupStarts  = 25 // daemon starts per run; setup_s is their median
	restarts     = 5  // restarts over the populated data dir; recover_s is their median
	// graphsPerClient is how many distinct graphs each client streams.
	graphsPerClient = 4
)

// input is one client's graph, pre-chunked, with its in-process
// reference partition (the same config as the session).
type input struct {
	g      *oms.Graph
	chunks [][]client.Node
	ref    []int32
	cut    int64 // edge cut of ref
	spec   client.Spec
	// bestCuts are the best refined cuts of this graph's sessions
	// (ndjson_refine); only the owning client's goroutine appends.
	bestCuts []int64
}

func makeInput(kind ingestKind, n int32, seed uint64) (*input, error) {
	g := kind.graph(n, seed)
	ref, err := oms.PartitionGraph(g, kind.k, oms.Options{})
	if err != nil {
		return nil, err
	}
	in := &input{g: g, ref: ref.Parts, cut: ref.EdgeCut(g), spec: client.Spec{
		N: g.NumNodes(), M: g.NumEdges(), TotalNodeWeight: g.TotalNodeWeight(),
		TotalEdgeWeight: g.TotalEdgeWeight(), K: kind.k,
	}}
	for lo := int32(0); lo < g.NumNodes(); lo += kind.push {
		var chunk []client.Node
		for u := lo; u < min(lo+kind.push, g.NumNodes()); u++ {
			chunk = append(chunk, client.Node{U: u, W: g.NodeWeight(u), Adj: g.Neighbors(u), EW: g.EdgeWeights(u)})
		}
		in.chunks = append(in.chunks, chunk)
	}
	return in, nil
}

// traceRef is one request sent with a sampled traceparent.
type traceRef struct {
	id, kind string
	client   time.Duration
}

// clientLog is what one closed-loop client measured.
type clientLog struct {
	pushes             []float64 // seconds per client.Push
	nodes              int64     // acknowledged nodes
	rates              []float64 // per session: nodes / (first push until last ack)
	creates, finishes  []float64
	refines            []float64 // refine submit until done
	results            []float64 // best-result fetch
	passes, improving  int
	walBytes, walNodes int64
	kept               string // ndjson_refine: the session left for the restart
	traces             []traceRef
}

// deployment is the omsd deployment under test.
type deployment struct {
	kind    ingestKind
	ds      []*daemon
	clients []*client.Client // one per load client
	results *client.Client   // binary result fetches
	rec     *recorder        // traced runs: request body recorder
	traced  bool
	spans   spanTotals
	// gauge maxima seen by the traced run's sampler
	backlog, heap, lag float64
}

// start brings up the deployment setupStarts times over fresh data dirs
// and keeps the last one running; it returns the median time from exec
// until ready (and, for the cluster, every member alive).
func startService(r *run, kind ingestKind) (*deployment, float64, error) {
	var times []float64
	var ds []*daemon
	for i := 0; i < setupStarts; i++ {
		if i > 0 {
			for _, d := range ds {
				d.stop()
				_ = os.RemoveAll(d.dataDir)
			}
		}
		members := 1
		if kind.cluster {
			members = 2
		}
		ds = ds[:0]
		var peers []string
		for m := 0; m < members; m++ {
			dir := filepath.Join(r.dir, fmt.Sprintf("data-%d-n%d", i, m+1))
			d, err := newDaemon(r.omsd, dir, filepath.Join(r.dir, fmt.Sprintf("omsd-n%d.log", m+1)))
			if err != nil {
				return nil, 0, err
			}
			ds = append(ds, d)
			peers = append(peers, fmt.Sprintf("n%d=%s", m+1, d.base))
		}
		if kind.cluster {
			for m, d := range ds {
				d.args = append(d.args, "-node-id", fmt.Sprintf("n%d", m+1),
					"-cluster-peers", strings.Join(peers, ","), "-repl-ack", "sync")
			}
		}
		t0 := time.Now()
		for _, d := range ds {
			if err := d.start(); err != nil {
				return nil, 0, err
			}
		}
		for _, d := range ds {
			if err := d.waitReady(60 * time.Second); err != nil {
				return nil, 0, err
			}
		}
		if kind.cluster {
			if err := waitClusterAlive(ds, 60*time.Second); err != nil {
				return nil, 0, err
			}
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return &deployment{kind: kind, ds: ds}, median(times), nil
}

// newClient builds one load client: its own connection pool, the
// workload's encoding, and cluster routing where the workload has it.
func (s *deployment) newClient(binary bool) *client.Client {
	var rt http.RoundTripper = &http.Transport{MaxIdleConnsPerHost: 4}
	if s.rec != nil {
		rt = &recordingTransport{next: rt, rec: s.rec}
	}
	opts := []client.Option{client.WithBinary(binary), client.WithHTTPClient(&http.Client{Transport: rt, Timeout: 60 * time.Second})}
	if s.kind.cluster {
		var urls []string
		for _, d := range s.ds {
			urls = append(urls, d.base)
		}
		opts = append(opts, client.WithCluster(urls...))
	}
	return client.New(s.ds[0].base, opts...)
}

// runIngest drives a daemon workload: closed-loop clients, each
// creating a session, pushing its graph, finishing and checking it,
// over and over until the run's time is up.
func runIngest(r *run, kind ingestKind) error {
	nClients := min(2, runtime.NumCPU()) // never more clients than cores
	n := max(int32(float64(kind.nodes)*r.scale), 2*kind.push, kind.k)
	// Each client cycles through its own graphs, so cut_frac averages
	// over clients*graphsPerClient inputs rather than hinging on one.
	ins := make([][]*input, nClients)
	for c := range ins {
		for g := 0; g < graphsPerClient; g++ {
			in, err := makeInput(kind, n, r.seed<<8|uint64(c<<4|g))
			if err != nil {
				return err
			}
			ins[c] = append(ins[c], in)
		}
	}
	runtime.GC()

	svc, setup, err := startService(r, kind)
	if err != nil {
		return err
	}
	svc.traced = r.traced
	svc.spans.stage = map[string]float64{}
	if r.traced {
		svc.rec = &recorder{}
	}
	for range ins {
		svc.clients = append(svc.clients, svc.newClient(kind.binary))
	}
	svc.results = svc.newClient(true)

	stopSampler := func() {}
	if r.traced {
		stopSampler = svc.sample()
	}
	logs := make([]*clientLog, nClients)
	var wg sync.WaitGroup
	deadline := time.Now().Add(r.seconds)
	for c := range ins {
		logs[c] = &clientLog{}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i == 0 || time.Now().Before(deadline); i++ {
				if !svc.session(r, svc.clients[c], ins[c][i%graphsPerClient], logs[c]) {
					break
				}
			}
		}(c)
	}
	wg.Wait()
	stopSampler()

	// End-to-end numbers from the load phase.
	var pushes, creates, finishes, refines, results []float64
	var nodes, walBytes, walNodes int64
	var rate float64
	var cutSum, mSum float64
	var bestSum, refinedCut, refinedM float64 // over the graphs that were refined
	var passes, improving int
	for c, lg := range logs {
		pushes = append(pushes, lg.pushes...)
		creates = append(creates, lg.creates...)
		finishes = append(finishes, lg.finishes...)
		refines = append(refines, lg.refines...)
		results = append(results, lg.results...)
		nodes += lg.nodes
		walBytes += lg.walBytes
		walNodes += lg.walNodes
		passes += lg.passes
		improving += lg.improving
		rate += median(lg.rates)
		for _, in := range ins[c] {
			cutSum += float64(in.cut)
			mSum += float64(in.g.TotalEdgeWeight())
			if len(in.bestCuts) > 0 {
				refinedCut += float64(in.cut)
				refinedM += float64(in.g.TotalEdgeWeight())
				bestSum += median(floats(in.bestCuts))
			}
		}
	}
	r.set("setup_s", setup, "s")
	// The clients push concurrently, so the service's ingest rate is the
	// sum of their rates; each client's is the median over its sessions,
	// which keeps a short stall on a shared host from moving the run.
	r.set("nodes_per_s", rate, "nodes/s")
	r.set("cut_frac", cutSum/mSum, "ratio")
	r.set("push_p50_ms", percentile(pushes, 0.50)*1e3, "ms")
	r.set("push_p99_ms", percentile(pushes, 0.99)*1e3, "ms")
	r.note("%d clients, n=%d per graph, k=%d, %s; %d pushes of %d nodes (p99 has %d samples beyond it)",
		nClients, n, kind.k, map[bool]string{true: "binary frames", false: "NDJSON"}[kind.binary],
		len(pushes), kind.push, beyond(len(pushes), 0.99))
	for c, lg := range logs {
		r.note("client %d: %d sessions, session push rate quartiles %.0f / %.0f / %.0f nodes/s", c, len(lg.rates),
			percentile(lg.rates, 0.25), percentile(lg.rates, 0.5), percentile(lg.rates, 0.75))
	}

	finals := make([]scrape, len(svc.ds))
	var rss float64
	for i, d := range svc.ds {
		sc, err := d.scrape()
		r.op(err)
		finals[i] = sc
		rss += d.peakRSSMiB()
	}
	r.set("peak_rss_mb", rss, "MiB")

	if kind.refine {
		r.set("refine_nodes_per_s", float64(len(refines))*float64(n)*refinePasses/sum(refines), "nodes/s")
		r.set("refined_cut_frac", ratio(bestSum, refinedM), "ratio")
		r.set("result_s", median(results), "s")
		rec, err := svc.restartAndCompare(r, logs)
		if err != nil {
			return err
		}
		r.set("recover_s", rec, "s")
		r.note("result_s is the median time of one session's best-result fetch (%d fetches); recover_s the median of %d restarts",
			len(results), restarts)
	}

	if r.traced {
		r.layer("client.push_count", float64(len(pushes)))
		r.layer("client.push_s", sum(pushes))
		r.layer("service.create_ms", median(creates)*1e3)
		r.layer("service.finish_ms", median(finishes)*1e3)
		r.layer("wal.bytes_per_node", ratio(float64(walBytes), float64(walNodes)))
		r.layer("refine.pass_count", float64(passes))
		r.layer("refine.improving_pass_frac", ratio(float64(improving), float64(passes)))
		if kind.refine {
			r.layer("refine.cut_delta_frac", ratio(refinedCut-bestSum, refinedCut))
		}
		svc.layerMetrics(r, finals, nodes, len(pushes))
		if kind.refine {
			if err := walReadSide(r, svc.ds[0].dataDir, logs); err != nil {
				return err
			}
		}
	}
	return nil
}

// session runs one full session lifecycle for one client and records
// it; false means the run cannot continue (the daemon is gone).
func (s *deployment) session(r *run, cl *client.Client, in *input, lg *clientLog) bool {
	ctx := context.Background()
	// traced returns the context for one request: with a fresh sampled
	// traceparent in traced runs, recorded under kind.
	traced := func(kind string) (context.Context, func()) {
		if !s.traced {
			return ctx, func() {}
		}
		hdr, id := client.NewTraceparent(true)
		t0 := time.Now()
		return client.ContextWithTraceparent(ctx, hdr), func() {
			lg.traces = append(lg.traces, traceRef{id: id, kind: kind, client: time.Since(t0)})
		}
	}

	if lg.kept != "" { // ndjson_refine keeps only the newest session
		r.op(cl.Delete(ctx, lg.kept))
		lg.kept = ""
	}
	cctx, done := traced("create")
	t0 := time.Now()
	created, err := cl.Create(cctx, in.spec)
	lg.creates = append(lg.creates, time.Since(t0).Seconds())
	done()
	r.op(err)
	if err != nil {
		return s.alive()
	}
	id := created.ID

	var firstPush, lastAck time.Time
	parts := make([]int32, in.g.NumNodes())
	for i := range parts {
		parts[i] = -1
	}
	for _, chunk := range in.chunks {
		pctx, done := traced("push")
		t0 := time.Now()
		as, err := cl.Push(pctx, id, chunk)
		t1 := time.Now()
		done()
		r.op(err)
		if err != nil {
			r.op(cl.Delete(ctx, id))
			return s.alive()
		}
		lg.pushes = append(lg.pushes, t1.Sub(t0).Seconds())
		if firstPush.IsZero() {
			firstPush = t0
		}
		lastAck = t1
		lg.nodes += int64(len(as))
		ok := len(as) == len(chunk)
		for i, a := range as {
			if !ok || a.U != chunk[i].U || a.B < 0 || a.B >= created.K || parts[a.U] != -1 {
				ok = false
				break
			}
			parts[a.U] = a.B
		}
		r.check(ok, "session %s: push of %d nodes got %d assignments, or one outside [0,%d) or repeated", id, len(chunk), len(as), created.K)
	}
	lg.rates = append(lg.rates, float64(in.g.NumNodes())/lastAck.Sub(firstPush).Seconds())

	fctx, done := traced("finish")
	t0 = time.Now()
	fin, err := cl.Finish(fctx, id)
	lg.finishes = append(lg.finishes, time.Since(t0).Seconds())
	done()
	r.op(err)
	if err != nil {
		return s.alive()
	}
	r.check(fin.Assigned == in.g.NumNodes(), "session %s: %d of %d nodes assigned", id, fin.Assigned, in.g.NumNodes())
	r.check(slices.Equal(parts, in.ref), "session %s: assignment differs from the in-process PartitionGraph reference", id)
	checkBalance(r, in.g, parts, created.K, created.Lmax, "session "+id)
	if st, err := s.logSize(id); err == nil {
		lg.walBytes += st
		lg.walNodes += int64(in.g.NumNodes())
	}

	if !s.kind.refine {
		res, err := cl.Result(ctx, id, "")
		r.op(err)
		if err == nil {
			r.check(slices.Equal(res.Parts, in.ref), "session %s: fetched result differs from the reference", id)
		}
		r.op(cl.Delete(ctx, id))
	} else {
		s.refineSession(r, cl, in, lg, id, created.Lmax, traced)
		lg.kept = id
	}
	if s.traced {
		s.collect(lg)
	}
	return true
}

// refineSession refines a finished session, waits for the job, fetches
// the best version in binary and checks it.
func (s *deployment) refineSession(r *run, cl *client.Client, in *input, lg *clientLog, id string, lmax int64,
	traced func(string) (context.Context, func())) {
	ctx := context.Background()
	rctx, done := traced("refine")
	t0 := time.Now()
	err := cl.Refine(rctx, id, refinePasses, 0)
	r.op(err)
	if err != nil {
		done()
		return
	}
	var info struct {
		State      string `json:"state"`
		Error      string `json:"error"`
		OnePassCut *int64 `json:"one_pass_edge_cut"`
		Versions   []struct {
			Pass    int32 `json:"pass"`
			EdgeCut int64 `json:"edge_cut"`
		} `json:"versions"`
	}
	for {
		err := getJSON(ctx, s.ds[0].base+"/v1/sessions/"+id+"/refine", &info)
		if err != nil || info.State == "done" || info.State == "failed" || info.State == "canceled" || time.Since(t0) > time.Minute {
			break
		}
		time.Sleep(time.Millisecond)
	}
	lg.refines = append(lg.refines, time.Since(t0).Seconds())
	done()
	r.check(info.State == "done", "session %s: refine ended %q %s", id, info.State, info.Error)
	prev := in.cut
	if info.OnePassCut != nil {
		prev = *info.OnePassCut
	}
	for _, v := range info.Versions {
		if v.Pass == 0 {
			continue
		}
		lg.passes++
		if v.EdgeCut < prev {
			lg.improving++
		}
		prev = min(prev, v.EdgeCut)
	}

	t1 := time.Now()
	best, err := s.results.Result(ctx, id, "best")
	lg.results = append(lg.results, time.Since(t1).Seconds())
	r.op(err)
	if err != nil {
		return
	}
	checkBalance(r, in.g, best.Parts, s.kind.k, lmax, "best version of "+id)
	cut := (&oms.Result{Parts: best.Parts, K: s.kind.k}).EdgeCut(in.g)
	r.check(best.EdgeCut != nil && *best.EdgeCut == cut, "session %s: best version reports a cut that is not its own", id)
	r.check(cut <= in.cut, "session %s: best refined cut %d > one-pass cut %d", id, cut, in.cut)
	in.bestCuts = append(in.bestCuts, cut)
}

// restartAndCompare restarts omsd over its populated data dir several
// times, fetching every kept session's best result in binary before
// and after each restart: the bytes must not change.
func (s *deployment) restartAndCompare(r *run, logs []*clientLog) (float64, error) {
	d := s.ds[0]
	before := map[string][]byte{}
	for _, lg := range logs {
		if lg.kept == "" {
			continue
		}
		b, err := rawResult(d.base, lg.kept)
		r.op(err)
		before[lg.kept] = b
	}
	var times []float64
	for i := 0; i < restarts; i++ {
		d.stop()
		t, err := d.startReady()
		if err != nil {
			return 0, fmt.Errorf("restart omsd: %w", err)
		}
		times = append(times, t.Seconds())
		for id, want := range before {
			got, err := rawResult(d.base, id)
			r.op(err)
			r.check(err == nil && len(want) > 0 && bytes.Equal(got, want), "session %s: best result changed across restart %d", id, i+1)
		}
	}
	return median(times), nil
}

// rawResult fetches a session's best result as its binary body bytes.
func rawResult(base, id string) ([]byte, error) {
	req, err := http.NewRequest(http.MethodGet, base+"/v1/sessions/"+id+"/result?version=best", nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept", wire.MediaType)
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("result %s: %s", id, resp.Status)
	}
	return b, err
}

// checkBalance verifies one block in [0,k) per node and every block
// weight at most lmax.
func checkBalance(r *run, g *oms.Graph, parts []int32, k int32, lmax int64, what string) {
	if len(parts) != int(g.NumNodes()) {
		r.check(false, "%s: %d parts for %d nodes", what, len(parts), g.NumNodes())
		return
	}
	w := make([]int64, k)
	for u, b := range parts {
		if b < 0 || b >= k {
			r.check(false, "%s: node %d in block %d outside [0,%d)", what, u, b, k)
			return
		}
		w[b] += int64(g.NodeWeight(int32(u)))
	}
	r.check(slices.Max(w) <= lmax, "%s: block weight %d > Lmax %d", what, slices.Max(w), lmax)
}

// logSize is the size of a session's WAL on whichever member holds it.
func (s *deployment) logSize(id string) (int64, error) {
	var err error
	for _, d := range s.ds {
		var st *wal.Store
		if st, err = wal.Open(d.dataDir, wal.Options{}); err != nil {
			continue
		}
		var fi os.FileInfo
		if fi, err = os.Stat(st.LogPath(id)); err == nil {
			return fi.Size(), nil
		}
	}
	return 0, err
}

// alive reports whether every daemon process is still running.
func (s *deployment) alive() bool {
	for _, d := range s.ds {
		select {
		case <-d.done:
			return false
		default:
		}
	}
	return true
}
