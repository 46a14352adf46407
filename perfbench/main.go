// Command perfbench is the repository's benchmark: one command that
// runs a named workload from a seed, checks the outputs, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer breakdown) as
// one JSON line. BENCHMARK.json at the repository root names the
// workloads and metrics; run.py builds omsd and this program from
// source and runs it:
//
//	python3 perfbench/run.py --workload map_inproc --seed 1 --seconds 10 --trace 0
//
// Workloads:
//
//   - map_inproc: library oms.Map of an RMAT social graph read from a
//     METIS file onto S=4:16:64, D=1:10:100 (k=4096), sequentially and
//     with Threads=nproc. Only the engine (core) and graphio work.
//   - ingest_binary: 2 closed-loop clients stream Delaunay meshes in
//     1024-node binary frames into their own k=64 sessions of one
//     WAL-backed omsd: the WAL write side of ingest.
//   - ndjson_refine: 2 clients stream RMAT graphs (k=4096) over NDJSON,
//     refine each session with 2 restream passes, fetch the best
//     results in binary; omsd is then restarted over the same data dir
//     and the results are fetched again and compared byte for byte.
//   - ingest_replicated: the ingest_binary inputs sent to a 2-node
//     cluster with -repl-ack sync, routed by client.WithCluster.
//
// Every workload runs the correctness checks inside the command; each
// failed request or check counts in "failed". With -trace 1 the
// workload runs twice, untraced then traced: the traced run injects a
// sampled traceparent on every request, records the benchmark's own
// spans around each call into a layer, attaches omsd's stage spans
// fetched from /v1/traces/{id}, and scrapes /metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// metric is one named number as the result line carries it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// declared is the metric list of BENCHMARK.json, the one source of
// metric names and units: the result line carries exactly its
// end_to_end metrics with -trace 0 and its per_layer metrics with
// -trace 1. Every workload measures every end-to-end metric; a layer a
// workload does not use reads 0.
type declared struct {
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// run is one measured execution of a workload: its settings, the
// failure ledger, and the metrics it produced.
type run struct {
	workload string
	seed     uint64
	seconds  time.Duration
	scale    float64
	traced   bool
	omsd     string
	dir      string // private scratch directory, removed by the caller

	attempted, failed atomic.Int64
	mu                sync.Mutex
	failures          []string

	e2e    map[string]metric // every end-to-end number the workload defines
	layers map[string]float64
	notes  []string
}

// op records one attempted operation; a non-nil err counts as failed.
func (r *run) op(err error) {
	r.attempted.Add(1)
	if err != nil {
		r.fail(err.Error())
	}
}

// check records one correctness check.
func (r *run) check(ok bool, format string, args ...any) {
	r.attempted.Add(1)
	if !ok {
		r.fail("check failed: " + fmt.Sprintf(format, args...))
	}
}

func (r *run) fail(msg string) {
	r.failed.Add(1)
	r.mu.Lock()
	if len(r.failures) < 20 {
		r.failures = append(r.failures, msg)
	}
	r.mu.Unlock()
}

func (r *run) set(name string, v float64, unit string) { r.e2e[name] = metric{v, unit} }

func (r *run) layer(name string, v float64) { r.layers[name] = v }

func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(*run) error{
	"map_inproc":        runMapInproc,
	"ingest_binary":     func(r *run) error { return runIngest(r, ingestBinary) },
	"ndjson_refine":     func(r *run) error { return runIngest(r, ndjsonRefine) },
	"ingest_replicated": func(r *run) error { return runIngest(r, ingestReplicated) },
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	workload := flag.String("workload", "", "workload name (map_inproc, ingest_binary, ndjson_refine, ingest_replicated)")
	seed := flag.Uint64("seed", 1, "input seed: the same seed generates the same inputs")
	seconds := flag.Int("seconds", 10, "measured duration of one run")
	traceMode := flag.Int("trace", 0, "1 = also run traced and print the per-layer metrics")
	omsd := flag.String("omsd", filepath.Join(".bench_build", "omsd"), "omsd binary built from ./cmd/omsd")
	work := flag.String("workdir", filepath.Join(".bench_build", "work"), "scratch directory for inputs and data dirs")
	scale := flag.Float64("scale", 1, "input size multiplier (the smoke test uses a tiny one)")
	specPath := flag.String("spec", "BENCHMARK.json", "benchmark declaration naming the metrics to print")
	flag.Parse()
	defer stopAll()

	var spec declared
	raw, err := os.ReadFile(*specPath)
	if err == nil {
		err = json.Unmarshal(raw, &spec)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: metric declaration: %v\n", err)
		return 1
	}

	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traceMode != 0 && *traceMode != 1) || *scale <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q)\n", *workload)
		return 2
	}
	if _, err := os.Stat(*omsd); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: omsd binary: %v\n", err)
		return 1
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	h := fingerprint(*work)
	hj, _ := json.Marshal(h)
	fmt.Printf("host %s\n", hj)
	if h.Informational {
		fmt.Println("note: host differs from reference_host.json; numbers are informational")
	}

	phase := func(traced bool) (*run, error) {
		dir, err := os.MkdirTemp(*work, *workload+"-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		r := &run{workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
			scale: *scale, traced: traced, omsd: *omsd, dir: dir,
			e2e: map[string]metric{}, layers: map[string]float64{}}
		steal0, total0 := cpuTicks()
		err = fn(r)
		stopAll()
		running = nil
		steal1, total1 := cpuTicks()
		r.note("host CPU steal during the run: %.1f%%", 100*ratio(float64(steal1-steal0), float64(total1-total0)))
		return r, err
	}

	base, err := phase(false)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	printReport("untraced", base)
	final := base
	out := map[string]metric{}
	for _, m := range spec.EndToEnd {
		got, ok := base.e2e[m.Name]
		if !ok || got.Unit != m.Unit {
			fmt.Fprintf(os.Stderr, "perfbench: %s measured no %s in %s\n", *workload, m.Name, m.Unit)
			return 1
		}
		out[m.Name] = got
	}
	if *traceMode == 1 {
		tr, err := phase(true)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s traced: %v\n", *workload, err)
			return 1
		}
		printReport("traced", tr)
		tr.layer("trace.overhead_frac", ratio(base.e2e["nodes_per_s"].Value-tr.e2e["nodes_per_s"].Value, base.e2e["nodes_per_s"].Value))
		printOverhead(base, tr)
		out = map[string]metric{}
		fmt.Printf("== %s per-layer (traced run)\n", *workload)
		for _, m := range spec.PerLayer {
			out[m.Name] = metric{tr.layers[m.Name], m.Unit}
			fmt.Printf("  %-30s %14.6g %s\n", m.Name, tr.layers[m.Name], m.Unit)
		}
		tr.attempted.Add(base.attempted.Load())
		tr.failed.Add(base.failed.Load())
		final = tr
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{final.failed.Load() == 0, final.attempted.Load(), final.failed.Load(), out}
	if res.Attempted < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: %s attempted nothing\n", *workload)
		return 1
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	return 0
}

// printReport prints every end-to-end number the workload defines —
// including those only some workloads have, which BENCHMARK.json
// cannot gate — with its unit, plus the failure ledger.
func printReport(label string, r *run) {
	fmt.Printf("== %s %s seed=%d seconds=%v GOMAXPROCS=%d\n", r.workload, label, r.seed, r.seconds, runtime.GOMAXPROCS(0))
	names := make([]string, 0, len(r.e2e))
	for n := range r.e2e {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-24s %14.6g %s\n", n, r.e2e[n].Value, r.e2e[n].Unit)
	}
	att, fl := r.attempted.Load(), r.failed.Load()
	fmt.Printf("  %-24s %14.6g ratio (%d failed of %d attempted)\n", "error_rate", ratio(float64(fl), float64(att)), fl, att)
	for _, n := range r.notes {
		fmt.Printf("  note: %s\n", n)
	}
	for _, f := range r.failures {
		fmt.Printf("  FAILURE: %s\n", f)
	}
}

// printOverhead prints traced minus untraced for every end-to-end
// number both runs have: the cost of sampling every request. Trace
// collection runs between sessions, outside the push windows the
// ingest rates are measured over.
func printOverhead(base, tr *run) {
	fmt.Printf("== %s tracing overhead (traced - untraced)\n", base.workload)
	names := make([]string, 0, len(base.e2e))
	for n := range base.e2e {
		if _, ok := tr.e2e[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		b, t := base.e2e[n].Value, tr.e2e[n].Value
		fmt.Printf("  %-24s %+14.6g %s (%+.1f%%)\n", n, t-b, base.e2e[n].Unit, 100*ratio(t-b, b))
	}
}
