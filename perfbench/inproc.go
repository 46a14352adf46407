package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"time"

	"oms"
)

// Map workload settings: the paper's experiment, an RMAT social graph
// mapped onto S=4:16:64 with D=1:10:100 (k=4096).
const (
	mapNodes    = 1 << 18
	mapAvgDeg   = 16
	mapSpec     = "4:16:64"
	mapDistance = "1:10:100"
	metisReads  = 5
)

// runMapInproc runs oms.Map on an in-memory graph read from a METIS
// file, alternating sequential and Threads=nproc calls until the run's
// time is up. Only core (and graphio, in set-up) does work here.
func runMapInproc(r *run) error {
	n := max(int32(float64(mapNodes)*r.scale), 1024)
	top, err := oms.NewTopology(mapSpec, mapDistance)
	if err != nil {
		return err
	}
	// Inputs are generated and written before any timing.
	path := filepath.Join(r.dir, "rmat.metis")
	gen := oms.GenRMATSocial(n, int64(n)*mapAvgDeg/2, r.seed)
	if err := oms.WriteMetisFile(path, gen); err != nil {
		return fmt.Errorf("write METIS input: %w", err)
	}
	genN, genM, genW := gen.NumNodes(), gen.NumEdges(), gen.TotalEdgeWeight()
	gen = nil
	runtime.GC()

	// Set-up: the METIS load, timed several times; the median is setup_s.
	var reads []float64
	var g *oms.Graph
	for i := 0; i < metisReads; i++ {
		runtime.GC()
		t0 := time.Now()
		gi, err := oms.ReadMetisFile(path)
		d := time.Since(t0)
		r.op(err)
		if err != nil {
			return fmt.Errorf("read METIS input: %w", err)
		}
		reads = append(reads, d.Seconds())
		g = gi
	}
	r.check(g.NumNodes() == genN && g.NumEdges() == genM && g.TotalEdgeWeight() == genW,
		"METIS round trip changed the graph: n %d/%d m %d/%d", g.NumNodes(), genN, g.NumEdges(), genM)
	// peak_rss_mb covers the Map calls over the loaded graph, not the
	// generator's and the loader's transient peaks: return the free heap
	// to the OS, then restart the high-water mark from what is left.
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		r.note("peak_rss_mb includes input generation: cannot reset VmHWM: %v", err)
	}

	threads := runtime.NumCPU()
	stopHeap := func() float64 { return 0 }
	if r.traced {
		stopHeap = sampleHeap()
	}
	// timedMap runs one Map call from a freshly collected heap, so
	// garbage from earlier calls neither triggers a collection inside the
	// timed call nor moves the peak resident set; it also returns the GC
	// pause time that fell inside the call.
	var ms0, ms1 runtime.MemStats
	timedMap := func(opt oms.Options) (*oms.Result, float64, time.Duration, error) {
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		res, err := oms.Map(oms.NewMemorySource(g), top, opt)
		d := time.Since(t0)
		runtime.ReadMemStats(&ms1)
		r.op(err)
		return res, d.Seconds(), time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs), err
	}

	var seqT, parT, parCuts []float64
	var gcPause time.Duration
	var seq *oms.Result
	deadline := time.Now().Add(r.seconds)
	for len(seqT) == 0 || time.Now().Before(deadline) {
		res, d, pause, err := timedMap(oms.Options{})
		if err != nil {
			return err
		}
		seqT, gcPause = append(seqT, d), gcPause+pause
		checkBalance(r, g, res.Parts, res.K, res.Lmax, "sequential Map")
		if seq == nil {
			seq = res
		} else {
			r.check(slices.Equal(seq.Parts, res.Parts), "sequential Map is not deterministic")
		}

		pres, d, pause, err := timedMap(oms.Options{Threads: threads})
		if err != nil {
			return err
		}
		parT, gcPause = append(parT, d), gcPause+pause
		checkBalance(r, g, pres.Parts, pres.K, pres.Lmax, "parallel Map")
		parCuts = append(parCuts, float64(pres.EdgeCut(g))/float64(g.TotalEdgeWeight()))
	}
	heapPeak := stopHeap()

	m := float64(g.TotalEdgeWeight())
	seqMed, parMed := median(seqT), median(parT)
	r.set("setup_s", median(reads), "s")
	r.set("nodes_per_s", float64(n)/seqMed, "nodes/s")
	r.set("cut_frac", float64(seq.EdgeCut(g))/m, "ratio")
	r.set("peak_rss_mb", peakRSSMiB(os.Getpid()), "MiB")
	r.set("parallel_nodes_per_s", float64(n)/parMed, "nodes/s")
	r.set("parallel_cut_frac", median(parCuts), "ratio")
	r.set("mapping_cost_per_edge", seq.MappingCost(g, top)/m, "ratio")
	r.note("n=%d m=%d (weighted) k=%d; %d sequential and %d parallel Map calls; parallel Threads=nproc=%d",
		n, g.TotalEdgeWeight(), seq.K, len(seqT), len(parT), threads)

	r.layer("graphio.read_s", median(reads))
	r.layer("core.assign_s", seqMed)
	r.layer("core.ns_per_node", seqMed*1e9/float64(n))
	r.layer("core.assign_share", 1) // the Map call is all engine work
	r.layer("core.parallel_speedup", seqMed/parMed)
	r.layer("runtime.gc_pause_s", gcPause.Seconds())
	r.layer("runtime.heap_peak_mb", heapPeak/(1<<20))
	return nil
}

// sampleHeap samples this process's live heap every 20ms until the
// returned stop function is called; stop returns the peak in bytes.
func sampleHeap() func() float64 {
	var peak float64
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			peak = max(peak, float64(ms.HeapAlloc))
			select {
			case <-done:
				return
			case <-t.C:
			}
		}
	}()
	return func() float64 {
		close(done)
		wg.Wait()
		return peak
	}
}
