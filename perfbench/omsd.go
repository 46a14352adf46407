package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"oms/internal/promtext"
)

// daemon is one omsd process the benchmark started. omsd always runs
// as its own process, with a loopback -addr, its own -data-dir and
// -trace-sample 0; every other flag keeps its default, so the same
// flags run on every commit.
type daemon struct {
	bin     string
	args    []string
	dataDir string
	base    string
	logPath string
	cmd     *exec.Cmd
	done    chan struct{}
}

// running lists every started daemon, so an early return still stops
// them all (see stopAll).
var running []*daemon

// readyPoll is the readiness polling interval: small against omsd's
// few-millisecond start, so polling does not quantize setup_s.
const readyPoll = 100 * time.Microsecond

// hc is the benchmark's HTTP client for control requests (readiness,
// metrics, traces, raw result bytes).
var hc = &http.Client{Timeout: 30 * time.Second}

func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// newDaemon prepares (but does not start) an omsd on a fresh loopback
// port over dataDir.
func newDaemon(bin, dataDir, logPath string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	args := []string{"-addr", addr, "-data-dir", dataDir, "-trace-sample", "0"}
	return &daemon{bin: bin, args: args, dataDir: dataDir, base: "http://" + addr, logPath: logPath}, nil
}

// start execs the process; it does not wait for readiness.
func (d *daemon) start() error {
	lf, err := os.OpenFile(d.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	cmd := exec.Command(d.bin, d.args...)
	cmd.Stdout, cmd.Stderr = lf, lf
	if err := cmd.Start(); err != nil {
		lf.Close()
		return fmt.Errorf("start omsd: %w", err)
	}
	d.cmd, d.done = cmd, make(chan struct{})
	running = append(running, d)
	go func() {
		_ = cmd.Wait()
		lf.Close()
		close(d.done)
	}()
	return nil
}

// waitReady polls GET /v1/readyz until it answers 200.
func (d *daemon) waitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-d.done:
			return fmt.Errorf("omsd exited before ready (log: %s)", d.logPath)
		default:
		}
		resp, err := hc.Get(d.base + "/v1/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(readyPoll)
	}
	return fmt.Errorf("omsd at %s not ready after %v", d.base, timeout)
}

// startReady execs omsd and returns the time until /v1/readyz is 200.
func (d *daemon) startReady() (time.Duration, error) {
	t0 := time.Now()
	if err := d.start(); err != nil {
		return 0, err
	}
	if err := d.waitReady(60 * time.Second); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}

// stop sends SIGTERM (graceful drain) and waits for the process to
// exit, killing it after a grace period.
func (d *daemon) stop() {
	if d.cmd == nil {
		return
	}
	select {
	case <-d.done:
		return
	default:
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
}

func stopAll() {
	for _, d := range running {
		d.stop()
	}
}

// peakRSSMiB reads VmHWM, the process's resident-set high-water mark.
func peakRSSMiB(pid int) float64 {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "status"))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

func (d *daemon) peakRSSMiB() float64 { return peakRSSMiB(d.cmd.Process.Pid) }

// resetPeakRSS restarts this process's VmHWM from its current resident
// set (Linux clear_refs 5), so the peak covers only what follows.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// scrape is one /metrics snapshot, keyed by family name.
type scrape map[string]promtext.Family

func (d *daemon) scrape() (scrape, error) {
	resp, err := hc.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	fams, err := promtext.Parse(resp.Body)
	if err != nil {
		return nil, err
	}
	out := scrape{}
	for _, f := range fams {
		out[f.Name] = f
	}
	return out, nil
}

// value is a counter's or gauge's value (summed over label sets).
func (s scrape) value(name string) float64 {
	var v float64
	for _, smp := range s[name].Samples {
		v += smp.Value
	}
	return v
}

// hist is a histogram family's merged view, or nil if absent.
func (s scrape) hist(name string) *promtext.Histogram {
	f, ok := s[name]
	if !ok {
		return nil
	}
	h, err := f.AsHistogram()
	if err != nil {
		return nil
	}
	return h
}

// getJSON fetches a control document.
func getJSON(ctx context.Context, url string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// waitClusterAlive polls each member's GET /v1/cluster until every
// member reports every peer alive.
func waitClusterAlive(ds []*daemon, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		ok := true
		for _, d := range ds {
			var doc struct {
				Members []struct {
					Alive bool `json:"alive"`
				} `json:"members"`
			}
			if err := getJSON(context.Background(), d.base+"/v1/cluster", &doc); err != nil || len(doc.Members) != len(ds) {
				ok = false
				break
			}
			for _, m := range doc.Members {
				ok = ok && m.Alive
			}
		}
		if ok {
			return nil
		}
		time.Sleep(readyPoll)
	}
	return errors.New("cluster members not all alive")
}
