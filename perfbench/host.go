package main

import (
	_ "embed"
	"encoding/json"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// referenceHostJSON is the fingerprint of the host the bounds in
// BENCHMARK.json were set on. Numbers from any other host are marked
// informational: they are comparable with each other, not with the
// committed bounds.
//
//go:embed reference_host.json
var referenceHostJSON []byte

// host is the fingerprint every result records.
type host struct {
	NumCPU      int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	GOARCH      string  `json:"goarch"`
	GoVersion   string  `json:"go_version"`
	CPUModel    string  `json:"cpu_model"`
	DataDirFS   string  `json:"data_dir_fs"`
	CalibNsPerB float64 `json:"calibration_ns_per_byte"`
	// Informational is true when this host differs from the reference
	// host in cores, architecture or CPU model.
	Informational bool `json:"informational"`
}

func fingerprint(dataDir string) host {
	h := host{
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GOARCH:      runtime.GOARCH,
		GoVersion:   runtime.Version(),
		CPUModel:    cpuModel(),
		DataDirFS:   fsType(dataDir),
		CalibNsPerB: calibrate(),
	}
	var ref host
	if err := json.Unmarshal(referenceHostJSON, &ref); err != nil ||
		ref.NumCPU != h.NumCPU || ref.GOARCH != h.GOARCH || ref.CPUModel != h.CPUModel {
		h.Informational = true
	}
	return h
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir by its statfs magic number:
// fsync cost, and so every WAL number, depends on it.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x58465342: "xfs", 0x9123683E: "btrfs", 0x01021994: "tmpfs",
		0x794C7630: "overlayfs", 0x6969: "nfs", 0x2FC12FC1: "zfs", 0x65735546: "fuse",
		0x01021997: "9p", 0x6A656A63: "virtiofs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return "0x" + strconv.FormatUint(uint64(st.Type), 16)
}

// cpuTicks reads the host's aggregate CPU time and the part of it the
// hypervisor stole (/proc/stat). Steal during a run says how much of the
// machine other tenants took: the main source of run-to-run spread on a
// shared host.
func cpuTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// calibSink keeps the calibration loop's result live.
var calibSink uint64

// calibrate times a fixed single-threaded FNV-1a hash over 1 MiB, five
// times, and returns the median cost per byte: a host-speed reference
// that lets a reader tell a slower machine from a slower program.
func calibrate() float64 {
	buf := make([]byte, 1<<20)
	for i := range buf {
		buf[i] = byte(i * 131)
	}
	var runs []float64
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		h := uint64(14695981039346656037)
		for rep := 0; rep < 8; rep++ {
			for _, c := range buf {
				h ^= uint64(c)
				h *= 1099511628211
			}
		}
		calibSink += h
		runs = append(runs, float64(time.Since(t0).Nanoseconds())/float64(8*len(buf)))
	}
	return median(runs)
}
