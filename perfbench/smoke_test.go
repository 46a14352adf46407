package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmoke builds omsd and the benchmark, then runs every workload at a
// tiny size, untraced and traced: each run must exit 0 with no failed
// operation and print every declared metric with its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs omsd")
	}
	bin := t.TempDir()
	for _, b := range []struct{ dir, out, pkg string }{
		{"..", "omsd", "./cmd/omsd"},
		{".", "perfbench", "."},
	} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(bin, b.out), b.pkg)
		cmd.Dir = b.dir
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", b.pkg, err, out)
		}
	}

	var decl struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"per_layer"`
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}

	for _, w := range decl.Workloads {
		for _, traced := range []string{"0", "1"} {
			t.Run(w.Name+"/trace"+traced, func(t *testing.T) {
				cmd := exec.Command(filepath.Join(bin, "perfbench"), "-workload", w.Name, "-seed", "3",
					"-seconds", "1", "-trace", traced, "-scale", "0.02",
					"-omsd", filepath.Join(bin, "omsd"), "-workdir", t.TempDir(), "-spec", "../BENCHMARK.json")
				var stdout bytes.Buffer
				cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
				if err := cmd.Run(); err != nil {
					t.Fatalf("run: %v\n%s", err, stdout.String())
				}
				var last string
				sc := bufio.NewScanner(&stdout)
				for sc.Scan() {
					if line := strings.TrimSpace(sc.Text()); line != "" {
						last = line
					}
				}
				var res struct {
					Correct   bool              `json:"correct"`
					Attempted int64             `json:"attempted"`
					Failed    int64             `json:"failed"`
					Metrics   map[string]metric `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(last), &res); err != nil {
					t.Fatalf("last line is not the result: %q: %v", last, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, stdout.String())
				}
				want := decl.EndToEnd
				if traced == "1" {
					want = decl.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v, want unit %s", m.Name, got, m.Unit)
					}
					if traced == "0" && got.Value <= 0 {
						t.Errorf("end-to-end metric %s reads %v", m.Name, got.Value)
					}
				}
			})
		}
	}
}
