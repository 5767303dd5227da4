package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildServe compiles ossm-serve from the enclosing source tree.
func buildServe(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "ossm-serve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/ossm-serve")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building ossm-serve: %v\n%s", err, out)
	}
	return bin
}

// runShort runs one workload with a one-second window and returns its
// result line.
func runShort(t *testing.T, serveBin, workload string, trace int) result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := []string{
		"--workload", workload, "--seed", "7", "--seconds", "1", "--warmup", "200ms", "--setups", "1",
		"--trace", []string{"0", "1"}[trace], "--work-dir", t.TempDir(), "--serve-bin", serveBin,
	}
	if code := run(context.Background(), args, &stdout, &stderr); code != 0 {
		t.Fatalf("%s --trace %d exited %d:\n%s", workload, trace, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if !strings.HasPrefix(lines[0], "info {") {
		t.Errorf("%s: first line is not the host and input record: %q", workload, lines[0])
	}
	var res result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("%s: last line is not a result: %v\n%s", workload, err, stdout.String())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s --trace %d: correct=%v attempted=%d failed=%d", workload, trace, res.Correct, res.Attempted, res.Failed)
	}
	return res
}

// TestWorkloads runs every workload for a second, untraced and twice
// traced: every named metric must print with its unit, no op may fail,
// and the exact counts must repeat between the two traced runs.
func TestWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("starts ossm-serve processes")
	}
	serveBin := buildServe(t)
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			plain := runShort(t, serveBin, w, 0)
			for _, m := range endToEnd {
				got, ok := plain.Metrics[m.name]
				if !ok || got.Unit != m.unit || got.Value <= 0 {
					t.Errorf("end-to-end %s = %+v (present %v), want a positive value in %s", m.name, got, ok, m.unit)
				}
			}
			first := runShort(t, serveBin, w, 1)
			second := runShort(t, serveBin, w, 1)
			for _, m := range perLayer {
				if got, ok := first.Metrics[m.name]; !ok || got.Unit != m.unit {
					t.Errorf("per-layer %s = %+v (present %v), want unit %s", m.name, got, ok, m.unit)
				}
			}
			for _, name := range exactCounts {
				if a, b := first.Metrics[name].Value, second.Metrics[name].Value; a != b {
					t.Errorf("%s differs between runs with the same seed: %v vs %v", name, a, b)
				}
			}
		})
	}
}

// TestBenchmarkFile keeps BENCHMARK.json's metric lists in step with the
// metrics the command prints.
func TestBenchmarkFile(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, command runs %s", got, want)
	}
	same := func(kind string, file []struct{ Name, Unit string }, code []struct{ name, unit string }) {
		if len(file) != len(code) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the command prints %d", kind, len(file), len(code))
			return
		}
		for i := range file {
			if file[i].Name != code[i].name || file[i].Unit != code[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the command prints %s (%s)",
					kind, i, file[i].Name, file[i].Unit, code[i].name, code[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}
