package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func readFile(path string) ([]byte, error) { return os.ReadFile(path) }

// TestLoadgenSmoke is the make-test gate for the load generator: a short
// closed-loop run against an in-process 2-shard fleet must finish with
// nonzero throughput and zero errors, and emit a parseable report.
func TestLoadgenSmoke(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{
		"-shards", "1,2",
		"-duration", "300ms",
		"-concurrency", "4",
		"-batch", "16",
		"-tx", "2000",
		"-segments", "64",
		"-out", out,
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("run exited %d\nstderr: %s", code, stderr.String())
	}
	raw, err := readFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("report is not JSON: %v", err)
	}
	if len(rep.Points) != 2 {
		t.Fatalf("%d points, want 2", len(rep.Points))
	}
	for _, pt := range rep.Points {
		if pt.Errors != 0 {
			t.Fatalf("%d shards: %d errors", pt.Shards, pt.Errors)
		}
		if pt.Requests == 0 || pt.RequestsPerSec <= 0 {
			t.Fatalf("%d shards: no throughput (req=%d rps=%f)", pt.Shards, pt.Requests, pt.RequestsPerSec)
		}
		if pt.P50NS <= 0 || pt.P99NS < pt.P50NS {
			t.Fatalf("%d shards: implausible percentiles p50=%d p99=%d", pt.Shards, pt.P50NS, pt.P99NS)
		}
	}
	if rep.Config.NumCPU < 1 || rep.Config.Batch != 16 {
		t.Fatalf("config echo wrong: %+v", rep.Config)
	}
}

// TestLoadgenOpenLoop exercises the open-loop arrival path.
func TestLoadgenOpenLoop(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{
		"-mode", "open",
		"-qps", "200",
		"-shards", "2",
		"-duration", "250ms",
		"-batch", "8",
		"-tx", "1500",
		"-segments", "32",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("run exited %d\nstderr: %s", code, stderr.String())
	}
	var rep report
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		t.Fatalf("stdout is not the JSON report: %v", err)
	}
	if len(rep.Points) != 1 || rep.Points[0].Requests == 0 || rep.Points[0].Errors != 0 {
		t.Fatalf("open-loop point wrong: %+v", rep.Points)
	}
}

// TestLoadgenBadFlags pins the usage errors, including load shapes that
// would otherwise run no workers or tick at a nonsense arrival rate.
func TestLoadgenBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-mode", "nope"},
		{"-shards", "0"},
		{"-mode", "open", "-qps", "0"},
		{"-mode", "open", "-qps", "-5"},
		{"-mode", "open", "-qps", "NaN"},
		{"-mode", "open", "-qps", "+Inf"},
		{"-concurrency", "0"},
		{"-batch", "0"},
		{"-duration", "0s"},
		{"-duration", "-1s"},
		{"-fleetz", "-target", "http://127.0.0.1:1", "-fleetz-interval", "0s"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), args, &stdout, &stderr); code != 2 {
			t.Errorf("%v exited %d, want 2", args, code)
		} else if stderr.Len() == 0 {
			t.Errorf("%v exited 2 without a message", args)
		}
	}
}
