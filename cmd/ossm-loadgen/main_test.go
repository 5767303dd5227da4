package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	ossm "github.com/ossm-mining/ossm"
	"github.com/ossm-mining/ossm/internal/server"
)

// newTarget serves one registered index, "retail", through the real
// server handler on a loopback httptest listener and returns its URL.
func newTarget(t *testing.T) string {
	t.Helper()
	d, err := ossm.GenerateSkewed(ossm.DefaultSkewed(2000, 1))
	if err != nil {
		t.Fatal(err)
	}
	ix, err := ossm.Build(d, ossm.BuildOptions{Segments: 32, Algorithm: ossm.RandomGreedy, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{})
	if err := srv.AddIndex("retail", ix); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestLoadgenSmoke is the make-test gate for the load generator: a short
// closed-loop run against a live server must finish with nonzero
// throughput and zero errors, and emit a parseable report.
func TestLoadgenSmoke(t *testing.T) {
	target := newTarget(t)
	out := filepath.Join(t.TempDir(), "bench.json")
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{
		"-target", target,
		"-index-name", "retail",
		"-duration", "300ms",
		"-concurrency", "4",
		"-batch", "16",
		"-out", out,
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("run exited %d\nstderr: %s", code, stderr.String())
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("report is not JSON: %v", err)
	}
	if len(rep.Points) != 1 {
		t.Fatalf("%d points, want 1", len(rep.Points))
	}
	pt := rep.Points[0]
	if pt.Errors != 0 {
		t.Fatalf("%d errors", pt.Errors)
	}
	if pt.Requests == 0 || pt.RequestsPerSec <= 0 {
		t.Fatalf("no throughput (req=%d rps=%f)", pt.Requests, pt.RequestsPerSec)
	}
	if pt.P50NS <= 0 || pt.P99NS < pt.P50NS {
		t.Fatalf("implausible percentiles p50=%d p99=%d", pt.P50NS, pt.P99NS)
	}
	if rep.Config.NumCPU < 1 || rep.Config.Batch != 16 || rep.Config.Target != target {
		t.Fatalf("config echo wrong: %+v", rep.Config)
	}
}

// TestLoadgenOpenLoop exercises the open-loop arrival path.
func TestLoadgenOpenLoop(t *testing.T) {
	target := newTarget(t)
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{
		"-mode", "open",
		"-qps", "200",
		"-target", target,
		"-index-name", "retail",
		"-duration", "250ms",
		"-batch", "8",
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
	if rep.Config.Mode != "open" || rep.Config.QPS != 200 {
		t.Fatalf("config echo wrong: %+v", rep.Config)
	}
}

// TestLoadgenBadFlags pins the usage errors, including load shapes that
// would otherwise run no workers or tick at a nonsense arrival rate, and
// the retired in-process sweep's -shards flag.
func TestLoadgenBadFlags(t *testing.T) {
	const target = "http://127.0.0.1:1"
	for _, args := range [][]string{
		{"-mode", "nope"},
		{"-mode", "open", "-qps", "0"},
		{"-mode", "open", "-qps", "-5"},
		{"-mode", "open", "-qps", "NaN"},
		{"-mode", "open", "-qps", "+Inf"},
		{"-concurrency", "0"},
		{"-batch", "0"},
		{"-duration", "0s"},
		{"-duration", "-1s"},
		{"-fleetz", "-target", target, "-fleetz-interval", "0s"},
		{"-target", target},
		{"-fleetz"},
		{"-shards", "2", "-target", target, "-index-name", "retail"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), args, &stdout, &stderr); code != 2 {
			t.Errorf("%v exited %d, want 2", args, code)
		} else if stderr.Len() == 0 {
			t.Errorf("%v exited 2 without a message", args)
		}
	}
}
