package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	ossm "github.com/ossm-mining/ossm"
	"github.com/ossm-mining/ossm/internal/server"
)

// syncBuffer is a goroutine-safe bytes.Buffer for capturing run's output
// while it serves in the background.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// writeFixtures saves a dataset and an index over it, returning both paths.
func writeFixtures(t *testing.T) (dataPath, indexPath string) {
	t.Helper()
	d, err := ossm.GenerateSkewed(ossm.DefaultSkewed(600, 5))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	dataPath = filepath.Join(dir, "d.bin")
	if err := ossm.SaveDataset(dataPath, d); err != nil {
		t.Fatal(err)
	}
	ix, err := ossm.Build(d, ossm.BuildOptions{Segments: 8})
	if err != nil {
		t.Fatal(err)
	}
	indexPath = filepath.Join(dir, "d.ossm")
	if err := ix.Save(indexPath); err != nil {
		t.Fatal(err)
	}
	return dataPath, indexPath
}

var listenRE = regexp.MustCompile(`listening on (\S+)`)

// startServe launches run in the background on an ephemeral port and
// waits for the listen line; cancel and wait for the exit code via the
// returned helpers.
func startServe(t *testing.T, args []string) (base string, out *syncBuffer, shutdown func() int) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	out = &syncBuffer{}
	var errb syncBuffer
	done := make(chan int, 1)
	go func() { done <- run(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...), out, &errb) }()

	var addr string
	for i := 0; i < 100; i++ {
		if m := listenRE.FindStringSubmatch(out.String()); m != nil {
			addr = m[1]
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if addr == "" {
		cancel()
		t.Fatalf("server never printed its address; stdout=%q stderr=%q", out.String(), errb.String())
	}
	return "http://" + addr, out, func() int {
		cancel()
		select {
		case code := <-done:
			return code
		case <-time.After(10 * time.Second):
			t.Fatal("run did not exit after cancel")
			return -1
		}
	}
}

func TestServeEndToEnd(t *testing.T) {
	dataPath, indexPath := writeFixtures(t)
	base, out, shutdown := startServe(t, []string{
		"-index", "retail=" + indexPath,
		"-data", "retail=" + dataPath,
	})

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	r, err := http.Post(base+"/v1/ubsup", "application/json",
		strings.NewReader(`{"index":"retail","itemset":[1,2]}`))
	if err != nil {
		t.Fatal(err)
	}
	var ub map[string]any
	if err := json.NewDecoder(r.Body).Decode(&ub); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK || ub["bound"] == nil {
		t.Fatalf("ubsup = %d %v", r.StatusCode, ub)
	}

	if code := shutdown(); code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if !strings.Contains(out.String(), "shut down cleanly") {
		t.Errorf("no clean-shutdown line in %q", out.String())
	}
}

func TestServeBuildSegments(t *testing.T) {
	dataPath, _ := writeFixtures(t)
	base, out, shutdown := startServe(t, []string{
		"-data", "retail=" + dataPath,
		"-build-segments", "4",
	})
	defer shutdown()

	resp, err := http.Get(base + "/v1/indexes")
	if err != nil {
		t.Fatal(err)
	}
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	row := body["indexes"].([]any)[0].(map[string]any)
	if row["has_index"] != true || int(row["segments"].(float64)) != 4 {
		t.Fatalf("built index missing: %v", row)
	}
	if !strings.Contains(out.String(), "built 4 segments") {
		t.Errorf("no build line in %q", out.String())
	}
}

func TestServeFlagErrors(t *testing.T) {
	ctx := context.Background()
	var out, errb bytes.Buffer
	cases := []struct {
		name string
		args []string
		code int
	}{
		{"no entries", nil, 2},
		{"bad kv", []string{"-index", "retail"}, 2},
		{"positional junk", []string{"-index", "a=b", "extra"}, 2},
		{"bad log level", []string{"-index", "a=b", "-log-level", "loud"}, 2},
		{"in-process shards", []string{"-index", "a=b", "-shards", "4"}, 2},
		{"ingest with topology", []string{"-ingest", "live=/nonexistent/dir", "-topology", "/nonexistent/topology"}, 2},
		{"missing index file", []string{"-index", "a=/nonexistent/x.ossm"}, 1},
		{"missing data file", []string{"-data", "a=/nonexistent/x.bin"}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if code := run(ctx, tc.args, &out, &errb); code != tc.code {
				t.Errorf("exit = %d, want %d (stderr %q)", code, tc.code, errb.String())
			}
		})
	}
}

// TestStartupFailureReleasesRegistry pins the all-or-nothing load
// contract: when a later entry fails to load, every entry registered
// before it is released, and run exits 1 with a structured error line.
func TestStartupFailureReleasesRegistry(t *testing.T) {
	_, indexPath := writeFixtures(t)

	srv := server.New(server.Config{})
	err := loadEntries(srv,
		kvList{{"good", indexPath}},
		kvList{{"bad", "/nonexistent/x.bin"}},
		0, io.Discard)
	if err == nil {
		t.Fatal("loadEntries succeeded with a missing dataset file")
	}
	if info := srv.Registry().Info(); len(info) != 0 {
		t.Fatalf("failed load left registry entries: %+v", info)
	}

	// Through run: non-zero exit and a structured (JSON) error record.
	var out, errb bytes.Buffer
	code := run(context.Background(), []string{
		"-index", "good=" + indexPath,
		"-data", "bad=/nonexistent/x.bin",
	}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	var rec map[string]any
	line := errb.String()
	if err := json.Unmarshal([]byte(line[:strings.IndexByte(line, '\n')]), &rec); err != nil {
		t.Fatalf("stderr is not a JSON log line: %q", line)
	}
	if rec["msg"] != "startup failed" || rec["error"] == nil {
		t.Errorf("error record = %v", rec)
	}
}

// TestObsSmoke drives the full observability surface through the real
// CLI: a mine request produces a JSON access-log line carrying the
// request id, a span tree at /v1/traces whose root covers the per-pass
// children, and advancing Prometheus counters at /metrics.
func TestObsSmoke(t *testing.T) {
	dataPath, indexPath := writeFixtures(t)
	ctx, cancel := context.WithCancel(context.Background())
	out := &syncBuffer{}
	errb := &syncBuffer{}
	done := make(chan int, 1)
	go func() {
		done <- run(ctx, []string{
			"-addr", "127.0.0.1:0",
			"-index", "retail=" + indexPath,
			"-data", "retail=" + dataPath,
			"-log-level", "info",
			"-trace-buffer", "512",
			"-pprof",
		}, out, errb)
	}()
	var addr string
	for i := 0; i < 100; i++ {
		if m := listenRE.FindStringSubmatch(out.String()); m != nil {
			addr = m[1]
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if addr == "" {
		cancel()
		t.Fatalf("server never printed its address; stderr=%q", errb.String())
	}
	base := "http://" + addr
	defer func() {
		cancel()
		if code := <-done; code != 0 {
			t.Errorf("exit = %d", code)
		}
	}()

	resp, err := http.Post(base+"/v1/mine", "application/json",
		strings.NewReader(`{"index":"retail","support":0.1}`))
	if err != nil {
		t.Fatal(err)
	}
	var mine map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&mine); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mine = %d %v", resp.StatusCode, mine)
	}
	reqID := resp.Header.Get("X-Request-Id")
	if reqID == "" {
		t.Fatal("mine response missing X-Request-Id")
	}
	if tel := mine["telemetry"].(map[string]any); tel["request_id"] != reqID {
		t.Errorf("telemetry request id = %v, want %q", tel["request_id"], reqID)
	}

	// The access log is JSON-per-line on stderr; find the mine line.
	var logged map[string]any
	for _, line := range strings.Split(errb.String(), "\n") {
		var rec map[string]any
		if json.Unmarshal([]byte(line), &rec) == nil && rec["route"] == "/v1/mine" {
			logged = rec
			break
		}
	}
	if logged == nil {
		t.Fatalf("no /v1/mine access-log line in %q", errb.String())
	}
	if logged["request_id"] != reqID || logged["trace_id"] == "" || int(logged["status"].(float64)) != 200 {
		t.Errorf("access log = %v", logged)
	}

	// The trace ring holds the request's span tree: root covering the
	// mine-run child, which covers the per-pass children.
	resp, err = http.Get(base + "/v1/traces")
	if err != nil {
		t.Fatal(err)
	}
	var traces map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&traces); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	foundMine := false
	for _, tr := range traces["traces"].([]any) {
		root := tr.(map[string]any)
		if root["name"] == "POST /v1/mine" {
			foundMine = true
			if root["attrs"].(map[string]any)["request_id"] != reqID {
				t.Errorf("root span attrs = %v", root["attrs"])
			}
			names := spanNames(root)
			for _, want := range []string{"admission", "mine-run", "pass-1"} {
				if !names[want] {
					t.Errorf("trace missing %q span; have %v", want, names)
				}
			}
		}
	}
	if !foundMine {
		t.Fatalf("no POST /v1/mine trace in %v", traces)
	}

	// Prometheus exposition reflects the run.
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`ossm_mine_runs_total{miner="apriori"} 1`,
		`ossm_http_requests_total{route="/v1/mine",status="200"} 1`,
		"# TYPE ossm_http_request_duration_seconds histogram",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// pprof is mounted when -pprof is set.
	resp, err = http.Get(base + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof cmdline = %d", resp.StatusCode)
	}
}

// spanNames flattens a trace node's subtree into a name set.
func spanNames(node map[string]any) map[string]bool {
	names := map[string]bool{node["name"].(string): true}
	children, _ := node["children"].([]any)
	for _, c := range children {
		for n := range spanNames(c.(map[string]any)) {
			names[n] = true
		}
	}
	return names
}
