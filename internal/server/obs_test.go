package server

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/ossm-mining/ossm/internal/obs"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// syncBuffer is a goroutine-safe log sink: the middleware writes access
// lines from request goroutines while the test reads.
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

// maskExposition replaces the values of timing- and runtime-dependent
// samples (latency histograms, uptime, the go_* block) with <V>, keeping
// every family, label set and deterministic counter intact — the golden
// file then pins the scrape's full shape without flaking on wall time.
func maskExposition(text string) string {
	var out []string
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			out = append(out, line)
			continue
		}
		series := line
		if i := strings.LastIndexByte(line, ' '); i >= 0 {
			series = line[:i]
		}
		name := series
		if i := strings.IndexByte(series, '{'); i >= 0 {
			name = series[:i]
		}
		if strings.HasPrefix(name, "go_") || name == "ossm_uptime_seconds" ||
			name == "ossm_wal_last_snapshot_age_seconds" ||
			strings.HasPrefix(name, "ossm_http_request_duration_seconds") ||
			strings.HasPrefix(name, "ossm_compaction_seconds") {
			line = series + " <V>"
		}
		out = append(out, line)
	}
	return strings.Join(out, "\n")
}

// TestPrometheusGolden pins the whole exposition of a warmed server —
// every family, HELP/TYPE header, label set and deterministic value —
// and lints it with the promtool-style checker.
func TestPrometheusGolden(t *testing.T) {
	s, ts, _, _ := newTestServer(t, Config{})
	// Deterministic traffic: two ubsup queries (second a cache hit), one
	// mining run, one 404. The mine threshold is low enough that the run
	// reaches multi-item passes, so the candidate series count OSSM
	// decisions.
	postJSON(t, ts.Client(), ts.URL+"/v1/ubsup", `{"index":"retail","itemset":[1,2]}`)
	postJSON(t, ts.Client(), ts.URL+"/v1/ubsup", `{"index":"retail","itemset":[1,2]}`)
	postJSON(t, ts.Client(), ts.URL+"/v1/mine", `{"index":"retail","support":0.01}`)
	postJSON(t, ts.Client(), ts.URL+"/v1/ubsup", `{"index":"nope","itemset":[1]}`)
	// Durable ingest traffic: two acknowledged appends (the second trips
	// the SnapshotEvery=2 snapshot, zeroing ossm_wal_bytes) plus one
	// rejected request. CompactEvery is set too high for the background
	// compactor to run, keeping the scrape deterministic.
	enableTestIngest(t, s, IngestConfig{CompactEvery: 1 << 20, CompactInterval: -1})
	postJSON(t, ts.Client(), ts.URL+"/v1/ingest", `{"tx":[1,2,3]}`)
	postJSON(t, ts.Client(), ts.URL+"/v1/ingest", `{"batch":[[0,2],[4]]}`)
	postJSON(t, ts.Client(), ts.URL+"/v1/ingest", `{}`)

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var raw bytes.Buffer
	if _, err := raw.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// The exposition must pass the HELP/TYPE/histogram lint verbatim.
	if errs := obs.Lint(bytes.NewReader(raw.Bytes())); len(errs) != 0 {
		t.Fatalf("exposition fails lint: %v", errs)
	}

	// And parse back: every family present as samples.
	samples, err := obs.ParseText(bytes.NewReader(raw.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("no samples parsed from the exposition")
	}

	got := maskExposition(raw.String())
	path := filepath.Join("testdata", "metrics.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/server -update` to create it)", err)
	}
	if got != string(want) {
		t.Errorf("exposition drifted from %s\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// TestObservabilityEndToEnd is the acceptance path: one POST /v1/mine
// produces (1) a JSON access-log line carrying the request id and trace
// id, (2) a span tree at /v1/traces whose root covers the admission,
// mine-run and per-pass child spans, and (3) advancing Prometheus
// counters and histograms at /metrics.
func TestObservabilityEndToEnd(t *testing.T) {
	logBuf := &syncBuffer{}
	_, ts, _, _ := newTestServer(t, Config{Logger: obs.NewLogger(logBuf, 0)})

	before := scrape(t, ts.URL+"/metrics")

	resp, err := ts.Client().Post(ts.URL+"/v1/mine", "application/json",
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
		t.Fatal("response missing X-Request-Id")
	}
	// The run's telemetry report carries the same id.
	if tel := mine["telemetry"].(map[string]any); tel["request_id"] != reqID {
		t.Errorf("telemetry request id = %v, want %q", tel["request_id"], reqID)
	}

	// (1) Access log: a JSON line for the mine route with the request id.
	var logged map[string]any
	for _, line := range strings.Split(logBuf.String(), "\n") {
		var rec map[string]any
		if json.Unmarshal([]byte(line), &rec) == nil && rec["route"] == "/v1/mine" {
			logged = rec
		}
	}
	if logged == nil {
		t.Fatalf("no /v1/mine access-log line in %q", logBuf.String())
	}
	if logged["request_id"] != reqID {
		t.Errorf("access-log request id = %v, want %q", logged["request_id"], reqID)
	}
	traceID, _ := logged["trace_id"].(string)
	if traceID == "" {
		t.Error("access-log line has no trace id")
	}
	if int(logged["status"].(float64)) != 200 || logged["duration"] == nil || logged["bytes"] == nil {
		t.Errorf("access-log line incomplete: %v", logged)
	}

	// (2) The span tree: root POST /v1/mine covering its children.
	code, traces := getJSON(t, ts.URL+"/v1/traces")
	if code != http.StatusOK {
		t.Fatalf("traces = %d", code)
	}
	var root map[string]any
	for _, tr := range traces["traces"].([]any) {
		node := tr.(map[string]any)
		if node["trace_id"] == traceID {
			root = node
		}
	}
	if root == nil {
		t.Fatalf("trace %q not in ring (%d traces)", traceID, len(traces["traces"].([]any)))
	}
	if root["name"] != "POST /v1/mine" {
		t.Errorf("root span = %v", root["name"])
	}
	rootStart, rootEnd := spanWindow(t, root)
	want := map[string]bool{"admission": false, "mine-run": false, "pass-1": false}
	var walk func(node map[string]any)
	walk = func(node map[string]any) {
		name := node["name"].(string)
		if _, ok := want[name]; ok {
			want[name] = true
		}
		start, end := spanWindow(t, node)
		if start.Before(rootStart) || end.After(rootEnd) {
			t.Errorf("span %s [%v, %v] escapes root [%v, %v]", name, start, end, rootStart, rootEnd)
		}
		children, _ := node["children"].([]any)
		for _, c := range children {
			walk(c.(map[string]any))
		}
	}
	walk(root)
	for name, seen := range want {
		if !seen {
			t.Errorf("trace is missing the %q span", name)
		}
	}

	// A threshold far above the run's wall time filters the trace out.
	code, filtered := getJSON(t, ts.URL+"/v1/traces?min_ms=3600000")
	if code != http.StatusOK || int(filtered["count"].(float64)) != 0 {
		t.Errorf("min_ms filter kept %v", filtered["count"])
	}
	if code, _ := getJSON(t, ts.URL+"/v1/traces?min_ms=-1"); code != http.StatusBadRequest {
		t.Errorf("negative min_ms = %d, want 400", code)
	}

	// (3) Counters and histograms advanced.
	after := scrape(t, ts.URL+"/metrics")
	for _, series := range []string{
		`ossm_http_requests_total{route="/v1/mine",status="200"}`,
		`ossm_mine_runs_total{miner="apriori"}`,
		`ossm_mine_passes_total{miner="apriori"}`,
		`ossm_mine_candidates_total{stage="counted"}`,
	} {
		if after[series] <= before[series] {
			t.Errorf("%s did not advance: %v -> %v", series, before[series], after[series])
		}
	}
	histBefore := before[`ossm_http_request_duration_seconds_count{route="/v1/mine"}`]
	histAfter := after[`ossm_http_request_duration_seconds_count{route="/v1/mine"}`]
	if histAfter != histBefore+1 {
		t.Errorf("mine latency histogram count: %v -> %v, want +1", histBefore, histAfter)
	}
}

// scrape fetches a metrics URL and returns every sample keyed by its
// full series name (name plus labels in sorted order).
func scrape(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("%s content type = %q, want Prometheus text", url, ct)
	}
	samples, err := obs.ParseText(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]float64, len(samples))
	for _, s := range samples {
		key := s.Name
		if len(s.Labels) > 0 {
			var parts []string
			for k, v := range s.Labels {
				parts = append(parts, fmt.Sprintf("%s=%q", k, v))
			}
			// Label order from the map is unstable; the exposition renders
			// them in registration order, so re-sort for a canonical key.
			sortStrings(parts)
			key += "{" + strings.Join(parts, ",") + "}"
		}
		out[key] = s.Value
	}
	return out
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// spanWindow extracts a decoded span's [start, end] interval.
func spanWindow(t *testing.T, node map[string]any) (time.Time, time.Time) {
	t.Helper()
	start, err := time.Parse(time.RFC3339Nano, node["start"].(string))
	if err != nil {
		t.Fatal(err)
	}
	return start, start.Add(time.Duration(node["duration_ns"].(float64)))
}

// TestRouteLabelBounded pins the cardinality guard: unknown paths — and
// with them any client-chosen string — collapse into one label.
func TestRouteLabelBounded(t *testing.T) {
	cases := map[string]string{
		"/v1/mine":                     "/v1/mine",
		"/metrics":                     "/metrics",
		"/debug/pprof/profile":         "/debug/pprof",
		"/v1/unknown":                  "other",
		"/" + strings.Repeat("x", 200): "other",
	}
	for path, want := range cases {
		if got := routeLabel(path); got != want {
			t.Errorf("routeLabel(%q) = %q, want %q", path, got, want)
		}
	}
}

// TestTraceBufferDisabled pins that a negative TraceBuffer turns tracing
// off without disturbing the rest of the pipeline.
func TestTraceBufferDisabled(t *testing.T) {
	logBuf := &syncBuffer{}
	_, ts, _, _ := newTestServer(t, Config{TraceBuffer: -1, Logger: obs.NewLogger(logBuf, 0)})
	code, _ := postJSON(t, ts.Client(), ts.URL+"/v1/ubsup", `{"index":"retail","itemset":[1,2]}`)
	if code != http.StatusOK {
		t.Fatalf("ubsup = %d", code)
	}
	code, traces := getJSON(t, ts.URL+"/v1/traces")
	if code != http.StatusOK {
		t.Fatalf("traces = %d", code)
	}
	if n := int(traces["count"].(float64)); n != 0 {
		t.Errorf("disabled tracer holds %d traces", n)
	}
	if !strings.Contains(logBuf.String(), `"route":"/v1/ubsup"`) {
		t.Error("access log missing with tracing disabled")
	}
}
