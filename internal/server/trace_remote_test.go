package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	ossm "github.com/ossm-mining/ossm"
	"github.com/ossm-mining/ossm/internal/obs"
	"github.com/ossm-mining/ossm/internal/oracle"
	"github.com/ossm-mining/ossm/internal/shard"
	"github.com/ossm-mining/ossm/internal/shard/remote"
)

// startTracedWorkerFleet is startWorkerFleet with observability wired:
// every worker gets its own span ring (its own process's tracer in
// production) and logs access lines into logBuf.
func startTracedWorkerFleet(t *testing.T, name string, ix *ossm.Index, d *ossm.Dataset, n int, logBuf *syncBuffer) []string {
	t.Helper()
	locals, err := shard.NewLocalShards(ix, d, n, 0)
	if err != nil {
		t.Fatal(err)
	}
	urls := make([]string, n)
	for i, tr := range shard.Transports(locals) {
		w := remote.NewWorker()
		w.SetObs(obs.NewLogger(logBuf, 0), obs.NewTracer(512))
		if err := w.Add(name, tr, ix.NumSegments(), ix.NumItems()); err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(w.Handler())
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	return urls
}

// TestRemoteFleetTraceAssembly is the tentpole acceptance check: a batch
// /v1/ubsup over 3 remote shards yields, at /v1/traces, ONE tree in
// which every worker's serve span is correctly parented under the
// coordinator's RPC span (traceparent crossed the wire), with per-shard
// serve/net attribution bounded by the root's wall clock; and
// /metrics?exemplars=1 links a latency bucket to a trace in the ring.
func TestRemoteFleetTraceAssembly(t *testing.T) {
	d, ix := fixture(t, 1500, 13)
	workerLog := &syncBuffer{}
	urls := startTracedWorkerFleet(t, "retail", ix, d, 3, workerLog)
	rc := newRemoteCoordinator(t, d, ix, urls)

	body := `{"index":"retail","itemsets":[[0],[1,2],[3,4,5],[0,2,4,6]],"no_cache":true}`
	req, err := http.NewRequest(http.MethodPost, rc.url+"/v1/ubsup", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var ubsup map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&ubsup); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ubsup = %d: %v", resp.StatusCode, ubsup)
	}
	reqID := resp.Header.Get("X-Request-Id")
	if reqID == "" {
		t.Fatal("coordinator response missing X-Request-Id")
	}

	// Satellite: the coordinator's request id crossed the wire and landed
	// in every worker's access-log line — the join key between processes.
	workerLines := 0
	for _, line := range strings.Split(workerLog.String(), "\n") {
		var rec map[string]any
		if json.Unmarshal([]byte(line), &rec) == nil && rec["msg"] == "shard_rpc" &&
			rec["path"] == "/shard/v1/bounds" && rec["request_id"] == reqID {
			workerLines++
		}
	}
	if workerLines != 3 {
		t.Errorf("request id %s appears in %d worker shard_rpc lines, want 3\n%s",
			reqID, workerLines, workerLog.String())
	}

	// The assembled cross-process trace.
	code, traces := getJSON(t, rc.url+"/v1/traces")
	if code != http.StatusOK {
		t.Fatalf("traces = %d", code)
	}
	if n := int(traces["remote_spans"].(float64)); n < 3 {
		t.Fatalf("only %d remote spans fetched, want >= 3 (one serve span per worker)", n)
	}
	if errsN, ok := traces["remote_errors"].(float64); ok && errsN != 0 {
		t.Fatalf("remote span fetch errors: %v", errsN)
	}

	// Find the ubsup root; it must be the ONE tree for this request.
	var root map[string]any
	for _, tr := range traces["traces"].([]any) {
		node := tr.(map[string]any)
		if node["name"] == "POST /v1/ubsup" {
			if root != nil {
				t.Fatal("more than one POST /v1/ubsup root")
			}
			root = node
		}
	}
	if root == nil {
		t.Fatal("no POST /v1/ubsup root in the assembled traces")
	}
	traceID := root["trace_id"].(string)
	rootDur := int64(root["duration_ns"].(float64))

	// Walk the tree: per shard, rpc-bounds must carry a remote serve span
	// whose parent_id is the rpc span's own id, and the serve span must
	// carry the worker's kernel span.
	serveParent := map[string]bool{} // span names seen under rpc spans
	shardsSeen := map[float64]bool{}
	var walk func(node map[string]any)
	walk = func(node map[string]any) {
		name := node["name"].(string)
		children, _ := node["children"].([]any)
		if name == "rpc-bounds" {
			attrs := node["attrs"].(map[string]any)
			shardsSeen[attrs["shard"].(float64)] = true
			for _, c := range children {
				child := c.(map[string]any)
				if child["name"] == "serve /shard/v1/bounds" {
					if child["parent_id"] != node["span_id"] {
						t.Errorf("serve span parent %v != rpc span %v", child["parent_id"], node["span_id"])
					}
					if child["trace_id"] != traceID {
						t.Errorf("serve span trace %v escaped trace %s", child["trace_id"], traceID)
					}
					serveParent[name] = true
					kids, _ := child["children"].([]any)
					foundKernel := false
					for _, k := range kids {
						if k.(map[string]any)["name"] == "kernel-bounds" {
							foundKernel = true
						}
					}
					if !foundKernel {
						t.Error("worker serve span has no kernel-bounds child")
					}
				}
			}
		}
		for _, c := range children {
			walk(c.(map[string]any))
		}
	}
	walk(root)
	if len(shardsSeen) != 3 {
		t.Fatalf("rpc spans cover %d shards, want 3", len(shardsSeen))
	}
	if !serveParent["rpc-bounds"] {
		t.Fatal("no remote serve span stitched under any rpc span")
	}

	// Attribution: every shard reports at least one RPC, and each shard's
	// serve + net split stays within the root's wall clock (shards run
	// concurrently, so the per-shard — not cross-shard — sum is bounded).
	var attr map[string]any
	for _, a := range traces["attribution"].([]any) {
		if rec := a.(map[string]any); rec["trace_id"] == traceID {
			attr = rec
		}
	}
	if attr == nil {
		t.Fatal("no attribution entry for the ubsup trace")
	}
	shardRows := attr["shards"].([]any)
	if len(shardRows) != 3 {
		t.Fatalf("attribution covers %d shards, want 3", len(shardRows))
	}
	for _, row := range shardRows {
		rec := row.(map[string]any)
		rpcs := int(rec["rpcs"].(float64))
		serveNs := int64(rec["serve_ns"].(float64))
		netNs := int64(rec["net_ns"].(float64))
		if rpcs < 1 {
			t.Errorf("shard %v reports %d RPCs", rec["shard"], rpcs)
		}
		if serveNs <= 0 {
			t.Errorf("shard %v reports serve_ns = %d, want > 0", rec["shard"], serveNs)
		}
		if netNs < 0 {
			t.Errorf("shard %v reports negative net_ns %d", rec["shard"], netNs)
		}
		if serveNs+netNs > rootDur {
			t.Errorf("shard %v serve+net = %d ns exceeds root duration %d ns",
				rec["shard"], serveNs+netNs, rootDur)
		}
	}

	// ?remote=0 serves the local ring alone — the serve spans vanish.
	code, local := getJSON(t, rc.url+"/v1/traces?remote=0")
	if code != http.StatusOK {
		t.Fatalf("traces?remote=0 = %d", code)
	}
	if n, ok := local["remote_spans"].(float64); ok && n != 0 {
		t.Errorf("remote=0 still fetched %v remote spans", n)
	}

	// Exemplars: the rich exposition lints clean and at least one latency
	// bucket links to a trace id present in the ring.
	mresp, err := http.Get(rc.url + "/metrics?exemplars=1")
	if err != nil {
		t.Fatal(err)
	}
	var raw bytes.Buffer
	if _, err := raw.ReadFrom(mresp.Body); err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	if errs := oracle.Lint(bytes.NewReader(raw.Bytes())); len(errs) != 0 {
		t.Fatalf("exemplar exposition fails lint: %v", errs)
	}
	samples, err := obs.ParseText(bytes.NewReader(raw.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	ringIDs := map[string]bool{}
	for _, tr := range traces["traces"].([]any) {
		ringIDs[tr.(map[string]any)["trace_id"].(string)] = true
	}
	linked := 0
	for _, s := range samples {
		if s.Exemplar == nil || !strings.HasSuffix(s.Name, "_bucket") {
			continue
		}
		if ringIDs[s.Exemplar.TraceID] {
			linked++
		}
	}
	if linked == 0 {
		t.Error("no latency bucket exemplar links to a trace in the ring")
	}
}
