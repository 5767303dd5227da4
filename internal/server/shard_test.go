package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	ossm "github.com/ossm-mining/ossm"
)

// shardedPair stands up a coordinator over a fleet of httptest shard
// workers and an unsharded server, both over the same fixture entry.
func shardedPair(t *testing.T, shards int) (shardedURL, plainURL string) {
	t.Helper()
	d, ix := fixture(t, 1500, 13)
	urls, _ := startWorkerFleet(t, "retail", ix, d, shards)
	rc := newRemoteCoordinator(t, d, ix, urls)
	plain := New(Config{})
	if err := plain.AddIndex("retail", ix); err != nil {
		t.Fatal(err)
	}
	if err := plain.AddDataset("retail", d); err != nil {
		t.Fatal(err)
	}
	return rc.url, newHTTPServer(t, plain)
}

func newHTTPServer(t *testing.T, s *Server) string {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestShardedUbsupDifferential answers the same batch on a sharded and
// an unsharded server and requires bit-identical bounds — the HTTP-level
// face of the segment-partition identity.
func TestShardedUbsupDifferential(t *testing.T) {
	for _, shards := range []int{2, 3, 8} {
		shardedURL, plainURL := shardedPair(t, shards)
		body := `{"index":"retail","itemsets":[[0],[1,2],[3,4,5],[0,2,4,6],[7],[1,3,5,7,9]]}`
		code, got := postJSON(t, http.DefaultClient, shardedURL+"/v1/ubsup", body)
		if code != http.StatusOK {
			t.Fatalf("%d shards: status %d: %v", shards, code, got)
		}
		code, want := postJSON(t, http.DefaultClient, plainURL+"/v1/ubsup", body)
		if code != http.StatusOK {
			t.Fatalf("unsharded: status %d: %v", code, want)
		}
		gb := got["bounds"].([]any)
		wb := want["bounds"].([]any)
		if len(gb) != len(wb) {
			t.Fatalf("%d shards: %d bounds, want %d", shards, len(gb), len(wb))
		}
		for i := range gb {
			g := gb[i].(map[string]any)["bound"].(float64)
			w := wb[i].(map[string]any)["bound"].(float64)
			if g != w {
				t.Fatalf("%d shards: bound[%d] = %v, want %v", shards, i, g, w)
			}
		}
		// Second pass is answered from the coordinator-side cache.
		code, again := postJSON(t, http.DefaultClient, shardedURL+"/v1/ubsup", body)
		if code != http.StatusOK {
			t.Fatalf("%d shards, cached pass: status %d", shards, code)
		}
		if hits := again["cache_hits"].(float64); int(hits) != len(gb) {
			t.Fatalf("%d shards: cached pass hit %v of %d", shards, hits, len(gb))
		}
	}
}

// TestShardedMineDifferential checks /v1/mine through the fleet returns
// the same frequent itemsets and supports as the single-node run.
func TestShardedMineDifferential(t *testing.T) {
	shardedURL, plainURL := shardedPair(t, 3)
	body := `{"index":"retail","min_count":20,"top":100,"miner":"eclat"}`
	code, got := postJSON(t, http.DefaultClient, shardedURL+"/v1/mine", body)
	if code != http.StatusOK {
		t.Fatalf("sharded mine: status %d: %v", code, got)
	}
	code, want := postJSON(t, http.DefaultClient, plainURL+"/v1/mine", body)
	if code != http.StatusOK {
		t.Fatalf("unsharded mine: status %d: %v", code, want)
	}
	if got["num_frequent"].(float64) != want["num_frequent"].(float64) {
		t.Fatalf("sharded found %v frequent, unsharded %v", got["num_frequent"], want["num_frequent"])
	}
	if got["shards"].(float64) != 3 {
		t.Fatalf("sharded response reports %v shards, want 3", got["shards"])
	}
	gt := got["top"].([]any)
	wt := want["top"].([]any)
	if len(gt) != len(wt) {
		t.Fatalf("top lists differ in length: %d vs %d", len(gt), len(wt))
	}
	for i := range gt {
		g, _ := json.Marshal(gt[i])
		w, _ := json.Marshal(wt[i])
		if string(g) != string(w) {
			t.Fatalf("top[%d]: sharded %s, unsharded %s", i, g, w)
		}
	}
}

// TestShardedIndexesTopology checks GET /v1/indexes reports the fleet
// topology on sharded servers — and keeps the original shape unsharded.
func TestShardedIndexesTopology(t *testing.T) {
	shardedURL, plainURL := shardedPair(t, 4)
	// Touch the sharded server once so the fleet exists even before any
	// lazily-built query traffic (the info path itself builds it too, but
	// exercising the query path first is the realistic order).
	postJSON(t, http.DefaultClient, shardedURL+"/v1/ubsup", `{"index":"retail","itemset":[1]}`)

	code, got := getJSON(t, shardedURL+"/v1/indexes")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	entry := got["indexes"].([]any)[0].(map[string]any)
	if entry["shard_count"].(float64) != 4 {
		t.Fatalf("shard_count = %v, want 4", entry["shard_count"])
	}
	if entry["fleet_generation"].(float64) < 1 {
		t.Fatalf("fleet_generation = %v, want >= 1", entry["fleet_generation"])
	}
	rows := entry["shards"].([]any)
	if len(rows) != 4 {
		t.Fatalf("%d shard rows, want 4", len(rows))
	}
	// Ranges must tile [0, segments) contiguously.
	lo := 0.0
	for i, raw := range rows {
		row := raw.(map[string]any)
		seg := row["segments"].(map[string]any)
		if seg["lo"].(float64) != lo {
			t.Fatalf("shard %d starts at %v, want %v", i, seg["lo"], lo)
		}
		if row["state"].(string) != "healthy" {
			t.Fatalf("shard %d state %v", i, row["state"])
		}
		lo = seg["hi"].(float64)
	}
	if lo != entry["segments"].(float64) {
		t.Fatalf("shard ranges cover [0,%v), index has %v segments", lo, entry["segments"])
	}

	code, plain := getJSON(t, plainURL+"/v1/indexes")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	pentry := plain["indexes"].([]any)[0].(map[string]any)
	for _, key := range []string{"shard_count", "fleet_generation", "shards"} {
		if _, present := pentry[key]; present {
			t.Fatalf("unsharded /v1/indexes grew a %q field", key)
		}
	}
}

// TestShardedSwapKeepsFleet swaps the coordinator's index and checks
// the version bump keeps stale cached bounds unreachable while the fleet
// — and with it every shard's breaker and health state — survives: only
// ReloadFleets moves the fleet to a new generation.
func TestShardedSwapKeepsFleet(t *testing.T) {
	d, ix := fixture(t, 900, 21)
	urls, _ := startWorkerFleet(t, "retail", ix, d, 3)
	rc := newRemoteCoordinator(t, d, ix, urls)
	body := `{"index":"retail","itemset":[1,2]}`
	generation := func() float64 {
		t.Helper()
		code, info := getJSON(t, rc.url+"/v1/indexes")
		if code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
		return info["indexes"].([]any)[0].(map[string]any)["fleet_generation"].(float64)
	}
	code, first := postJSON(t, http.DefaultClient, rc.url+"/v1/ubsup", body)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	gen := generation()

	// A rebuild over the same data — the snapshot the workers also
	// serve — under a new registry version.
	_, ix2 := fixture(t, 900, 21)
	if err := rc.s.reg.Swap("retail", ix2); err != nil {
		t.Fatal(err)
	}
	code, second := postJSON(t, http.DefaultClient, rc.url+"/v1/ubsup", body)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if second["version"].(float64) != first["version"].(float64)+1 {
		t.Fatalf("version %v after swap, want %v", second["version"], first["version"].(float64)+1)
	}
	got := second["bounds"].([]any)[0].(map[string]any)
	if got["cached"] == true {
		t.Fatal("bound served from cache across an index swap")
	}
	if want := ix2.UpperBound(ossm.NewItemset(1, 2)); int64(got["bound"].(float64)) != want {
		t.Fatalf("post-swap bound %v, want %d", got["bound"], want)
	}
	if g := generation(); g != gen {
		t.Fatalf("fleet_generation = %v after swap, want %v (swap must keep the fleet)", g, gen)
	}

	rc.s.ReloadFleets()
	if g := generation(); g != gen+1 {
		t.Fatalf("fleet_generation = %v after ReloadFleets, want %v", g, gen+1)
	}
}

// TestShardedShardMetrics runs a sharded server and checks every shard's
// call outcomes surface in the Prometheus text.
func TestShardedShardMetrics(t *testing.T) {
	d, ix := fixture(t, 1200, 5)
	urls, _ := startWorkerFleet(t, "retail", ix, d, 2)
	url := newRemoteCoordinator(t, d, ix, urls).url
	for i := 0; i < 20; i++ {
		body := fmt.Sprintf(`{"index":"retail","itemset":[%d],"no_cache":true}`, i)
		if code, out := postJSON(t, http.DefaultClient, url+"/v1/ubsup", body); code != http.StatusOK {
			t.Fatalf("status %d: %v", code, out)
		}
	}
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, needle := range []string{
		`ossm_shard_requests_total{shard="0",outcome="ok"}`,
		`ossm_shard_requests_total{shard="1",outcome="ok"}`,
	} {
		if !strings.Contains(text, needle) {
			t.Fatalf("metrics exposition lacks %q:\n%s", needle, text)
		}
	}
}
