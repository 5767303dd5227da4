package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	ossm "github.com/ossm-mining/ossm"
	"github.com/ossm-mining/ossm/internal/obs"
	"github.com/ossm-mining/ossm/internal/oracle"
	"github.com/ossm-mining/ossm/internal/shard"
	"github.com/ossm-mining/ossm/internal/shard/remote"
)

// startWorkerFleet serves n slices of (ix, d) from n httptest workers —
// stand-ins for separate ossm-serve -shard-role=worker processes — and
// returns their base URLs.
func startWorkerFleet(t *testing.T, name string, ix *ossm.Index, d *ossm.Dataset, n int) ([]string, []*httptest.Server) {
	t.Helper()
	locals, err := shard.NewLocalShards(ix, d, n, 0)
	if err != nil {
		t.Fatal(err)
	}
	urls := make([]string, n)
	servers := make([]*httptest.Server, n)
	for i, tr := range shard.Transports(locals) {
		w := remote.NewWorker()
		if err := w.Add(name, tr, ix.NumSegments(), ix.NumItems()); err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(w.Handler())
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
		servers[i] = srv
	}
	return urls, servers
}

// remoteCoordinator stands up a coordinator Server whose fleet is built
// from a mutable address list, so tests can retarget it and ReloadFleets.
type remoteCoordinator struct {
	s   *Server
	url string
	mu  sync.Mutex
	// addrs is read by the fleet factory on every (re)build.
	addrs []string
}

func (rc *remoteCoordinator) setAddrs(addrs []string) {
	rc.mu.Lock()
	rc.addrs = append([]string(nil), addrs...)
	rc.mu.Unlock()
}

func newRemoteCoordinator(t *testing.T, d *ossm.Dataset, ix *ossm.Index, addrs []string) *remoteCoordinator {
	t.Helper()
	s := New(Config{})
	if err := s.AddIndex("retail", ix); err != nil {
		t.Fatal(err)
	}
	if err := s.AddDataset("retail", d); err != nil {
		t.Fatal(err)
	}
	rc := &remoteCoordinator{s: s}
	rc.setAddrs(addrs)
	hooks := s.RemoteHooks()
	s.UseRemoteFleet(func(name string) ([]shard.Transport, error) {
		rc.mu.Lock()
		cur := append([]string(nil), rc.addrs...)
		rc.mu.Unlock()
		out := make([]shard.Transport, len(cur))
		for i, addr := range cur {
			c, err := remote.NewClient(i, addr, name, remote.ClientConfig{Hooks: hooks, Tracer: s.Tracer()})
			if err != nil {
				return nil, err
			}
			out[i] = c
		}
		return out, nil
	})
	rc.url = newHTTPServer(t, s)
	return rc
}

// TestRemoteFleetUbsupBitIdentical is the acceptance check: a
// coordinator over a 4-shard remote loopback fleet answers a batch
// /v1/ubsup bit-identically to the unsharded library call.
func TestRemoteFleetUbsupBitIdentical(t *testing.T) {
	d, ix := fixture(t, 1500, 13)
	urls, _ := startWorkerFleet(t, "retail", ix, d, 4)
	rc := newRemoteCoordinator(t, d, ix, urls)

	sets := []ossm.Itemset{
		ossm.NewItemset(0),
		ossm.NewItemset(1, 2),
		ossm.NewItemset(3, 4, 5),
		ossm.NewItemset(0, 2, 4, 6),
		ossm.NewItemset(7),
		ossm.NewItemset(1, 3, 5, 7, 9),
	}
	want := make([]int64, len(sets))
	ix.UpperBoundBatch(sets, want)

	body := `{"index":"retail","itemsets":[[0],[1,2],[3,4,5],[0,2,4,6],[7],[1,3,5,7,9]],"no_cache":true}`
	code, got := postJSON(t, http.DefaultClient, rc.url+"/v1/ubsup", body)
	if code != http.StatusOK {
		t.Fatalf("remote ubsup = %d: %v", code, got)
	}
	bounds := got["bounds"].([]any)
	if len(bounds) != len(want) {
		t.Fatalf("%d bounds, want %d", len(bounds), len(want))
	}
	for i := range bounds {
		if b := int64(bounds[i].(map[string]any)["bound"].(float64)); b != want[i] {
			t.Fatalf("bound[%d] = %d, unsharded library says %d", i, b, want[i])
		}
	}

	// The RPCs just made must be visible on /metrics, and the exposition
	// must still lint and parse back.
	resp, err := http.Get(rc.url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var raw bytes.Buffer
	if _, err := raw.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	text := raw.String()
	if !strings.Contains(text, `ossm_shard_rpc_total{shard="0",method="bounds",outcome="ok"}`) {
		t.Fatalf("/metrics missing shard RPC series:\n%s", text)
	}
	if errs := oracle.Lint(bytes.NewReader(raw.Bytes())); len(errs) != 0 {
		t.Fatalf("exposition fails lint: %v", errs)
	}
	if samples, err := obs.ParseText(bytes.NewReader(raw.Bytes())); err != nil || len(samples) == 0 {
		t.Fatalf("exposition does not parse back: %d samples, err %v", len(samples), err)
	}
}

// TestRemoteFleetDeadWorkerAndReload kills a worker (503 to callers),
// then points the registry at a replacement and reloads: service must
// come back without restarting the coordinator. Only answered itemsets
// count towards ossm_bound_queries_total, so the 503 batch adds none.
func TestRemoteFleetDeadWorkerAndReload(t *testing.T) {
	d, ix := fixture(t, 1200, 17)
	urls, servers := startWorkerFleet(t, "retail", ix, d, 2)
	rc := newRemoteCoordinator(t, d, ix, urls)

	query := func(tag string) (int, map[string]any) {
		body := fmt.Sprintf(`{"index":"retail","itemsets":[[0],[1,2],[%s]],"no_cache":true}`, tag)
		return postJSON(t, http.DefaultClient, rc.url+"/v1/ubsup", body)
	}
	answered := func(want float64) {
		t.Helper()
		if got := scrape(t, rc.url+"/metrics")["ossm_bound_queries_total"]; got != want {
			t.Errorf("ossm_bound_queries_total = %v, want %v", got, want)
		}
	}
	if code, got := query("3"); code != http.StatusOK {
		t.Fatalf("healthy fleet = %d: %v", code, got)
	}
	answered(3)

	// Kill worker 1: the shard is unreachable, so the scatter fails and
	// the coordinator reports unavailability, not a wrong answer.
	servers[1].Close()
	if code, got := query("4"); code != http.StatusServiceUnavailable {
		t.Fatalf("dead worker = %d: %v, want 503", code, got)
	}
	answered(3)

	// Stand up a replacement worker for the same slice and reload the
	// fleet registry — the coordinator rebuilds clients on the next call.
	replacementURLs, _ := startWorkerFleet(t, "retail", ix, d, 2)
	rc.setAddrs([]string{urls[0], replacementURLs[1]})
	rc.s.ReloadFleets()
	code, got := query("5")
	if code != http.StatusOK {
		t.Fatalf("after reload = %d: %v", code, got)
	}
	want := make([]int64, 1)
	ix.UpperBoundBatch([]ossm.Itemset{ossm.NewItemset(5)}, want)
	bounds := got["bounds"].([]any)
	if b := int64(bounds[2].(map[string]any)["bound"].(float64)); b != want[0] {
		t.Fatalf("after reload bound = %d, want %d", b, want[0])
	}
	answered(6)
}

// TestRemoteFleetMissingEntryIsBadGateway stands a coordinator over
// workers that do not hold its entry. Each worker answers 404, and the
// coordinator must pass that on as 502: the request named an entry the
// coordinator holds, so the fault is the fleet's, not the client's.
func TestRemoteFleetMissingEntryIsBadGateway(t *testing.T) {
	d, ix := fixture(t, 600, 19)
	urls, _ := startWorkerFleet(t, "other", ix, d, 2)
	rc := newRemoteCoordinator(t, d, ix, urls)
	code, got := postJSON(t, http.DefaultClient, rc.url+"/v1/ubsup", `{"index":"retail","itemsets":[[0],[1,2]],"no_cache":true}`)
	if code != http.StatusBadGateway {
		t.Fatalf("workers without the entry = %d: %v, want 502", code, got)
	}
	if msg, _ := got["error"].(string); !strings.Contains(msg, "404") {
		t.Errorf("502 body %v does not carry the worker's 404", got)
	}
}
