package server

import (
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"testing"
	"time"

	ossm "github.com/ossm-mining/ossm"
	"github.com/ossm-mining/ossm/internal/wal"
)

// enableTestIngest opens a crash-model in-memory WAL store and wires it
// into the server under the entry name "ingest".
func enableTestIngest(t testing.TB, s *Server, cfg IngestConfig) *Ingester {
	t.Helper()
	store, _, err := wal.Open(wal.NewMemFS(), wal.Options{
		NumItems:      64,
		Appender:      ossm.AppenderOptions{PageSize: 2, MaxSegments: 4, CompactAt: 8},
		SnapshotEvery: 2,
	})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	t.Cleanup(func() { store.Close() })
	ing, err := s.EnableIngest("ingest", store, cfg)
	if err != nil {
		t.Fatalf("EnableIngest: %v", err)
	}
	t.Cleanup(ing.Close)
	return ing
}

func TestIngestDisabled(t *testing.T) {
	_, ts, _, _ := newTestServer(t, Config{})
	code, body := postJSON(t, ts.Client(), ts.URL+"/v1/ingest", `{"tx":[1]}`)
	if code != http.StatusNotFound {
		t.Fatalf("ingest on a server without a store: %d %v", code, body)
	}
}

func TestIngestEndToEnd(t *testing.T) {
	s, ts, _, _ := newTestServer(t, Config{})
	ing := enableTestIngest(t, s, IngestConfig{CompactEvery: 1, CompactInterval: 10 * time.Millisecond})

	code, body := postJSON(t, ts.Client(), ts.URL+"/v1/ingest", `{"tx":[3,1,2]}`)
	if code != http.StatusOK {
		t.Fatalf("single ingest: %d %v", code, body)
	}
	if body["seq"].(float64) != 1 || body["num_tx"].(float64) != 1 || body["dataset"] != "ingest" {
		t.Fatalf("single ingest response: %v", body)
	}
	code, body = postJSON(t, ts.Client(), ts.URL+"/v1/ingest", `{"batch":[[5],[6,7],[]]}`)
	if code != http.StatusOK || body["seq"].(float64) != 2 || body["ingested"].(float64) != 3 {
		t.Fatalf("batch ingest: %d %v", code, body)
	}

	// Invalid requests are rejected without consuming a sequence number.
	for _, bad := range []string{
		`{}`,
		`{"tx":[1],"batch":[[2]]}`,
		`{"tx":[9999]}`,
		`not json`,
	} {
		code, _ := postJSON(t, ts.Client(), ts.URL+"/v1/ingest", bad)
		if code != http.StatusBadRequest {
			t.Fatalf("bad request %q: status %d", bad, code)
		}
	}
	if ing.Store().Seq() != 2 {
		t.Fatalf("rejected requests advanced seq to %d", ing.Store().Seq())
	}

	// The compactor promotes the ingested data into the registry; the
	// entry then serves exact singleton bounds.
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, body = postJSONQuiet(ts.Client(), ts.URL+"/v1/ubsup", `{"index":"ingest","itemset":[5]}`)
		if code == http.StatusOK && body["num_tx"].(float64) == 4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("promotion never reached the registry: %d %v", code, body)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := *jsonBound(t, body); got != 1 {
		t.Fatalf("bound for item 5: %d, want 1", got)
	}

	// Ingest metrics moved.
	samples := scrape(t, ts.URL+"/metrics")
	if got := samples[`ossm_ingest_total{outcome="ok"}`]; got != 2 {
		t.Errorf("ossm_ingest_total{outcome=ok} = %v, want 2", got)
	}
	if got := samples[`ossm_ingest_total{outcome="invalid"}`]; got != 4 {
		t.Errorf("ossm_ingest_total{outcome=invalid} = %v, want 4", got)
	}
	if got := samples[`ossm_snapshot_total{outcome="ok"}`]; got != 1 {
		t.Errorf("ossm_snapshot_total{outcome=ok} = %v, want 1", got)
	}
	if got := samples["ossm_compaction_seconds_count"]; got < 1 {
		t.Errorf("ossm_compaction_seconds_count = %v, want >= 1", got)
	}
	if got := samples["ossm_wal_bytes"]; got != 0 {
		t.Errorf("ossm_wal_bytes = %v, want 0 right after the SnapshotEvery=2 snapshot", got)
	}
}

// TestIngestServedBoundsFreshAcrossSwaps promotes ingested data into
// deep maps (up to 96 single-transaction segments) answered by batch
// ubsup queries, then keeps appending: every compaction swap publishes a
// new immutable map, so the served bounds must track the ingested counts
// exactly. Any derived state cached across the swap would freeze them.
func TestIngestServedBoundsFreshAcrossSwaps(t *testing.T) {
	s, ts, _, _ := newTestServer(t, Config{})
	store, _, err := wal.Open(wal.NewMemFS(), wal.Options{
		NumItems:      8,
		Appender:      ossm.AppenderOptions{PageSize: 1, MaxSegments: 96, CompactAt: 128},
		SnapshotEvery: 64,
	})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	t.Cleanup(func() { store.Close() })
	ing, err := s.EnableIngest("ingest", store, IngestConfig{CompactEvery: 1, CompactInterval: time.Millisecond})
	if err != nil {
		t.Fatalf("EnableIngest: %v", err)
	}
	t.Cleanup(ing.Close)

	ingestPairs := func(n int) {
		t.Helper()
		batch := `{"batch":[[1,2]`
		for i := 1; i < n; i++ {
			batch += `,[1,2]`
		}
		batch += `]}`
		if code, body := postJSON(t, ts.Client(), ts.URL+"/v1/ingest", batch); code != http.StatusOK {
			t.Fatalf("ingest of %d pairs: %d %v", n, code, body)
		}
	}
	// Batch requests (≥2 itemsets) take the UpperBoundBatch path. Both
	// itemsets always co-occur, so their pair bound equals the exact
	// transaction count.
	waitPairBound := func(want int64) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			code, body := postJSONQuiet(ts.Client(), ts.URL+"/v1/ubsup",
				`{"index":"ingest","itemsets":[[1,2],[1]],"no_cache":true}`)
			if code == http.StatusOK {
				res := body["bounds"].([]any)
				pair := int64(res[0].(map[string]any)["bound"].(float64))
				single := int64(res[1].(map[string]any)["bound"].(float64))
				if pair == want && single == want {
					return
				}
				if pair > want || single > want {
					t.Fatalf("bounds (%d, %d) overshot the ingested count %d", pair, single, want)
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("bound never reached %d: %d %v", want, code, body)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	ingestPairs(80)
	waitPairBound(80)
	// Two more swaps past the first: each must serve fresh cells.
	ingestPairs(60)
	waitPairBound(140)
	ingestPairs(60)
	waitPairBound(200)
}

func jsonBound(t *testing.T, body map[string]any) *int64 {
	t.Helper()
	v, ok := body["bound"].(float64)
	if !ok {
		t.Fatalf("no bound in %v", body)
	}
	b := int64(v)
	return &b
}

// TestIngestConcurrentReadersDuringSwap hammers /v1/ubsup while the
// compactor hot-swaps promoted indexes under the readers. The invariants
// under -race: no reader ever sees an error once the entry exists, and
// singleton bounds are exact in every OSSM, so the bound for a tracked
// item must be non-decreasing across swaps — a reader that caught a
// half-installed index would violate one of the two.
func TestIngestConcurrentReadersDuringSwap(t *testing.T) {
	s, ts, _, _ := newTestServer(t, Config{})
	enableTestIngest(t, s, IngestConfig{CompactEvery: 1, CompactInterval: time.Millisecond})

	// Seed one record so the entry exists before readers start.
	if code, body := postJSON(t, ts.Client(), ts.URL+"/v1/ingest", `{"tx":[0]}`); code != http.StatusOK {
		t.Fatalf("seed ingest: %d %v", code, body)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if code, _ := postJSONQuiet(ts.Client(), ts.URL+"/v1/ubsup", `{"index":"ingest","itemset":[0]}`); code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("seed promotion never landed")
		}
		time.Sleep(5 * time.Millisecond)
	}

	const (
		readers   = 4
		writes    = 120
		perReader = 200
	)
	var wg sync.WaitGroup
	errCh := make(chan error, readers+1)

	wg.Add(1)
	go func() {
		defer wg.Done()
		r := rand.New(rand.NewSource(11))
		for i := 0; i < writes; i++ {
			tx := fmt.Sprintf(`{"tx":[0,%d]}`, 1+r.Intn(60))
			if code, body := postJSONQuiet(ts.Client(), ts.URL+"/v1/ingest", tx); code != http.StatusOK {
				errCh <- fmt.Errorf("ingest %d: %d %v", i, code, body)
				return
			}
		}
	}()

	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var last int64 = -1
			for i := 0; i < perReader; i++ {
				code, body := postJSONQuiet(ts.Client(), ts.URL+"/v1/ubsup", `{"index":"ingest","itemset":[0],"no_cache":true}`)
				if code != http.StatusOK {
					errCh <- fmt.Errorf("reader %d query %d: status %d %v", g, i, code, body)
					return
				}
				bound := int64(body["bound"].(float64))
				if bound < last {
					errCh <- fmt.Errorf("reader %d: singleton bound regressed %d -> %d across a swap", g, last, bound)
					return
				}
				last = bound
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}
