package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	ossm "github.com/ossm-mining/ossm"
	"github.com/ossm-mining/ossm/internal/dataset"
	"github.com/ossm-mining/ossm/internal/mining"
)

// fixture builds a deterministic dataset and an index over it.
func fixture(t testing.TB, numTx int, seed int64) (*ossm.Dataset, *ossm.Index) {
	t.Helper()
	d, err := ossm.GenerateSkewed(ossm.DefaultSkewed(numTx, seed))
	if err != nil {
		t.Fatal(err)
	}
	ix, err := ossm.Build(d, ossm.BuildOptions{Segments: 16, Algorithm: ossm.RandomGreedy, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return d, ix
}

// newTestServer stands up a Server with one entry ("retail": dataset +
// index) behind httptest.
func newTestServer(t testing.TB, cfg Config) (*Server, *httptest.Server, *ossm.Dataset, *ossm.Index) {
	t.Helper()
	d, ix := fixture(t, 2000, 7)
	s := New(cfg)
	if err := s.AddIndex("retail", ix); err != nil {
		t.Fatal(err)
	}
	if err := s.AddDataset("retail", d); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, d, ix
}

// postJSON posts body to url and returns the status code and decoded
// response body.
func postJSON(t testing.TB, client *http.Client, url string, body string) (int, map[string]any) {
	t.Helper()
	resp, err := client.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if len(raw) > 0 {
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("status %d: non-JSON body %q: %v", resp.StatusCode, raw, err)
		}
	}
	return resp.StatusCode, out
}

func getJSON(t testing.TB, url string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil && err != io.EOF {
		t.Fatalf("decoding body: %v", err)
	}
	return resp.StatusCode, out
}

func TestHealthz(t *testing.T) {
	_, ts, _, _ := newTestServer(t, Config{})
	code, body := getJSON(t, ts.URL+"/healthz")
	if code != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("healthz = %d %v", code, body)
	}
	// Wrong method is rejected by the router.
	resp, err := http.Post(ts.URL+"/healthz", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /healthz = %d, want 405", resp.StatusCode)
	}
}

func TestIndexesListing(t *testing.T) {
	s, ts, d, ix := newTestServer(t, Config{})
	code, body := getJSON(t, ts.URL+"/v1/indexes")
	if code != http.StatusOK {
		t.Fatalf("indexes = %d", code)
	}
	list := body["indexes"].([]any)
	if len(list) != 1 {
		t.Fatalf("listed %d entries, want 1", len(list))
	}
	row := list[0].(map[string]any)
	if row["name"] != "retail" || row["has_dataset"] != true || row["has_index"] != true {
		t.Errorf("row = %v", row)
	}
	if int(row["segments"].(float64)) != ix.NumSegments() {
		t.Errorf("segments = %v, want %d", row["segments"], ix.NumSegments())
	}
	if int(row["num_tx"].(float64)) != d.NumTx() {
		t.Errorf("num_tx = %v, want %d", row["num_tx"], d.NumTx())
	}
	if int(row["version"].(float64)) != 1 {
		t.Errorf("version = %v, want 1", row["version"])
	}
	// Swapping bumps the version and the swap counter.
	if err := s.reg.Swap("retail", ix); err != nil {
		t.Fatal(err)
	}
	_, body = getJSON(t, ts.URL+"/v1/indexes")
	row = body["indexes"].([]any)[0].(map[string]any)
	if int(row["version"].(float64)) != 2 || int(row["swaps"].(float64)) != 1 {
		t.Errorf("after swap: %v", row)
	}
}

func TestUbsupSingleAndCached(t *testing.T) {
	_, ts, _, ix := newTestServer(t, Config{})
	// Deliberately unsorted with a duplicate: the server canonicalizes.
	body := `{"index":"retail","itemset":[5,2,5]}`
	want := ix.UpperBound(ossm.NewItemset(5, 2))

	code, out := postJSON(t, ts.Client(), ts.URL+"/v1/ubsup", body)
	if code != http.StatusOK {
		t.Fatalf("ubsup = %d %v", code, out)
	}
	if got := int64(out["bound"].(float64)); got != want {
		t.Errorf("bound = %d, want %d", got, want)
	}
	bounds := out["bounds"].([]any)
	first := bounds[0].(map[string]any)
	if first["cached"] != false {
		t.Errorf("first query reported cached")
	}
	// Same set in a different order must hit the cache.
	code, out = postJSON(t, ts.Client(), ts.URL+"/v1/ubsup", `{"index":"retail","itemset":[2,5]}`)
	if code != http.StatusOK {
		t.Fatalf("second ubsup = %d", code)
	}
	first = out["bounds"].([]any)[0].(map[string]any)
	if first["cached"] != true {
		t.Errorf("permuted repeat query missed the cache")
	}
	if got := int64(out["bound"].(float64)); got != want {
		t.Errorf("cached bound = %d, want %d", got, want)
	}
}

func TestUbsupBatch(t *testing.T) {
	_, ts, _, ix := newTestServer(t, Config{Workers: 4})
	sets := [][]ossm.Item{{1}, {2, 3}, {4, 5, 6}, {1, 2, 3, 4}}
	payload, _ := json.Marshal(map[string]any{"index": "retail", "itemsets": sets})
	code, out := postJSON(t, ts.Client(), ts.URL+"/v1/ubsup", string(payload))
	if code != http.StatusOK {
		t.Fatalf("batch = %d %v", code, out)
	}
	bounds := out["bounds"].([]any)
	if len(bounds) != len(sets) {
		t.Fatalf("%d bounds for %d itemsets", len(bounds), len(sets))
	}
	for i, b := range bounds {
		row := b.(map[string]any)
		want := ix.UpperBound(ossm.NewItemset(sets[i]...))
		if got := int64(row["bound"].(float64)); got != want {
			t.Errorf("itemset %v: bound %d, want %d", sets[i], got, want)
		}
	}
	if out["bound"] != nil {
		t.Errorf("batch response carries a single bound: %v", out["bound"])
	}
	// Repeat: everything should come from the cache now.
	_, out = postJSON(t, ts.Client(), ts.URL+"/v1/ubsup", string(payload))
	if hits := int(out["cache_hits"].(float64)); hits != len(sets) {
		t.Errorf("cache_hits = %d, want %d", hits, len(sets))
	}
}

func TestUbsupErrors(t *testing.T) {
	_, ts, _, _ := newTestServer(t, Config{MaxBatch: 4})
	cases := []struct {
		name string
		body string
		code int
	}{
		{"malformed JSON", `{"index": retail}`, http.StatusBadRequest},
		{"unknown field", `{"index":"retail","itemset":[1],"bogus":1}`, http.StatusBadRequest},
		{"trailing data", `{"index":"retail","itemset":[1]} {"x":2}`, http.StatusBadRequest},
		{"neither field", `{"index":"retail"}`, http.StatusBadRequest},
		{"both fields", `{"index":"retail","itemset":[1],"itemsets":[[2]]}`, http.StatusBadRequest},
		{"empty itemset", `{"index":"retail","itemset":[]}`, http.StatusBadRequest},
		{"out of domain", `{"index":"retail","itemset":[999999]}`, http.StatusBadRequest},
		{"unknown index", `{"index":"nope","itemset":[1]}`, http.StatusNotFound},
		{"batch too large", `{"index":"retail","itemsets":[[1],[2],[3],[4],[5]]}`, http.StatusBadRequest},
		{"batch with empty member", `{"index":"retail","itemsets":[[1],[]]}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, out := postJSON(t, ts.Client(), ts.URL+"/v1/ubsup", tc.body)
			if code != tc.code {
				t.Fatalf("status = %d, want %d (%v)", code, tc.code, out)
			}
			if out["error"] == "" {
				t.Errorf("error body missing: %v", out)
			}
		})
	}
}

func TestMine(t *testing.T) {
	_, ts, d, ix := newTestServer(t, Config{})
	// Reference run through the library.
	minCount := ossm.MinCountFor(d, 0.02)
	ref, err := ossm.MineAt("apriori", d, minCount, ossm.MineOptions{Filter: ix.PrunerAt(minCount)})
	if err != nil {
		t.Fatal(err)
	}

	code, out := postJSON(t, ts.Client(), ts.URL+"/v1/mine",
		`{"index":"retail","miner":"apriori","support":0.02,"top":5}`)
	if code != http.StatusOK {
		t.Fatalf("mine = %d %v", code, out)
	}
	if got := int(out["num_frequent"].(float64)); got != ref.NumFrequent() {
		t.Errorf("num_frequent = %d, want %d", got, ref.NumFrequent())
	}
	if out["pruned"] != true {
		t.Errorf("pruned = %v, want true (entry has an index)", out["pruned"])
	}
	if out["telemetry"] == nil {
		t.Error("telemetry report missing from mine response")
	}
	if int64(out["min_count"].(float64)) != minCount {
		t.Errorf("min_count = %v, want %d", out["min_count"], minCount)
	}
	levels := out["levels"].([]any)
	if len(levels) != len(ref.Levels) {
		t.Errorf("%d levels, want %d", len(levels), len(ref.Levels))
	}
	top := out["top"].([]any)
	if len(top) == 0 || len(top) > 5 {
		t.Fatalf("top has %d entries", len(top))
	}
	// Top is sorted by descending support.
	prev := int64(1 << 62)
	for _, e := range top {
		sup := int64(e.(map[string]any)["support"].(float64))
		if sup > prev {
			t.Errorf("top not sorted: %d after %d", sup, prev)
		}
		prev = sup
	}

	// An unpruned run mines the same sets.
	code, out2 := postJSON(t, ts.Client(), ts.URL+"/v1/mine",
		`{"index":"retail","miner":"eclat","support":0.02,"use_ossm":false,"top":-1}`)
	if code != http.StatusOK {
		t.Fatalf("unpruned mine = %d %v", code, out2)
	}
	if out2["pruned"] != false {
		t.Errorf("pruned = %v, want false", out2["pruned"])
	}
	if got := int(out2["num_frequent"].(float64)); got != ref.NumFrequent() {
		t.Errorf("eclat num_frequent = %d, want %d", got, ref.NumFrequent())
	}
	if _, ok := out2["top"]; ok {
		t.Error("top echoed despite top:-1")
	}
}

func TestMineErrors(t *testing.T) {
	s, ts, _, _ := newTestServer(t, Config{})
	// An entry with an index but no dataset cannot mine.
	_, ixOnly := fixture(t, 300, 11)
	if err := s.AddIndex("indexonly", ixOnly); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		body string
		code int
	}{
		{"malformed JSON", `{`, http.StatusBadRequest},
		{"unknown miner", `{"index":"retail","miner":"banana","support":0.1}`, http.StatusBadRequest},
		{"unknown index", `{"index":"nope","support":0.1}`, http.StatusNotFound},
		{"no dataset", `{"index":"indexonly","support":0.1}`, http.StatusBadRequest},
		{"no threshold", `{"index":"retail"}`, http.StatusBadRequest},
		{"two thresholds", `{"index":"retail","support":0.1,"min_count":5}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, out := postJSON(t, ts.Client(), ts.URL+"/v1/mine", tc.body)
			if code != tc.code {
				t.Fatalf("status = %d, want %d (%v)", code, tc.code, out)
			}
		})
	}
}

// sleepyName is a test-only miner that stalls long enough for a request
// deadline to fire deterministically mid-run.
const sleepyName = "sleepy-test-miner"

func init() {
	mining.Register(sleepyName, func(_ *dataset.Dataset, minCount int64, _ mining.Options) (*mining.Result, error) {
		time.Sleep(300 * time.Millisecond)
		return &mining.Result{MinCount: minCount}, nil
	})
}

func TestRequestTimeout(t *testing.T) {
	// A 1 ns deadline is already expired when the handler runs: both
	// endpoints answer 504 without doing work.
	_, ts, _, _ := newTestServer(t, Config{RequestTimeout: time.Nanosecond})
	code, out := postJSON(t, ts.Client(), ts.URL+"/v1/ubsup", `{"index":"retail","itemset":[1]}`)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("ubsup under expired deadline = %d %v", code, out)
	}
	code, _ = postJSON(t, ts.Client(), ts.URL+"/v1/mine", `{"index":"retail","support":0.1}`)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("mine under expired deadline = %d", code)
	}
}

func TestMineDeadlineMidRun(t *testing.T) {
	// The sleepy miner stalls 300 ms; a 50 ms deadline fires mid-run and
	// the handler answers 504 while the run finishes in the background.
	_, ts, _, _ := newTestServer(t, Config{RequestTimeout: 50 * time.Millisecond})
	code, out := postJSON(t, ts.Client(), ts.URL+"/v1/mine",
		fmt.Sprintf(`{"index":"retail","miner":%q,"support":0.1}`, sleepyName))
	if code != http.StatusGatewayTimeout {
		t.Fatalf("mid-run deadline = %d %v", code, out)
	}
	if !strings.Contains(out["error"].(string), "deadline") {
		t.Errorf("error = %v", out["error"])
	}
}

// countedName is a test-only miner that sleeps like sleepyName and
// records how many of its runs are mining at once.
const countedName = "counted-test-miner"

var countedRunning, countedPeak atomic.Int64

func init() {
	mining.Register(countedName, func(_ *dataset.Dataset, minCount int64, _ mining.Options) (*mining.Result, error) {
		n := countedRunning.Add(1)
		for {
			p := countedPeak.Load()
			if n <= p || countedPeak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(300 * time.Millisecond)
		countedRunning.Add(-1)
		return &mining.Result{MinCount: minCount}, nil
	})
}

// TestMineSlotHeldUntilRunEnds pins admission to the mining run, not to
// the handler: a run that outlives its 50 ms deadline keeps its slot, so
// back-to-back requests wait for it and time out instead of mining
// beside it, and ossm_mine_inflight counts the run until it ends.
func TestMineSlotHeldUntilRunEnds(t *testing.T) {
	_, ts, _, _ := newTestServer(t, Config{MineConcurrency: 1, RequestTimeout: 50 * time.Millisecond})
	countedPeak.Store(0)
	body := fmt.Sprintf(`{"index":"retail","miner":%q,"support":0.1}`, countedName)
	done := make(chan []int, 1)
	go func() {
		var codes []int
		for i := 0; i < 4; i++ {
			code, _ := postJSONQuiet(ts.Client(), ts.URL+"/v1/mine", body)
			codes = append(codes, code)
		}
		done <- codes
	}()
	var codes []int
	deadline := time.Now().Add(5 * time.Second)
	for codes == nil || countedRunning.Load() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("mining runs did not finish within 5s")
		}
		if n := countedRunning.Load(); n > 1 {
			t.Fatalf("%d runs mining at once with MineConcurrency 1", n)
		}
		if got := scrape(t, ts.URL+"/metrics")["ossm_mine_inflight"]; got > 1 {
			t.Fatalf("ossm_mine_inflight = %v with MineConcurrency 1", got)
		}
		select {
		case codes = <-done:
		case <-time.After(5 * time.Millisecond):
		}
	}
	for i, code := range codes {
		if code != http.StatusGatewayTimeout {
			t.Fatalf("call %d = %d, want 504", i, code)
		}
	}
	if p := countedPeak.Load(); p != 1 {
		t.Fatalf("peak concurrent runs = %d, want 1", p)
	}
	// The slot comes back once the run has ended.
	for {
		got, ok := scrape(t, ts.URL+"/metrics")["ossm_mine_inflight"]
		if !ok {
			t.Fatal("ossm_mine_inflight missing from the exposition")
		}
		if got == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("ossm_mine_inflight = %v after every run ended, want 0", got)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestMaxBodyBytes(t *testing.T) {
	_, ts, _, _ := newTestServer(t, Config{MaxBodyBytes: 64})
	big := `{"index":"retail","itemset":[` + strings.Repeat("1,", 200) + `1]}`
	code, _ := postJSON(t, ts.Client(), ts.URL+"/v1/ubsup", big)
	if code != http.StatusBadRequest {
		t.Fatalf("oversized body = %d, want 400", code)
	}
}

// TestMetricsEndpoint checks that known traffic shows up, exactly, on
// both metrics paths — they serve the same Prometheus exposition.
func TestMetricsEndpoint(t *testing.T) {
	_, ts, _, _ := newTestServer(t, Config{})
	// Generate traffic: two queries (second cached), one mine, one 404.
	postJSON(t, ts.Client(), ts.URL+"/v1/ubsup", `{"index":"retail","itemset":[1,2]}`)
	postJSON(t, ts.Client(), ts.URL+"/v1/ubsup", `{"index":"retail","itemset":[1,2]}`)
	postJSON(t, ts.Client(), ts.URL+"/v1/mine", `{"index":"retail","support":0.1}`)
	postJSON(t, ts.Client(), ts.URL+"/v1/ubsup", `{"index":"nope","itemset":[1]}`)

	for _, path := range []string{"/metrics", "/v1/metrics"} {
		m := scrape(t, ts.URL+path)
		for series, want := range map[string]float64{
			`ossm_http_requests_total{route="/v1/ubsup",status="200"}`:   2,
			`ossm_http_requests_total{route="/v1/ubsup",status="404"}`:   1,
			`ossm_http_requests_total{route="/v1/mine",status="200"}`:    1,
			`ossm_http_request_duration_seconds_count{route="/v1/mine"}`: 1,
			"ossm_bound_queries_total":                                   2,
			`ossm_mine_runs_total{miner="apriori"}`:                      1,
			"ossm_cache_hits_total":                                      1,
			"ossm_cache_misses_total":                                    1,
			"ossm_cache_entries":                                         1,
			"ossm_indexes":                                               1,
		} {
			if got, ok := m[series]; !ok || got != want {
				t.Errorf("%s: %s = %v (present %v), want %v", path, series, got, ok, want)
			}
		}
		if got := m[`ossm_mine_candidates_total{stage="generated"}`]; got <= 0 {
			t.Errorf("%s: generated candidates = %v, want > 0", path, got)
		}
		if _, ok := m["go_goroutines"]; !ok {
			t.Errorf("%s: runtime block missing", path)
		}
	}
}

func TestRegistryContracts(t *testing.T) {
	d, ix := fixture(t, 300, 5)
	r := NewRegistry()
	if err := r.AddIndex("", nil); err == nil {
		t.Error("AddIndex accepted empty name / nil index")
	}
	if err := r.AddIndex("a", ix); err != nil {
		t.Fatal(err)
	}
	if err := r.AddIndex("a", ix); err == nil {
		t.Error("duplicate AddIndex accepted")
	}
	if err := r.Swap("missing", ix); err == nil {
		t.Error("Swap of unknown index accepted")
	}
	if err := r.Swap("a", nil); err == nil {
		t.Error("Swap with nil index accepted")
	}
	if err := r.AddDataset("a", d); err != nil {
		t.Fatal(err)
	}
	if err := r.AddDataset("a", d); err == nil {
		t.Error("duplicate AddDataset accepted")
	}
	// Dataset-first entries accept a late index at a bumped version.
	if err := r.AddDataset("b", d); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := r.Lookup("b"); ok {
		t.Error("dataset-only entry serves an index")
	}
	if err := r.AddIndex("b", ix); err != nil {
		t.Fatal(err)
	}
	if _, v, ok := r.Lookup("b"); !ok || v != 1 {
		t.Errorf("late index: ok=%v version=%d", ok, v)
	}
}

// TestConcurrentQueriesAndSwaps is the serving soak: 32+ goroutines mix
// HTTP bound queries, batch queries, mining runs and streaming snapshot
// swaps. Run under -race (make test does) it is the data-race gate for
// the whole serving path; every bound answered must match one of the
// index generations ever registered.
func TestConcurrentQueriesAndSwaps(t *testing.T) {
	s, ts, d, ix := newTestServer(t, Config{Workers: 4, CacheSize: 64})

	// Build the swap generations: streaming appender snapshots over
	// growing prefixes of a second dataset.
	app, err := ossm.NewAppender(d.NumItems(), ossm.AppenderOptions{PageSize: 50, MaxSegments: 8})
	if err != nil {
		t.Fatal(err)
	}
	generations := []*ossm.Index{ix}
	for g := 0; g < 3; g++ {
		for i := 0; i < d.NumTx(); i += 3 {
			if err := app.Add(d.Tx(i)); err != nil {
				t.Fatal(err)
			}
		}
		snap, err := ossm.SnapshotIndex(app)
		if err != nil {
			t.Fatal(err)
		}
		generations = append(generations, snap)
	}

	// Acceptable bounds per probe itemset: one per generation.
	probes := make([]ossm.Itemset, 24)
	rng := rand.New(rand.NewSource(42))
	for i := range probes {
		n := 1 + rng.Intn(3)
		items := make([]ossm.Item, n)
		for j := range items {
			items[j] = ossm.Item(rng.Intn(d.NumItems()))
		}
		probes[i] = ossm.NewItemset(items...)
	}
	valid := make([]map[int64]bool, len(probes))
	for i, p := range probes {
		valid[i] = make(map[int64]bool, len(generations))
		for _, g := range generations {
			valid[i][g.UpperBound(p)] = true
		}
	}

	const clients = 40
	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for iter := 0; iter < 30; iter++ {
				switch {
				case c%8 == 0: // swap clients
					if err := s.reg.Swap("retail", generations[rng.Intn(len(generations))]); err != nil {
						errc <- err
						return
					}
				case c%8 == 1 && iter%10 == 0: // occasional miner
					code, out := postJSONQuiet(ts.Client(), ts.URL+"/v1/mine", `{"index":"retail","support":0.2,"top":-1}`)
					if code != http.StatusOK {
						errc <- fmt.Errorf("mine: status %d: %v", code, out)
						return
					}
				default: // query clients
					pi := rng.Intn(len(probes))
					payload, _ := json.Marshal(map[string]any{"index": "retail", "itemset": probes[pi]})
					code, out := postJSONQuiet(ts.Client(), ts.URL+"/v1/ubsup", string(payload))
					if code != http.StatusOK {
						errc <- fmt.Errorf("ubsup: status %d: %v", code, out)
						return
					}
					got := int64(out["bound"].(float64))
					if !valid[pi][got] {
						errc <- fmt.Errorf("itemset %v: bound %d matches no generation %v", probes[pi], got, valid[pi])
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// postJSONQuiet is postJSON without the testing.TB plumbing (safe inside
// goroutines).
func postJSONQuiet(client *http.Client, url, body string) (int, map[string]any) {
	resp, err := client.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return 0, map[string]any{"transport": err.Error()}
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var out map[string]any
	_ = json.Unmarshal(raw, &out)
	return resp.StatusCode, out
}

func TestServeGracefulShutdown(t *testing.T) {
	_, ix := fixture(t, 300, 3)
	s := New(Config{})
	if err := s.AddIndex("a", ix); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, ln) }()

	url := "http://" + ln.Addr().String()
	var resp *http.Response
	for i := 0; i < 50; i++ {
		resp, err = http.Get(url + "/healthz")
		if err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("server never came up: %v", err)
	}
	resp.Body.Close()

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v after graceful shutdown", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after cancel")
	}
}
