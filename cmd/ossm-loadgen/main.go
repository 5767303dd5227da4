// Command ossm-loadgen drives batch ubsup traffic at the sharded
// scatter-gather serving path and reports p50/p95/p99 latency and
// throughput as JSON. It either builds a synthetic dataset and index and
// stands up an in-process shard fleet per requested shard count, or, with
// -target, drives a live coordinator over HTTP. Load is a closed loop
// (fixed concurrency, back-to-back requests) or an open loop (fixed
// arrival rate, no backpressure). With -fleetz it polls a coordinator's
// fleet health instead of generating load.
//
// In-process shards share this machine's cores, so the sweep measures
// coordination plus kernel work, not a remote fleet; the end-to-end
// serving benchmark is perfbench's serve-fleet workload.
//
// Usage:
//
//	ossm-loadgen -shards 1,2,4,8 -duration 5s -concurrency 8 -batch 64
//	ossm-loadgen -mode open -qps 500 -target http://127.0.0.1:7700 -index-name retail
//	ossm-loadgen -fleetz -target http://127.0.0.1:7700 -duration 10s
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	ossm "github.com/ossm-mining/ossm"
	"github.com/ossm-mining/ossm/internal/shard"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// config is the echoed benchmark setup.
type config struct {
	Mode        string  `json:"mode"` // closed | open
	Concurrency int     `json:"concurrency"`
	QPS         float64 `json:"qps,omitempty"`
	Batch       int     `json:"batch"`
	DurationNS  int64   `json:"duration_ns"`
	NumTx       int     `json:"num_tx"`
	NumSegments int     `json:"segments"`
	Seed        int64   `json:"seed"`
	NumCPU      int     `json:"num_cpu"`
	// Target is the coordinator URL when driving a live server over HTTP
	// instead of an in-process fleet.
	Target string `json:"target,omitempty"`
}

// point is one measurement window: one shard count of the in-process
// sweep, or the single -target run.
type point struct {
	Shards         int     `json:"shards"`
	Requests       int64   `json:"requests"`
	Errors         int64   `json:"errors"`
	P50NS          int64   `json:"p50_ns"`
	P95NS          int64   `json:"p95_ns"`
	P99NS          int64   `json:"p99_ns"`
	MeanNS         int64   `json:"mean_ns"`
	RequestsPerSec float64 `json:"requests_per_sec"`
	ItemsetsPerSec float64 `json:"itemsets_per_sec"`
	SpeedupVsOne   float64 `json:"speedup_vs_1"`
}

type report struct {
	Bench  string  `json:"bench"`
	Config config  `json:"config"`
	Points []point `json:"points"`
	Note   string  `json:"note"`
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ossm-loadgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		mode      = fs.String("mode", "closed", "load shape: closed (fixed concurrency) or open (fixed arrival rate)")
		conc      = fs.Int("concurrency", 8, "closed-loop worker count")
		qps       = fs.Float64("qps", 200, "open-loop arrival rate in requests per second")
		batch     = fs.Int("batch", 64, "itemsets per ubsup batch request")
		duration  = fs.Duration("duration", 3*time.Second, "measurement window per shard count")
		shards    = fs.String("shards", "1,2,4,8", "comma-separated shard counts to sweep")
		numTx     = fs.Int("tx", 20000, "synthetic dataset size in transactions")
		segments  = fs.Int("segments", 256, "index segment budget")
		seed      = fs.Int64("seed", 1, "generator seed")
		out       = fs.String("out", "", "write the JSON report here instead of stdout")
		target    = fs.String("target", "", "drive a live coordinator at this base URL over HTTP instead of an in-process fleet (ignores -shards)")
		indexName = fs.String("index-name", "", "registered index to query in -target mode")
		fleetz    = fs.Bool("fleetz", false, "poll GET /v1/fleetz on -target for -duration and print one health line per poll instead of generating load")
		fleetzInt = fs.Duration("fleetz-interval", time.Second, "poll period under -fleetz")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "ossm-loadgen: unexpected arguments: %v\n", fs.Args())
		return 2
	}
	var bad string
	switch {
	case *mode != "closed" && *mode != "open":
		bad = fmt.Sprintf("-mode must be closed or open, got %q", *mode)
	case *mode == "open" && !(*qps > 0 && *qps <= 1e9): // also rejects NaN
		bad = fmt.Sprintf("-qps must be in (0, 1e9] under -mode open, got %v", *qps)
	case *conc < 1:
		bad = fmt.Sprintf("-concurrency must be at least 1, got %d", *conc)
	case *batch < 1:
		bad = fmt.Sprintf("-batch must be at least 1, got %d", *batch)
	case *duration <= 0:
		bad = fmt.Sprintf("-duration must be positive, got %v", *duration)
	case *fleetzInt <= 0:
		bad = fmt.Sprintf("-fleetz-interval must be positive, got %v", *fleetzInt)
	}
	if bad != "" {
		fmt.Fprintf(stderr, "ossm-loadgen: %s\n", bad)
		return 2
	}
	if *fleetz {
		if *target == "" {
			fmt.Fprintln(stderr, "ossm-loadgen: -fleetz requires -target")
			return 2
		}
		return pollFleetz(ctx, strings.TrimSuffix(*target, "/"), *duration, *fleetzInt, stdout, stderr)
	}
	cfg := config{
		Mode: *mode, Concurrency: *conc, Batch: *batch,
		DurationNS: int64(*duration), Seed: *seed, NumCPU: runtime.NumCPU(),
	}
	if *mode == "open" {
		cfg.QPS = *qps
	}
	if *target != "" {
		if *indexName == "" {
			fmt.Fprintln(stderr, "ossm-loadgen: -target mode requires -index-name")
			return 2
		}
		cfg.Target = strings.TrimSuffix(*target, "/")
		return runTarget(ctx, cfg, *indexName, *out, stdout, stderr)
	}
	var counts []int
	for _, part := range strings.Split(*shards, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			fmt.Fprintf(stderr, "ossm-loadgen: bad -shards entry %q\n", part)
			return 2
		}
		counts = append(counts, n)
	}

	fmt.Fprintf(stderr, "ossm-loadgen: building %d-tx dataset and %d-segment index\n", *numTx, *segments)
	d, err := ossm.GenerateSkewed(ossm.DefaultSkewed(*numTx, *seed))
	if err != nil {
		fmt.Fprintf(stderr, "ossm-loadgen: %v\n", err)
		return 1
	}
	ix, err := ossm.Build(d, ossm.BuildOptions{Segments: *segments, Algorithm: ossm.RandomGreedy, Seed: *seed})
	if err != nil {
		fmt.Fprintf(stderr, "ossm-loadgen: %v\n", err)
		return 1
	}
	cfg.NumTx, cfg.NumSegments = *numTx, ix.NumSegments()
	pool := requestPool(*seed, ix.NumItems(), *batch)

	rep := report{
		Bench:  "loadgen-ubsup-scatter",
		Config: cfg,
		Note: "Latencies are fleet.Bounds wall times over in-process shards that share " +
			"this machine's cores, so the sweep only scales on multi-core hosts.",
	}
	var base float64
	for _, n := range counts {
		locals, err := shard.NewLocalShards(ix, nil, n, 0)
		var fleet *shard.Fleet
		if err == nil {
			fleet, err = shard.NewFleet(shard.Config{HedgeAfter: -1}, shard.Transports(locals))
		}
		if err != nil {
			fmt.Fprintf(stderr, "ossm-loadgen: %d shards: %v\n", n, err)
			return 1
		}
		pt := drive(ctx, cfg, pool, func(ctx context.Context, sets []ossm.Itemset) error {
			return fleet.Bounds(ctx, sets, make([]int64, len(sets)))
		})
		pt.Shards = n
		if n == 1 {
			base = pt.RequestsPerSec
		}
		if base > 0 {
			pt.SpeedupVsOne = pt.RequestsPerSec / base
		}
		rep.Points = append(rep.Points, pt)
		fmt.Fprintf(stderr, "ossm-loadgen: shards=%d req=%d err=%d p50=%v p95=%v p99=%v rps=%.1f\n",
			n, pt.Requests, pt.Errors,
			time.Duration(pt.P50NS), time.Duration(pt.P95NS), time.Duration(pt.P99NS), pt.RequestsPerSec)
	}
	return writeReport(rep, *out, stdout, stderr)
}

// requestPool pre-generates the request batches so the measurement loop
// does no allocation-heavy setup work of its own.
func requestPool(seed int64, numItems, batch int) [][]ossm.Itemset {
	r := rand.New(rand.NewSource(seed))
	pool := make([][]ossm.Itemset, 64)
	for i := range pool {
		pool[i] = randomBatch(r, numItems, batch)
	}
	return pool
}

// drive runs one measurement window of cfg's load shape, issuing each
// request through do with a batch from pool, and summarises the
// successful requests' latencies. Closed mode runs cfg.Concurrency
// workers back to back; open mode starts one request per 1/cfg.QPS tick
// without waiting for earlier ones.
func drive(ctx context.Context, cfg config, pool [][]ossm.Itemset,
	do func(context.Context, []ossm.Itemset) error) point {
	var (
		mu        sync.Mutex
		latencies []time.Duration
		errs      atomic.Int64
		wg        sync.WaitGroup
	)
	one := func(workerID, i int) {
		t0 := time.Now()
		if err := do(ctx, pool[(workerID*31+i)%len(pool)]); err != nil {
			errs.Add(1)
			return
		}
		d := time.Since(t0)
		mu.Lock()
		latencies = append(latencies, d)
		mu.Unlock()
	}

	deadline := time.Now().Add(time.Duration(cfg.DurationNS))
	start := time.Now()
	switch cfg.Mode {
	case "closed":
		for w := 0; w < cfg.Concurrency; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; time.Now().Before(deadline) && ctx.Err() == nil; i++ {
					one(w, i)
				}
			}(w)
		}
	case "open":
		ticker := time.NewTicker(time.Duration(float64(time.Second) / cfg.QPS))
		defer ticker.Stop()
	loop:
		for i := 0; time.Now().Before(deadline); i++ {
			select {
			case <-ticker.C:
				wg.Add(1)
				go func(i int) { defer wg.Done(); one(0, i) }(i)
			case <-ctx.Done():
				break loop
			}
		}
	}
	wg.Wait()
	elapsed := time.Since(start)

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	pt := point{Requests: int64(len(latencies)), Errors: errs.Load()}
	if len(latencies) > 0 {
		var sum time.Duration
		for _, l := range latencies {
			sum += l
		}
		pt.MeanNS = int64(sum) / int64(len(latencies))
		pt.P50NS = int64(percentile(latencies, 50))
		pt.P95NS = int64(percentile(latencies, 95))
		pt.P99NS = int64(percentile(latencies, 99))
		pt.RequestsPerSec = float64(len(latencies)) / elapsed.Seconds()
		pt.ItemsetsPerSec = pt.RequestsPerSec * float64(cfg.Batch)
	}
	return pt
}

// percentile reads the p-th percentile from sorted latencies.
func percentile(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := len(sorted) * p / 100
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// runTarget drives a live coordinator over HTTP with POST /v1/ubsup
// batches — the end-to-end smoke path for a remote shard fleet. The
// itemset domain comes from the server's own GET /v1/indexes row, so
// every generated batch is valid for whatever index the server loaded.
func runTarget(ctx context.Context, cfg config, index, out string, stdout, stderr io.Writer) int {
	numItems, err := fetchNumItems(ctx, cfg.Target, index)
	if err != nil {
		fmt.Fprintf(stderr, "ossm-loadgen: %v\n", err)
		return 1
	}
	httpc := &http.Client{Timeout: 30 * time.Second}
	pt := drive(ctx, cfg, requestPool(cfg.Seed, numItems, cfg.Batch), func(ctx context.Context, sets []ossm.Itemset) error {
		body, err := json.Marshal(map[string]any{"index": index, "itemsets": sets, "no_cache": true})
		if err != nil {
			return err
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, cfg.Target+"/v1/ubsup", bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := httpc.Do(req)
		if err != nil {
			return err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("POST /v1/ubsup: %s", resp.Status)
		}
		return nil
	})
	fmt.Fprintf(stderr, "ossm-loadgen: target=%s req=%d err=%d p50=%v p95=%v rps=%.1f\n",
		cfg.Target, pt.Requests, pt.Errors, time.Duration(pt.P50NS), time.Duration(pt.P95NS), pt.RequestsPerSec)
	return writeReport(report{
		Bench:  "loadgen-ubsup-target",
		Config: cfg,
		Points: []point{pt},
		Note: "Latencies are end-to-end POST /v1/ubsup wall times (HTTP round trip " +
			"included) against the live coordinator at target; shard topology and kernel " +
			"work belong to that server, not this process.",
	}, out, stdout, stderr)
}

// writeReport writes rep as indented JSON to the out file, or to stdout
// when out is empty.
func writeReport(rep report, out string, stdout, stderr io.Writer) int {
	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(stderr, "ossm-loadgen: %v\n", err)
		return 1
	}
	enc = append(enc, '\n')
	if out == "" {
		_, _ = stdout.Write(enc)
		return 0
	}
	if err := os.WriteFile(out, enc, 0o644); err != nil {
		fmt.Fprintf(stderr, "ossm-loadgen: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "ossm-loadgen: wrote %s\n", out)
	return 0
}

// pollFleetz is the -fleetz watch mode: it polls the coordinator's
// GET /v1/fleetz for the window and prints one line per poll — overall
// status, per-fleet shard/breaker roll-up, and the ingest backlog when
// the server runs a durable store. Exit status is 0 when the final poll
// answered (whatever its health), 1 when the endpoint never answered.
func pollFleetz(ctx context.Context, base string, window, interval time.Duration, stdout, stderr io.Writer) int {
	type fleetzShard struct {
		Shard   int    `json:"shard"`
		State   string `json:"state"`
		Breaker string `json:"breaker"`
	}
	type fleetzFleet struct {
		Index  string        `json:"index"`
		Shards []fleetzShard `json:"shards"`
	}
	type fleetzIngest struct {
		Dataset string `json:"dataset"`
		Seq     uint64 `json:"seq"`
		Backlog uint64 `json:"backlog"`
	}
	type fleetzBody struct {
		Status string        `json:"status"`
		Fleets []fleetzFleet `json:"fleets"`
		Ingest *fleetzIngest `json:"ingest"`
	}

	httpc := &http.Client{Timeout: 10 * time.Second}
	deadline := time.Now().Add(window)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	answered := false
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/fleetz", nil)
		if err != nil {
			fmt.Fprintf(stderr, "ossm-loadgen: %v\n", err)
			return 1
		}
		resp, err := httpc.Do(req)
		if err != nil {
			fmt.Fprintf(stdout, "fleetz: unreachable: %v\n", err)
		} else {
			var body fleetzBody
			derr := json.NewDecoder(resp.Body).Decode(&body)
			resp.Body.Close()
			switch {
			case resp.StatusCode != http.StatusOK:
				fmt.Fprintf(stdout, "fleetz: %s\n", resp.Status)
			case derr != nil:
				fmt.Fprintf(stdout, "fleetz: bad body: %v\n", derr)
			default:
				answered = true
				var parts []string
				for _, f := range body.Fleets {
					healthy, open := 0, 0
					for _, sh := range f.Shards {
						if sh.State == "healthy" {
							healthy++
						}
						if sh.Breaker == "open" {
							open++
						}
					}
					p := fmt.Sprintf("%s=%d/%d", f.Index, healthy, len(f.Shards))
					if open > 0 {
						p += fmt.Sprintf(" (%d breaker open)", open)
					}
					parts = append(parts, p)
				}
				line := fmt.Sprintf("fleetz: %s", body.Status)
				if len(parts) > 0 {
					line += " " + strings.Join(parts, " ")
				}
				if body.Ingest != nil {
					line += fmt.Sprintf(" ingest %s seq=%d backlog=%d",
						body.Ingest.Dataset, body.Ingest.Seq, body.Ingest.Backlog)
				}
				fmt.Fprintln(stdout, line)
			}
		}
		if !time.Now().Before(deadline) || ctx.Err() != nil {
			break
		}
		select {
		case <-ticker.C:
		case <-ctx.Done():
		}
	}
	if !answered {
		return 1
	}
	return 0
}

// fetchNumItems reads the named index's item-domain size from the
// coordinator's GET /v1/indexes listing.
func fetchNumItems(ctx context.Context, base, index string) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/indexes", nil)
	if err != nil {
		return 0, err
	}
	resp, err := (&http.Client{Timeout: 10 * time.Second}).Do(req)
	if err != nil {
		return 0, fmt.Errorf("fetching %s/v1/indexes: %w", base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("fetching %s/v1/indexes: %s", base, resp.Status)
	}
	var listing struct {
		Indexes []struct {
			Name     string `json:"name"`
			NumItems int    `json:"num_items"`
		} `json:"indexes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		return 0, fmt.Errorf("decoding index listing: %w", err)
	}
	for _, ix := range listing.Indexes {
		if ix.Name == index && ix.NumItems > 0 {
			return ix.NumItems, nil
		}
	}
	return 0, fmt.Errorf("index %q not found (or empty) in %s/v1/indexes", index, base)
}

// randomBatch draws batch itemsets of 1–4 items from the domain.
func randomBatch(r *rand.Rand, numItems, batch int) []ossm.Itemset {
	sets := make([]ossm.Itemset, batch)
	for i := range sets {
		k := 1 + r.Intn(4)
		items := make([]ossm.Item, 0, k)
		seen := map[ossm.Item]bool{}
		for len(items) < k {
			it := ossm.Item(r.Intn(numItems))
			if !seen[it] {
				seen[it] = true
				items = append(items, it)
			}
		}
		sets[i] = ossm.NewItemset(items...)
	}
	return sets
}
