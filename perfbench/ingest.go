package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	ossm "github.com/ossm-mining/ossm"
	"github.com/ossm-mining/ossm/internal/server"
	"github.com/ossm-mining/ossm/internal/wal"
)

const (
	ingestName    = "ingest"
	ingestItems   = 1000
	writeBatch    = 16
	preloadTx     = 64 * writeBatch // 64 records: exactly one count-triggered compaction
	writeRate     = 3               // records per second, open loop
	readPool      = 8192
	zipfS         = 1.1
	snapshotEvery = 256 // ossm-serve's -ingest-snapshot-every default
)

// ingestInputs is the serve-ingest set-up's product and running state.
type ingestInputs struct {
	stream *ossm.Dataset // preload, then the writer's continuation
	bits   [][]uint64    // per-item transaction bitsets over the stream
	srv    *proc
	walDir string
	sets   [][]ossm.Itemset // read batches (Zipf draws from one pool)
	bodies [][]byte

	cursor int          // next stream transaction to write
	sent   atomic.Int64 // transactions sent, preload included
	acked  [][2]int     // acknowledged records as [lo, hi) stream ranges
}

// setupIngest generates the stream, starts ossm-serve -ingest on a fresh
// WAL directory, preloads it and waits until the compaction backlog has
// drained.
func setupIngest(ctx context.Context, cfg runConfig, dir string) (*ingestInputs, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	phases := 1.0
	if cfg.trace {
		phases = 2
	}
	records := int(math.Ceil(writeRate * (phases*(cfg.warmup+cfg.window).Seconds() + 5)))
	d, err := driftQuest(preloadTx+records*writeBatch, cfg.seed)
	if err != nil {
		return nil, err
	}
	in := &ingestInputs{stream: d, walDir: filepath.Join(dir, "wal")}
	in.bits = make([][]uint64, ingestItems)
	words := (d.NumTx() + 63) / 64
	for it := range in.bits {
		in.bits[it] = make([]uint64, words)
	}
	for t := 0; t < d.NumTx(); t++ {
		for _, it := range d.Tx(t) {
			in.bits[it][t/64] |= 1 << (t % 64)
		}
	}
	r := rand.New(rand.NewSource(cfg.seed))
	pool := drawItemsets(r, readPool, ingestItems)
	zipf := rand.NewZipf(r, zipfS, 1, readPool-1)
	for b := 0; b < numBatches; b++ {
		sets := make([]ossm.Itemset, batchSize)
		for i := range sets {
			sets[i] = pool[zipf.Uint64()]
		}
		in.sets = append(in.sets, sets)
		in.bodies = append(in.bodies, ubsupBody(ingestName, sets, false))
	}

	if err := os.MkdirAll(in.walDir, 0o755); err != nil {
		return nil, err
	}
	in.srv, err = startServe(ctx, cfg.serveBin, filepath.Join(dir, "ingest.log"),
		"-ingest", ingestName+"="+in.walDir, "-ingest-items", fmt.Sprint(ingestItems))
	if err != nil {
		return nil, err
	}
	client := newHTTPClient(1)
	for in.cursor < preloadTx {
		if _, _, err := in.write(client, writeBatch); err != nil {
			in.srv.stop()
			return nil, fmt.Errorf("preload: %w", err)
		}
	}
	if err := in.drain(ctx); err != nil {
		in.srv.stop()
		return nil, err
	}
	return in, nil
}

// write sends the next n stream transactions as one record and checks
// the acknowledgement.
func (in *ingestInputs) write(c *http.Client, n int) (time.Time, time.Time, error) {
	lo, hi := in.cursor, in.cursor+n
	if hi > in.stream.NumTx() {
		return time.Time{}, time.Time{}, fmt.Errorf("write stream exhausted at %d transactions", lo)
	}
	in.cursor = hi
	req := server.IngestRequest{Batch: make([][]ossm.Item, n)}
	for i := range req.Batch {
		req.Batch[i] = in.stream.Tx(lo + i)
	}
	body, err := json.Marshal(req)
	if err != nil {
		return time.Time{}, time.Time{}, err
	}
	in.sent.Store(int64(hi))
	sent := time.Now()
	raw, _, err := post(c, in.srv.url("/v1/ingest"), body)
	acked := time.Now()
	if err != nil {
		return sent, acked, err
	}
	var ack server.IngestResponse
	if err := json.Unmarshal(raw, &ack); err != nil {
		return sent, acked, err
	}
	in.acked = append(in.acked, [2]int{lo, hi})
	if ack.Ingested != n || ack.NumTx != int64(in.ackedTx()) {
		return sent, acked, fmt.Errorf("%w: ack of %d tx reports num_tx %d, want %d", errWrong, ack.Ingested, ack.NumTx, in.ackedTx())
	}
	return sent, acked, nil
}

func (in *ingestInputs) ackedTx() int {
	n := 0
	for _, r := range in.acked {
		n += r[1] - r[0]
	}
	return n
}

// fleetz reads the ingest ledger.
func (in *ingestInputs) fleetz() (server.FleetzIngest, error) {
	var fz server.FleetzResponse
	if err := getJSON(in.srv.url("/v1/fleetz"), &fz); err != nil {
		return server.FleetzIngest{}, err
	}
	if fz.Ingest == nil {
		return server.FleetzIngest{}, fmt.Errorf("/v1/fleetz has no ingest ledger")
	}
	return *fz.Ingest, nil
}

// drain waits until every acknowledged record is promoted.
func (in *ingestInputs) drain(ctx context.Context) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		led, err := in.fleetz()
		if err != nil {
			return err
		}
		if led.Backlog == 0 && led.NumTx == int64(in.ackedTx()) {
			return nil
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			return fmt.Errorf("compaction backlog of %d records did not drain", led.Backlog)
		}
		time.Sleep(time.Millisecond)
	}
}

// support is the exact support of x over the first n stream
// transactions.
func (in *ingestInputs) support(x ossm.Itemset, n int) int64 {
	full, rem := n/64, n%64
	var total int
	for w := 0; w <= full && w < len(in.bits[0]); w++ {
		word := ^uint64(0)
		if w == full {
			if rem == 0 {
				break
			}
			word = 1<<rem - 1
		}
		for _, it := range x {
			word &= in.bits[it][w]
		}
		total += bits.OnesCount64(word)
	}
	return int64(total)
}

// checkRead verifies a ubsup answer against exact supports over the
// transactions the answering index covers.
func (in *ingestInputs) checkRead(raw []byte, sets []ossm.Itemset) (ubsupReply, error) {
	var rep ubsupReply
	if err := json.Unmarshal(raw, &rep); err != nil {
		return rep, err
	}
	if len(rep.Bounds) != len(sets) {
		return rep, fmt.Errorf("%w: %d bounds for %d itemsets", errWrong, len(rep.Bounds), len(sets))
	}
	if rep.NumTx < preloadTx || int64(rep.NumTx) > in.sent.Load() {
		return rep, fmt.Errorf("%w: index covers %d tx, outside [%d, %d]", errWrong, rep.NumTx, preloadTx, in.sent.Load())
	}
	for i, b := range rep.Bounds {
		if sup := in.support(sets[i], rep.NumTx); b.Bound < sup {
			return rep, fmt.Errorf("%w: ubsup %v = %d below its support %d", errWrong, sets[i], b.Bound, sup)
		}
	}
	return rep, nil
}

// ingestWindow is one run of reads beside writes.
type ingestWindow struct {
	reads, writes window
	late          []time.Duration // how late the writer sent each record
	hits, itemset int64
	last          []byte
}

// loop runs the open-loop writer and the closed-loop reader together:
// warm-up ops are discarded from both, then both are timed for dur.
func (in *ingestInputs) loop(ctx context.Context, cfg runConfig, traced bool) ingestWindow {
	var out ingestWindow
	start := time.Now()
	warmEnd := start.Add(cfg.warmup)
	end := warmEnd.Add(cfg.window)
	period := time.Second / writeRate
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		wc := newHTTPClient(1)
		for i := 0; ctx.Err() == nil; i++ {
			due := start.Add(time.Duration(i) * period)
			if !due.Before(end) {
				return
			}
			time.Sleep(time.Until(due))
			sent, acked, err := in.write(wc, writeBatch)
			if sent.IsZero() {
				sent = time.Now()
			}
			if traced {
				cfg.tr.record(0, "op/ingest", sent, acked.Sub(sent), map[string]any{"due_late_ns": int64(sent.Sub(due)), "ok": err == nil})
			}
			if due.Before(warmEnd) {
				continue
			}
			out.writes.note(acked.Sub(due), err)
			out.late = append(out.late, sent.Sub(due))
		}
	}()
	rc := newHTTPClient(1)
	next := 0
	out.reads = closedLoop(ctx, 1, cfg.warmup, cfg.window, func(int, bool) (time.Duration, error) {
		b := next % numBatches
		next++
		start := time.Now()
		raw, lat, err := post(rc, in.srv.url("/v1/ubsup"), in.bodies[b])
		if err == nil {
			var rep ubsupReply
			rep, err = in.checkRead(raw, in.sets[b])
			out.hits += int64(rep.CacheHits)
			out.itemset += int64(len(in.sets[b]))
			out.last = raw
		}
		if traced {
			cfg.tr.record(0, "op/ubsup", start, lat, map[string]any{"batch": b, "ok": err == nil})
		}
		return lat, err
	})
	wg.Wait()
	return out
}

// records returns the acknowledged records in order.
func (in *ingestInputs) records() [][]ossm.Itemset {
	out := make([][]ossm.Itemset, len(in.acked))
	for i, r := range in.acked {
		for t := r[0]; t < r[1]; t++ {
			out[i] = append(out[i], in.stream.Tx(t))
		}
	}
	return out
}

// finalCheck waits for the backlog to drain, then requires the served
// index to cover exactly the acknowledged transactions and to answer
// like a private store fed the same records.
func (in *ingestInputs) finalCheck(ctx context.Context) error {
	if err := in.drain(ctx); err != nil {
		return err
	}
	replica, _, err := wal.Open(wal.NewMemFS(), walOptions())
	if err != nil {
		return err
	}
	defer replica.Close()
	for _, txs := range in.records() {
		if _, err := replica.Append(txs); err != nil {
			return err
		}
	}
	ix, _, err := replica.Index()
	if err != nil {
		return err
	}
	sets := in.sets[0]
	raw, _, err := post(newHTTPClient(1), in.srv.url("/v1/ubsup"), ubsupBody(ingestName, sets, true))
	if err != nil {
		return err
	}
	rep, err := checkBounds(raw, ix.UpperBoundBatch(sets, make([]int64, len(sets))))
	if err != nil {
		return err
	}
	if rep.NumTx != in.ackedTx() {
		return fmt.Errorf("%w: served index covers %d tx, %d were acknowledged", errWrong, rep.NumTx, in.ackedTx())
	}
	_, err = in.checkRead(raw, sets)
	return err
}

// walOptions mirrors the store ossm-serve -ingest opens with its
// default flags.
func walOptions() wal.Options {
	return wal.Options{NumItems: ingestItems, SnapshotEvery: snapshotEvery, PromoteAlgorithm: ossm.RandomGreedy}
}

func runServeIngest(ctx context.Context, cfg runConfig) (*report, error) {
	var in *ingestInputs
	setup := make([]float64, cfg.setups)
	for i := range setup {
		if in != nil {
			in.srv.stop()
		}
		start := time.Now()
		var err error
		in, err = setupIngest(ctx, cfg, filepath.Join(cfg.workDir, fmt.Sprintf("ingest%d", i)))
		if err != nil {
			return nil, err
		}
		setup[i] = time.Since(start).Seconds()
	}
	defer in.srv.stop()

	plain := in.loop(ctx, cfg, false)
	rss, err := procs{in.srv}.peakRSS()
	if err != nil {
		return nil, err
	}
	rep := &report{info: map[string]any{
		"input":        "drift-Quest (1000 items, drift 0.6, shuffled blocks); writes continue the preload stream",
		"preload_tx":   preloadTx,
		"stream_tx":    in.stream.NumTx(),
		"writes":       fmt.Sprintf("open loop, %d records/s of %d tx (POST /v1/ingest)", writeRate, writeBatch),
		"reads":        fmt.Sprintf("closed loop, 1 connection, POST /v1/ubsup of %d Zipf(s=%.1f) draws from %d 1-4-itemsets, cache on", batchSize, zipfS, readPool),
		"wal_fs":       fsTypeName(in.walDir),
		"wal_flush":    "fsync before every ack; snapshot every 256 records with file and directory fsync",
		"compaction":   "every 64 records, RandomGreedy (ossm-serve defaults)",
		"cache_hit":    float64(plain.hits) / float64(max(plain.itemset, 1)),
		"write_p50_ms": quantile(plain.writes.latencies(), 0.5),
		"write_p90_ms": quantile(plain.writes.latencies(), 0.9),
	}}
	rep.attempted = plain.reads.attempted + plain.writes.attempted
	rep.failed = plain.reads.failed + plain.writes.failed
	rep.wrong = plain.reads.wrong + plain.writes.wrong
	lat, wlat, late := plain.reads.latencies(), plain.writes.latencies(), durationsMS(plain.late)
	rep.table = append(rep.table, fmt.Sprintf("serve-ingest: %d reads p50 %.3f ms p90 %.3f ms p99 %.3f ms; %d writes ack p50 %.3f ms p90 %.3f ms; writer late p50 %.3f ms max %.3f ms; cache hits %.1f%%",
		len(lat), quantile(lat, 0.5), quantile(lat, 0.9), quantile(lat, 0.99), len(wlat), quantile(wlat, 0.5), quantile(wlat, 0.9),
		quantile(late, 0.5), quantile(late, 1), 100*rep.info["cache_hit"].(float64)))
	if !cfg.trace {
		if err := in.finalCheck(ctx); err != nil {
			return nil, err
		}
		rep.setE2E(plain.reads, setup, rss)
		return rep, nil
	}
	return in.traced(ctx, cfg, rep, plain)
}

// traced runs a second window with spans and ledger polls, then replays
// the WAL and kernel layers on a private store fed the same records.
func (in *ingestInputs) traced(ctx context.Context, cfg runConfig, rep *report, plain ingestWindow) (*report, error) {
	tr := cfg.tr
	before, err := scrape(in.srv.url("/metrics"))
	if err != nil {
		return nil, err
	}
	var backlogMax atomic.Uint64
	stop := make(chan struct{})
	var polls sync.WaitGroup
	polls.Add(1)
	go func() {
		defer polls.Done()
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if led, err := in.fleetz(); err == nil && led.Backlog > backlogMax.Load() {
					backlogMax.Store(led.Backlog)
				}
			}
		}
	}()
	tw := in.loop(ctx, cfg, true)
	close(stop)
	polls.Wait()
	after, err := scrape(in.srv.url("/metrics"))
	if err != nil {
		return nil, err
	}
	if err := in.finalCheck(ctx); err != nil {
		return nil, err
	}
	out := &report{info: rep.info, table: rep.table}
	out.attempted = rep.attempted + tw.reads.attempted + tw.writes.attempted
	out.failed = rep.failed + tw.reads.failed + tw.writes.failed
	out.wrong = rep.wrong + tw.reads.wrong + tw.writes.wrong
	plainP50 := median(plain.reads.latencies())
	tracedP50 := median(tw.reads.latencies())
	out.set("trace_overhead_frac", tracedP50/plainP50-1, "fraction")
	out.set("op_p50_ms", plainP50, "ms")
	out.set("op_p99_ms", quantile(plain.reads.latencies(), 0.99), "ms")
	out.set("write_p50_ms", quantile(plain.writes.latencies(), 0.5), "ms")
	out.set("write_p90_ms", quantile(plain.writes.latencies(), 0.9), "ms")
	out.set("writer_late_max_ms", quantile(durationsMS(plain.late), 1), "ms")
	out.set("server.cache_hit_frac", float64(tw.hits)/float64(max(tw.itemset, 1)), "fraction")
	out.set("wal.compactions", sumSeries(after, "ossm_compaction_seconds_count")-sumSeries(before, "ossm_compaction_seconds_count"), "count")
	out.set("wal.snapshots", sumSeries(after, "ossm_snapshot_total", "outcome", "ok")-sumSeries(before, "ossm_snapshot_total", "outcome", "ok"), "count")
	out.set("wal.backlog_max", float64(backlogMax.Load()), "count")

	// A private store of the same shape, on the same filesystem, fed the
	// same records: per-phase append timings and the promotion cost.
	dir := filepath.Join(cfg.workDir, "wal-replay")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	dfs, err := wal.DirFS(dir)
	if err != nil {
		return nil, err
	}
	store, _, err := wal.Open(dfs, walOptions())
	if err != nil {
		return nil, err
	}
	defer store.Close()
	var wr, fs, ap []float64
	for _, txs := range in.records() {
		start := time.Now()
		_, st, err := store.AppendWithStats(txs)
		if err != nil {
			return nil, err
		}
		tr.record(0, "wal/append", start, time.Since(start), map[string]any{"txs": len(txs)})
		if len(txs) == writeBatch {
			wr, fs, ap = append(wr, us(st.WriteDur)), append(fs, us(st.SyncDur)), append(ap, us(st.ApplyDur))
		}
	}
	out.set("wal.write_us", median(wr), "us")
	out.set("wal.fsync_us", median(fs), "us")
	out.set("wal.apply_us", median(ap), "us")
	var ix *ossm.Index
	idx := medianTime(5, func() {
		start := time.Now()
		ix, _, err = store.Index()
		tr.record(0, "wal/index", start, time.Since(start), nil)
	})
	if err != nil {
		return nil, err
	}
	out.set("wal.index_ms", ms(idx), "ms")
	if err := serveLayers(out, tr, ix, in.bodies, in.sets, tw.last); err != nil {
		return nil, err
	}
	out.set("server.front_us", tracedP50*1000-out.metrics["core.bound_batch_us"].Value, "us")
	out.table = append(out.table, fmt.Sprintf("layers serve-ingest: read p50 %.1f us = kernel %.1f us + front %.1f us; write = wal write %.1f us + fsync %.1f us + apply %.1f us; %v compactions, backlog max %v",
		tracedP50*1000, out.metrics["core.bound_batch_us"].Value, out.metrics["server.front_us"].Value,
		median(wr), median(fs), median(ap), out.metrics["wal.compactions"].Value, backlogMax.Load()))
	return out, nil
}
