package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	ossm "github.com/ossm-mining/ossm"
	"github.com/ossm-mining/ossm/internal/core"
	"github.com/ossm-mining/ossm/internal/obs"
	"github.com/ossm-mining/ossm/internal/server"
	"github.com/ossm-mining/ossm/internal/shard"
	"github.com/ossm-mining/ossm/internal/shard/remote"
)

// proc is one ossm-serve child process.
type proc struct {
	cmd     *exec.Cmd
	addr    string // host:port it listens on
	scanned chan struct{}
}

// startServe launches ossm-serve with args on an ephemeral port, logging
// its output to logPath, and waits until it prints its address and
// answers /healthz. The child is killed if the benchmark dies.
func startServe(ctx context.Context, bin, logPath string, args ...string) (*proc, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0", "-log-level", "warn"}, args...)...)
	cmd.Stderr = logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", filepath.Base(bin), err)
	}
	p := &proc{cmd: cmd, scanned: make(chan struct{})}
	addrc := make(chan string, 1)
	go func() {
		defer close(p.scanned)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if rest, ok := strings.CutPrefix(line, "ossm-serve: listening on "); ok {
				addrc <- strings.TrimSpace(rest)
			}
		}
	}()
	select {
	case p.addr = <-addrc:
	case <-p.scanned:
		p.stop()
		return nil, fmt.Errorf("ossm-serve exited before listening; see %s", logPath)
	case <-time.After(60 * time.Second):
		p.stop()
		return nil, fmt.Errorf("ossm-serve did not listen within 60s; see %s", logPath)
	case <-ctx.Done():
		p.stop()
		return nil, ctx.Err()
	}
	for {
		resp, err := http.Get(p.url("/healthz"))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, nil
			}
		}
		if ctx.Err() != nil {
			p.stop()
			return nil, ctx.Err()
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (p *proc) url(path string) string { return "http://" + p.addr + path }

// stop terminates the process (SIGTERM, then SIGKILL after 5s) and waits
// until it and its output reader have ended.
func (p *proc) stop() {
	if p == nil || p.cmd.Process == nil {
		return
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	exited := make(chan struct{})
	go func() {
		_ = p.cmd.Wait()
		close(exited)
	}()
	select {
	case <-exited:
	case <-time.After(5 * time.Second):
		_ = p.cmd.Process.Kill()
		<-exited
	}
	<-p.scanned
}

// procs is a set of children stopped together.
type procs []*proc

func (ps procs) stop() {
	for _, p := range ps {
		p.stop()
	}
}

// peakRSS sums the children's peak resident memory in MB.
func (ps procs) peakRSS() (float64, error) {
	var total float64
	for _, p := range ps {
		mb, err := vmHWM(p.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		total += mb
	}
	return total, nil
}

// newHTTPClient returns a keep-alive client holding at most conns
// connections, so a closed loop of conns callers reuses one each.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		IdleConnTimeout:     90 * time.Second,
	}}
}

// post sends body and returns the response body, timing the round trip
// until the last byte is read. A non-2xx status is an error.
func post(c *http.Client, url string, body []byte) ([]byte, time.Duration, error) {
	start := time.Now()
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, time.Since(start), err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if err != nil {
		return nil, lat, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, lat, fmt.Errorf("POST %s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(raw))
	}
	return raw, lat, nil
}

// getJSON decodes a GET response into v.
func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// scrape reads a Prometheus text exposition.
func scrape(url string) ([]obs.Sample, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return obs.ParseText(resp.Body)
}

// sumSeries adds every sample named name whose labels hold each of the
// given label, value pairs.
func sumSeries(samples []obs.Sample, name string, labelValues ...string) float64 {
	var total float64
	for _, s := range samples {
		ok := s.Name == name
		for i := 0; ok && i+1 < len(labelValues); i += 2 {
			ok = s.Label(labelValues[i]) == labelValues[i+1]
		}
		if ok {
			total += s.Value
		}
	}
	return total
}

// ubsupReply is the part of a /v1/ubsup answer the benchmark checks.
type ubsupReply struct {
	NumTx     int `json:"num_tx"`
	CacheHits int `json:"cache_hits"`
	Bounds    []struct {
		Bound int64 `json:"bound"`
	} `json:"bounds"`
}

// drawItemsets draws n itemsets of 1–4 distinct items uniformly from
// [0, numItems).
func drawItemsets(r *rand.Rand, n, numItems int) []ossm.Itemset {
	out := make([]ossm.Itemset, n)
	for i := range out {
		size := 1 + r.Intn(4)
		items := make([]ossm.Item, 0, size)
		for len(items) < size {
			it := ossm.Item(r.Intn(numItems))
			dup := false
			for _, x := range items {
				dup = dup || x == it
			}
			if !dup {
				items = append(items, it)
			}
		}
		out[i] = ossm.NewItemset(items...)
	}
	return out
}

// ubsupBody encodes a batch request.
func ubsupBody(index string, sets []ossm.Itemset, noCache bool) []byte {
	req := server.UbsupRequest{Index: index, NoCache: noCache, Itemsets: make([][]ossm.Item, len(sets))}
	for i, s := range sets {
		req.Itemsets[i] = s
	}
	raw, err := json.Marshal(req)
	if err != nil {
		panic(err) // a slice of ints always encodes
	}
	return raw
}

// serveLayers replays the serving path's public calls on a workload's
// own request and response bodies: the coordinator's JSON decode of a
// request and encode of a response, and the bound kernel over the full
// index and over a half-index segment range (a worker's share).
func serveLayers(rep *report, tr *tracer, ix *ossm.Index, bodies [][]byte, sets [][]ossm.Itemset, reply []byte) error {
	const reps = 5
	var dec []float64
	for r := 0; r < reps; r++ {
		for _, b := range bodies {
			var req server.UbsupRequest
			var err error
			d := tr.time(0, "server/decode", func() { err = json.Unmarshal(b, &req) })
			if err != nil {
				return err
			}
			dec = append(dec, us(d))
		}
	}
	var resp server.UbsupResponse
	if err := json.Unmarshal(reply, &resp); err != nil {
		return err
	}
	var buf bytes.Buffer
	var enc []float64
	for r := 0; r < reps*len(bodies); r++ {
		buf.Reset()
		var err error
		d := tr.time(0, "server/encode", func() {
			e := json.NewEncoder(&buf)
			e.SetEscapeHTML(false)
			err = e.Encode(resp)
		})
		if err != nil {
			return err
		}
		enc = append(enc, us(d))
	}
	rep.set("server.decode_us", median(dec), "us")
	rep.set("server.encode_us", median(enc), "us")

	half, err := ix.SegmentRange(0, ix.NumSegments()/2)
	if err != nil {
		return err
	}
	var full, part []float64
	for r := 0; r < reps; r++ {
		for _, s := range sets {
			out := make([]int64, len(s))
			full = append(full, us(tr.time(0, "core/bound-batch", func() { ix.UpperBoundBatch(s, out) })))
			part = append(part, us(tr.time(0, "core/bound-batch-shard", func() { half.UpperBoundBatch(s, out) })))
		}
	}
	rep.set("core.bound_batch_us", median(full), "us")
	rep.set("core.bound_batch_shard_us", median(part), "us")
	return nil
}

// fleetInputs is the serve-fleet set-up's product.
type fleetInputs struct {
	ix      *ossm.Index
	segTime time.Duration
	fleet   procs
	coord   *proc
	topo    string
	sets    [][]ossm.Itemset // request batches
	want    [][]int64        // library bounds per batch
	bodies  [][]byte
}

const (
	fleetIndex   = "retail"
	fleetShards  = 2
	fleetClients = 2
	batchSize    = 64
	numBatches   = 256
)

// setupFleet generates the mine-prune input, segments it with Random,
// saves index and dataset, and starts two shard workers plus a
// coordinator routing over them through a topology file.
func setupFleet(ctx context.Context, cfg runConfig, dir string) (*fleetInputs, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	d, err := driftQuest(minePrune.numTx, cfg.seed)
	if err != nil {
		return nil, err
	}
	in := &fleetInputs{}
	if in.ix, in.segTime, err = segmentIndex(cfg.tr, d, minePrune.pages, minePrune.segments, cfg.seed); err != nil {
		return nil, err
	}
	indexPath := filepath.Join(dir, "retail.ossm")
	dataPath := filepath.Join(dir, "retail.bin")
	if err := in.ix.Save(indexPath); err != nil {
		return nil, err
	}
	if err := ossm.SaveDataset(dataPath, d); err != nil {
		return nil, err
	}
	entry := []string{"-index", fleetIndex + "=" + indexPath, "-data", fleetIndex + "=" + dataPath}
	var topo remote.Topology
	for i := 0; i < fleetShards; i++ {
		w, err := startServe(ctx, cfg.serveBin, filepath.Join(dir, fmt.Sprintf("worker%d.log", i)), append([]string{
			"-shard-role=worker", "-shard-id", strconv.Itoa(i), "-shard-count", strconv.Itoa(fleetShards),
		}, entry...)...)
		if err != nil {
			in.fleet.stop()
			return nil, err
		}
		in.fleet = append(in.fleet, w)
		topo.Shards = append(topo.Shards, remote.TopoShard{ID: i, Addr: w.addr})
	}
	raw, err := json.Marshal(topo)
	if err == nil {
		in.topo = filepath.Join(dir, "topology.json")
		err = os.WriteFile(in.topo, raw, 0o644)
	}
	if err != nil {
		in.fleet.stop()
		return nil, err
	}
	coord, err := startServe(ctx, cfg.serveBin, filepath.Join(dir, "coordinator.log"), append([]string{"-topology", in.topo}, entry...)...)
	if err != nil {
		in.fleet.stop()
		return nil, err
	}
	in.coord = coord
	in.fleet = append(in.fleet, coord)

	r := rand.New(rand.NewSource(cfg.seed))
	for b := 0; b < numBatches; b++ {
		sets := drawItemsets(r, batchSize, in.ix.NumItems())
		in.sets = append(in.sets, sets)
		in.want = append(in.want, in.ix.UpperBoundBatch(sets, make([]int64, len(sets))))
		in.bodies = append(in.bodies, ubsupBody(fleetIndex, sets, true))
	}
	return in, nil
}

// segmentIndex builds the served index exactly as the mining workloads
// build their map: Random segmentation of the paginated input.
func segmentIndex(tr *tracer, d *ossm.Dataset, pages, segments int, seed int64) (*ossm.Index, time.Duration, error) {
	var seg *core.Result
	var err error
	dur := tr.time(0, "core/segment", func() { seg, err = randomMap(d, pages, segments, seed) })
	if err != nil {
		return nil, 0, err
	}
	ix, err := ossm.IndexFromMap(seg.Map, d.NumTx())
	return ix, dur, err
}

// checkBounds compares a ubsup reply against the expected bounds.
func checkBounds(raw []byte, want []int64) (ubsupReply, error) {
	var rep ubsupReply
	if err := json.Unmarshal(raw, &rep); err != nil {
		return rep, err
	}
	if len(rep.Bounds) != len(want) {
		return rep, fmt.Errorf("%w: %d bounds for %d itemsets", errWrong, len(rep.Bounds), len(want))
	}
	for i, b := range rep.Bounds {
		if b.Bound != want[i] {
			return rep, fmt.Errorf("%w: bound[%d] = %d, library says %d", errWrong, i, b.Bound, want[i])
		}
	}
	return rep, nil
}

func runServeFleet(ctx context.Context, cfg runConfig) (*report, error) {
	var in *fleetInputs
	setup := make([]float64, cfg.setups)
	for i := range setup {
		if in != nil {
			in.fleet.stop()
		}
		start := time.Now()
		var err error
		in, err = setupFleet(ctx, cfg, filepath.Join(cfg.workDir, fmt.Sprintf("fleet%d", i)))
		if err != nil {
			return nil, err
		}
		setup[i] = time.Since(start).Seconds()
	}
	defer in.fleet.stop()

	client := newHTTPClient(fleetClients)
	url := in.coord.url("/v1/ubsup")
	next := make([]int, fleetClients)
	var last []byte
	op := func(traced bool) func(c int, _ bool) (time.Duration, error) {
		return func(c int, _ bool) (time.Duration, error) {
			b := (next[c]*fleetClients + c) % numBatches
			next[c]++
			start := time.Now()
			raw, lat, err := post(client, url, in.bodies[b])
			if err == nil {
				_, err = checkBounds(raw, in.want[b])
				if traced && c == 0 {
					last = raw
				}
			}
			if traced {
				cfg.tr.record(0, "op/ubsup", start, lat, map[string]any{"client": c, "batch": b, "ok": err == nil})
			}
			return lat, err
		}
	}
	plain := closedLoop(ctx, fleetClients, cfg.warmup, cfg.window, op(false))
	rss, err := in.fleet.peakRSS()
	if err != nil {
		return nil, err
	}
	rep := &report{
		attempted: plain.attempted, failed: plain.failed, wrong: plain.wrong,
		info: map[string]any{
			"input":     "drift-Quest (1000 items, drift 0.6, shuffled blocks)",
			"tx":        in.ix.NumTx(),
			"segments":  in.ix.NumSegments(),
			"segmenter": "Random",
			"topology":  fmt.Sprintf("coordinator + %d -shard-role=worker processes over loopback (-topology)", fleetShards),
			"loop":      fmt.Sprintf("closed, %d connections", fleetClients),
			"request":   fmt.Sprintf("POST /v1/ubsup, %d uniform 1-4-itemsets, no_cache", batchSize),
			"batches":   numBatches,
		},
	}
	lat := plain.latencies()
	rep.table = append(rep.table, fmt.Sprintf("serve-fleet: %d ops, p50 %.3f ms, p90 %.3f ms, p99 %.3f ms", len(lat),
		quantile(lat, 0.5), quantile(lat, 0.9), quantile(lat, 0.99)))
	if !cfg.trace {
		rep.setE2E(plain, setup, rss)
		return rep, nil
	}

	tr := cfg.tr
	before, err := scrape(in.coord.url("/metrics"))
	if err != nil {
		return nil, err
	}
	tw := closedLoop(ctx, fleetClients, cfg.warmup, cfg.window, op(true))
	after, err := scrape(in.coord.url("/metrics"))
	if err != nil {
		return nil, err
	}
	delta := func(name string, labelValues ...string) float64 {
		return sumSeries(after, name, labelValues...) - sumSeries(before, name, labelValues...)
	}
	out := &report{attempted: plain.attempted + tw.attempted, failed: plain.failed + tw.failed, wrong: plain.wrong + tw.wrong, info: rep.info, table: rep.table}
	tracedP50 := median(tw.latencies())
	out.set("trace_overhead_frac", tracedP50/median(lat)-1, "fraction")
	out.set("op_p50_ms", quantile(lat, 0.5), "ms")
	out.set("op_p99_ms", quantile(lat, 0.99), "ms")
	out.set("core.segment_ms", ms(in.segTime), "ms")
	out.set("remote.retries", delta("ossm_shard_rpc_retries_total"), "count")
	out.set("shard.hedges_fired", delta("ossm_shard_hedges_total", "event", "fired"), "count")
	// A hedge's losing twin is cancelled and counted as a timeout, so
	// timeouts are left to shard.hedges_fired; a real timeout also fails
	// its op.
	out.set("shard.rpc_errors", delta("ossm_shard_rpc_total")-delta("ossm_shard_rpc_total", "outcome", "ok")-
		delta("ossm_shard_rpc_total", "outcome", "timeout"), "count")
	if last == nil {
		return nil, errors.New("traced window completed no op")
	}
	if err := serveLayers(out, tr, in.ix, in.bodies, in.sets, last); err != nil {
		return nil, err
	}

	// The scatter and one RPC, through the same public client the
	// coordinator uses, built here over the running workers.
	topo, err := remote.LoadTopology(in.topo)
	if err != nil {
		return nil, err
	}
	transports, err := topo.Transports(fleetIndex, remote.ClientConfig{HTTPClient: remote.NewHTTPClient()})
	if err != nil {
		return nil, err
	}
	fl, err := shard.NewFleet(shard.Config{}, transports)
	if err != nil {
		return nil, err
	}
	var scatter, rpc []float64
	for r := 0; r < 3; r++ {
		for b, sets := range in.sets {
			got := make([]int64, len(sets))
			var err error
			d := tr.time(0, "shard/scatter", func() { err = fl.Bounds(ctx, sets, got) })
			if err != nil {
				return nil, err
			}
			for i := range got {
				if got[i] != in.want[b][i] {
					out.failed++
					out.wrong++
					break
				}
			}
			out.attempted++
			scatter = append(scatter, us(d))
			d = tr.time(0, "remote/rpc", func() { err = transports[0].PartialBounds(ctx, sets, got) })
			if err != nil {
				return nil, err
			}
			rpc = append(rpc, us(d))
		}
	}
	out.set("shard.scatter_us", median(scatter), "us")
	out.set("remote.rpc_us", median(rpc), "us")
	out.set("server.front_us", tracedP50*1000-median(scatter), "us")
	out.table = append(out.table, fmt.Sprintf("layers serve-fleet: op p50 %.1f us = scatter %.1f us (rpc %.1f us, worker kernel %.1f us) + front %.1f us (decode %.1f us, encode %.1f us)",
		tracedP50*1000, median(scatter), median(rpc), out.metrics["core.bound_batch_shard_us"].Value,
		out.metrics["server.front_us"].Value, out.metrics["server.decode_us"].Value, out.metrics["server.encode_us"].Value))
	return out, nil
}
