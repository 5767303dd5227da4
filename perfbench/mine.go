package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"github.com/ossm-mining/ossm/internal/apriori"
	"github.com/ossm-mining/ossm/internal/bench"
	"github.com/ossm-mining/ossm/internal/core"
	"github.com/ossm-mining/ossm/internal/dataset"
	"github.com/ossm-mining/ossm/internal/dhp"
	"github.com/ossm-mining/ossm/internal/gen"
	"github.com/ossm-mining/ossm/internal/mining"
	"github.com/ossm-mining/ossm/internal/telemetry"
)

const (
	// support is the relative support threshold of every mining workload.
	support = 0.01
	// mineInputs is how many drift-Quest inputs one mining run cycles
	// through, so that no single input's cost sets a run's figures.
	mineInputs = 8
)

// mineSpec is one in-process mining workload: drift-Quest inputs, a
// Random segmentation of each, and a miner run closed-loop by one caller
// with the OSSM as its pruner.
type mineSpec struct {
	name     string
	numTx    int
	pages    int
	segments int
	miner    string // apriori or dhp
	buckets  int    // DHP hash buckets
}

var (
	// mineCount is count-bound: hash-tree counting is most of each run.
	mineCount = mineSpec{name: "mine-count", numTx: 6000, pages: 400, segments: 40, miner: apriori.Name}
	// minePrune is prune-bound: DHP at the paper's 32768 buckets over a
	// deep (400-segment) OSSM, where the bound checks cost most of a run.
	// The bound checks scale with pairs × segments and the count with the
	// transactions, so a small input keeps the count a minor share.
	minePrune = mineSpec{name: "mine-prune", numTx: 4000, pages: 400, segments: 400, miner: dhp.Name, buckets: dhp.DefaultNumBuckets}
)

// driftQuest generates the drift-Quest input every workload uses: the
// regular-synthetic generator with 1000 items, drift 0.6 and shuffled
// blocks.
func driftQuest(numTx int, seed int64) (*dataset.Dataset, error) {
	cfg := bench.DefaultConfig()
	cfg.NumTx = numTx
	cfg.Seed = seed
	return cfg.Regular()
}

// mineData generates the input in one slot of a mining run. The slot
// fixes the drift-Quest pattern table and its drift (generator seed
// slot+1); seed shuffles the slot's blocks and relabels its items. Every
// seed thus gives other transactions, pages and segments over equally
// hard inputs. Redrawing the patterns with the seed instead moved one
// input's run time by 15–19% and the mean over a run's inputs by ~10%,
// which would swamp the end-to-end bounds.
func mineData(numTx, slot int, seed int64) (*dataset.Dataset, error) {
	cfg := bench.DefaultConfig()
	cfg.NumTx = numTx
	cfg.Seed = int64(slot + 1)
	cfg.ShuffleBlock = 0
	d, err := cfg.Regular()
	if err != nil {
		return nil, err
	}
	// The block size Regular shuffles with by default.
	if d, err = gen.ShuffleBlocks(d, max(50, numTx/400), seed); err != nil {
		return nil, err
	}
	perm := rand.New(rand.NewSource(seed)).Perm(d.NumItems())
	b := dataset.NewBuilder(d.NumItems())
	var tx []dataset.Item
	for i := 0; i < d.NumTx(); i++ {
		tx = tx[:0]
		for _, it := range d.Tx(i) {
			tx = append(tx, dataset.Item(perm[it]))
		}
		if err := b.Append(tx); err != nil {
			return nil, err
		}
	}
	return b.Build(), nil
}

// randomMap paginates d and segments the pages with the Random
// algorithm, the only segmenter whose build time is steady enough to sit
// in set-up.
func randomMap(d *dataset.Dataset, pages, segments int, seed int64) (*core.Result, error) {
	rows := dataset.PageCounts(d, dataset.PaginateN(d, pages))
	return core.Segment(rows, core.Options{Algorithm: core.AlgRandom, TargetSegments: segments, Seed: seed})
}

// mineInput is one input of a mining workload, ready to mine.
type mineInput struct {
	d        *dataset.Dataset
	m        *core.Map
	segTime  time.Duration
	minCount int64
	ref      *mining.Result // unpruned reference every run must equal
}

func (s mineSpec) mine(d *dataset.Dataset, minCount int64, pruner core.Filter, progress func(mining.PassStats)) (*mining.Result, error) {
	opts := mining.Options{Pruner: pruner, Progress: progress}
	if s.miner == dhp.Name {
		return dhp.Mine(d, minCount, dhp.Options{Options: opts, NumBuckets: s.buckets})
	}
	return apriori.Mine(d, minCount, apriori.Options{Options: opts})
}

// setup generates and segments the run's inputs.
func (s mineSpec) setup(seed int64, tr *tracer) ([]*mineInput, error) {
	root := time.Now()
	ins := make([]*mineInput, mineInputs)
	for j := range ins {
		in := &mineInput{}
		sub := seed*mineInputs + int64(j)
		var err error
		tr.time(0, "setup/generate", func() { in.d, err = mineData(s.numTx, j, seed) })
		if err != nil {
			return nil, err
		}
		var seg *core.Result
		in.segTime = tr.time(0, "core/segment", func() { seg, err = randomMap(in.d, s.pages, s.segments, sub) })
		if err != nil {
			return nil, err
		}
		in.m = seg.Map
		in.minCount = mining.MinCountFor(in.d, support)
		ins[j] = in
	}
	tr.record(0, "setup", root, time.Since(root), map[string]any{"workload": s.name})
	return ins, nil
}

// reference mines every input without the OSSM. It is the answer check's
// oracle, so it runs once, outside the timed set-up.
func (s mineSpec) reference(ins []*mineInput, tr *tracer) error {
	for _, in := range ins {
		var err error
		tr.time(0, "check/reference", func() { in.ref, err = s.mine(in.d, in.minCount, nil, nil) })
		if err != nil {
			return err
		}
	}
	return nil
}

// op runs one pruned mining run and checks it against the reference.
func (s mineSpec) op(in *mineInput, progress func(mining.PassStats)) (time.Duration, *mining.Result, error) {
	pruner := &core.Pruner{Map: in.m, MinCount: in.minCount}
	start := time.Now()
	res, err := s.mine(in.d, in.minCount, pruner, progress)
	lat := time.Since(start)
	if err != nil {
		return lat, nil, err
	}
	if !res.Equal(in.ref) {
		return lat, res, fmt.Errorf("%w: %d frequent itemsets, reference has %d", errWrong, res.NumFrequent(), in.ref.NumFrequent())
	}
	return lat, res, nil
}

func (s mineSpec) run(ctx context.Context, cfg runConfig) (*report, error) {
	var ins []*mineInput
	setup := make([]float64, cfg.setups)
	for i := range setup {
		start := time.Now()
		var err error
		if ins, err = s.setup(cfg.seed, cfg.tr); err != nil {
			return nil, err
		}
		setup[i] = time.Since(start).Seconds()
	}
	if err := s.reference(ins, cfg.tr); err != nil {
		return nil, err
	}
	// Peak memory covers the timed runs only: set-up and the reference
	// runs leave their high-water mark behind.
	runtime.GC()
	debug.FreeOSMemory()
	if err := resetHWM(); err != nil {
		return nil, err
	}
	next := 0
	perInput := make([][]float64, len(ins))
	plain := closedLoop(ctx, 1, cfg.warmup, cfg.window, func(_ int, measured bool) (time.Duration, error) {
		j := next % len(ins)
		next++
		lat, _, err := s.op(ins[j], nil)
		if measured && err == nil {
			perInput[j] = append(perInput[j], ms(lat))
		}
		return lat, err
	})
	rep := &report{attempted: plain.attempted, failed: plain.failed, wrong: plain.wrong, info: s.info(ins)}
	p50, p90 := stratified(perInput, 0.5), stratified(perInput, 0.9)
	rep.table = append(rep.table, fmt.Sprintf("%s: %d runs, p50 %.3f ms, p90 %.3f ms (means over the inputs of each input's quantile)", s.name, len(plain.lat), p50, p90))
	rss, err := vmHWM(os.Getpid())
	if err != nil {
		return nil, err
	}
	if !cfg.trace {
		rep.setE2E(plain, setup, rss)
		rep.set("op_p90_ms", p90, "ms")
		return rep, nil
	}
	return s.traced(ctx, cfg, ins, rep, p50)
}

// stratified returns the mean over the inputs of each input's
// q-quantile. A pooled quantile would sit in the gap between two inputs'
// run times and jump with the seed; the mean of per-input quantiles
// averages the inputs instead.
func stratified(perInput [][]float64, q float64) float64 {
	var sum float64
	for _, xs := range perInput {
		sum += quantile(xs, q)
	}
	return sum / float64(len(perInput))
}

func (s mineSpec) info(ins []*mineInput) map[string]any {
	tx, frequent, minCount := make([]int, len(ins)), make([]int, len(ins)), make([]int64, len(ins))
	for j, in := range ins {
		tx[j], frequent[j], minCount[j] = in.d.NumTx(), in.ref.NumFrequent(), in.minCount
	}
	return map[string]any{
		"input":     fmt.Sprintf("%d drift-Quest inputs (1000 items, drift 0.6) mined in turn: generator seeds 1..%d, blocks shuffled and items relabelled by the seed", len(ins), mineInputs),
		"miner":     s.miner,
		"buckets":   s.buckets,
		"tx":        tx,
		"pages":     s.pages,
		"segments":  s.segments,
		"segmenter": core.AlgRandom.String(),
		"support":   support,
		"min_count": minCount,
		"frequent":  frequent,
		"loop":      "closed, 1 caller, serial miner",
	}
}

// traced times a second window with per-pass spans, then replays the
// pass-2 layer calls on each input. Times are medians over ops (or over
// replays, averaged across inputs); counts are totals over the inputs.
func (s mineSpec) traced(ctx context.Context, cfg runConfig, ins []*mineInput, rep *report, plainP50 float64) (*report, error) {
	tr := cfg.tr
	last := make([]*mining.Result, len(ins))
	var p1, p2, pk []float64
	var allocs uint64
	next := 0
	perInput := make([][]float64, len(ins))
	w := closedLoop(ctx, 1, cfg.warmup, cfg.window, func(_ int, measured bool) (time.Duration, error) {
		j := next % len(ins)
		next++
		ps := make([]mining.PassStats, 0, 8)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		lat, res, err := s.op(ins[j], func(p mining.PassStats) { ps = append(ps, p) })
		runtime.ReadMemStats(&after)
		root := tr.record(0, "op/mine", start, lat, map[string]any{"miner": s.miner, "input": j})
		at := start
		var k3 time.Duration
		for _, p := range ps {
			tr.record(root, fmt.Sprintf("mining/pass-%d", p.K), at, p.Elapsed, map[string]any{
				"generated": p.Generated, "pruned": p.Pruned, "counted": p.Counted, "frequent": p.Frequent,
			})
			at = at.Add(p.Elapsed)
			if p.K >= 3 {
				k3 += p.Elapsed
			}
		}
		if err != nil {
			return lat, err
		}
		last[j] = res
		if !measured {
			return lat, nil
		}
		perInput[j] = append(perInput[j], ms(lat))
		allocs += after.TotalAlloc - before.TotalAlloc
		for _, p := range ps {
			switch p.K {
			case 1:
				p1 = append(p1, ms(p.Elapsed))
			case 2:
				p2 = append(p2, ms(p.Elapsed))
			}
		}
		pk = append(pk, ms(k3))
		return lat, nil
	})
	out := &report{
		attempted: rep.attempted + w.attempted, failed: rep.failed + w.failed, wrong: rep.wrong + w.wrong,
		info: rep.info, table: rep.table,
	}
	tracedP50 := stratified(perInput, 0.5)
	out.set("trace_overhead_frac", tracedP50/plainP50-1, "fraction")
	out.set("op_p50_ms", plainP50, "ms")
	out.set("mining.pass1_ms", median(p1), "ms")
	out.set("mining.pass2_ms", median(p2), "ms")
	out.set("mining.passk_ms", median(pk), "ms")
	out.set("mining.alloc_mb_per_op", float64(allocs)/(1<<20)/float64(max(len(pk), 1)), "MB")

	var seg, prune, count float64
	var generated, counted, frequent, boundSum, countedAll int64
	var kc core.KernelCounters
	var bucket, trimmed, dropped int
	pairs := 0
	for j, in := range ins {
		res := last[j]
		if res == nil {
			// A short window may not reach every input; the replays
			// still need each input's run.
			var err error
			if _, res, err = s.op(in, nil); err != nil {
				return nil, fmt.Errorf("input %d: %w", j, err)
			}
		}
		l2 := res.Level(2)
		if l2 == nil {
			return nil, fmt.Errorf("input %d has no pass 2", j)
		}
		seg += ms(in.segTime)
		generated += int64(l2.Stats.Generated)
		counted += int64(l2.Stats.Counted)
		frequent += int64(l2.Stats.Frequent)
		// Counted candidates against the Geerts–Goethals–Van den Bussche
		// bound on the candidates each pass could have generated.
		for _, l := range res.Levels {
			if prev := res.Level(l.K - 1); l.K >= 2 && prev != nil {
				countedAll += int64(l.Stats.Counted)
				boundSum += telemetry.CandidateBound(int64(len(prev.Frequent)), l.K-1)
			}
		}
		if st := dhp.StatsOf(res); st != nil {
			bucket += st.BucketPruned
			trimmed += st.TrimmedItems
			dropped += st.DroppedTx
		}
		p, c, n, k, err := s.replayPass2(tr, in, res)
		if err != nil {
			return nil, fmt.Errorf("input %d: %w", j, err)
		}
		prune += p / float64(len(ins))
		count += c / float64(len(ins))
		pairs += n
		kc.Checked += k.Checked
		kc.Pruned += k.Pruned
		kc.EarlyExit += k.EarlyExit
		kc.Abandoned += k.Abandoned
	}
	out.set("core.segment_ms", seg/float64(len(ins)), "ms")
	out.set("core.prune_pass2_ms", prune, "ms")
	out.set("core.prune_ns_per_pair", prune*1e6*float64(len(ins))/float64(pairs), "ns")
	out.set("core.pruned_frac_pass2", float64(kc.Pruned)/float64(kc.Checked), "fraction")
	out.set("core.early_exit_frac", float64(kc.EarlyExit)/float64(kc.Checked), "fraction")
	out.set("core.abandon_frac", float64(kc.Abandoned)/float64(kc.Checked), "fraction")
	out.set("mining.count_pass2_ms", count, "ms")
	// What pass 2 spends beyond the two replays: candidate generation and,
	// for DHP, the transaction trimming and H3 hashing its pass-2 scan
	// does beside the count (no public call runs those apart).
	out.set("mining.generate_pass2_ms", median(p2)-prune-count, "ms")
	out.set("mining.generated_pass2", float64(generated), "count")
	out.set("mining.counted_pass2", float64(counted), "count")
	out.set("mining.frequent_pass2", float64(frequent), "count")
	out.set("mining.counted_over_bound", float64(countedAll)/float64(boundSum), "fraction")
	if s.miner == dhp.Name {
		out.set("dhp.bucket_pruned", float64(bucket), "count")
		out.set("dhp.trimmed_items", float64(trimmed), "count")
		out.set("dhp.dropped_tx", float64(dropped), "count")
	}
	out.table = append(out.table, fmt.Sprintf("layers %s: run p50 %.3f ms (untraced %.3f ms); pass-2 prune %.3f ms (%.1f%% of untraced p50), count %.3f ms (%.1f%%) over %d counted pairs",
		s.name, tracedP50, plainP50, prune, 100*prune/plainP50, count, 100*count/plainP50, counted))
	return out, nil
}

// replayPass2 replays one input's pass 2 from outside: the bound check of
// every pair of pass-1 frequent items through core.AdmitPairsAmong with a
// fresh pruner, then the hash-tree count of the pairs the run counted.
// It returns the median prune and count times in ms, the pair count and
// the pruner's kernel counters for one check.
func (s mineSpec) replayPass2(tr *tracer, in *mineInput, res *mining.Result) (float64, float64, int, core.KernelCounters, error) {
	const reps = 9
	items := make([]dataset.Item, 0, len(res.Level(1).Frequent))
	for _, c := range res.Level(1).Frequent {
		items = append(items, c.Items[0])
	}
	var dec []bool
	var kc core.KernelCounters
	prune := make([]float64, reps)
	for i := range prune {
		pruner := &core.Pruner{Map: in.m, MinCount: in.minCount}
		prune[i] = ms(tr.time(0, "core/prune-pass2", func() { dec = core.AdmitPairsAmong(pruner, items, dec) }))
		kc, _ = core.KernelCountersOf(pruner)
	}

	// Both miners count against the transactions projected onto the
	// frequent items, skipping those left with fewer than two.
	frequent := make([]bool, in.d.NumItems())
	for _, it := range items {
		frequent[it] = true
	}
	var txs []dataset.Itemset
	for i := 0; i < in.d.NumTx(); i++ {
		var kept dataset.Itemset
		for _, it := range in.d.Tx(i) {
			if frequent[it] {
				kept = append(kept, it)
			}
		}
		if len(kept) >= 2 {
			txs = append(txs, kept)
		}
	}
	survivors := s.countedPairs(in, items, dec)
	if want := res.Level(2).Stats.Counted; len(survivors) != want {
		return 0, 0, 0, kc, fmt.Errorf("pass-2 replay rebuilt %d counted pairs, the run counted %d", len(survivors), want)
	}
	count := make([]float64, reps)
	for i := range count {
		cands := make([]*mining.Candidate, len(survivors))
		for j, x := range survivors {
			cands[j] = &mining.Candidate{Items: x}
		}
		count[i] = ms(tr.time(0, "mining/count-pass2", func() { mining.CountParallel(txs, cands, 2, 1, nil) }))
	}
	return median(prune), median(count), len(items) * (len(items) - 1) / 2, kc, nil
}

// countedPairs rebuilds the pairs a run counted at pass 2 from the
// prune replay's decisions: the OSSM survivors for Apriori and, for DHP,
// the survivors whose pass-1 hash bucket reaches minCount. The bucket
// table is recomputed with DHP's published pair hash; the caller checks
// the rebuilt set against the run's counted total.
func (s mineSpec) countedPairs(in *mineInput, items []dataset.Item, dec []bool) []dataset.Itemset {
	var h2 []int64
	if s.miner == dhp.Name {
		h2 = make([]int64, s.buckets)
		for i := 0; i < in.d.NumTx(); i++ {
			tx := in.d.Tx(i)
			for a := 0; a < len(tx); a++ {
				for b := a + 1; b < len(tx); b++ {
					h2[pairBucket(tx[a], tx[b], s.buckets)]++
				}
			}
		}
	}
	var out []dataset.Itemset
	idx := 0
	for i := 0; i < len(items); i++ {
		for j := i + 1; j < len(items); j++ {
			ok := dec[idx]
			idx++
			if ok && (h2 == nil || h2[pairBucket(items[i], items[j], s.buckets)] >= in.minCount) {
				out = append(out, dataset.Itemset{items[i], items[j]})
			}
		}
	}
	return out
}

// pairBucket is DHP's pass-1 pair hash (Park, Chen and Yu).
func pairBucket(a, b dataset.Item, buckets int) int {
	return int((uint64(a)*2654435761 + uint64(b)) % uint64(buckets))
}
