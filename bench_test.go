// Benchmarks regenerating every table and figure of the paper's
// evaluation at a scaled-down, deterministic size (see EXPERIMENTS.md for
// the recorded full runs and cmd/ossm-bench for paper-scale executions).
// Each experiment bench reports the headline quantities of its artifact
// as custom metrics, so `go test -bench=.` prints the reproduced series.
package ossm

import (
	"fmt"
	"strings"
	"testing"

	"github.com/ossm-mining/ossm/internal/apriori"
	"github.com/ossm-mining/ossm/internal/bench"
	"github.com/ossm-mining/ossm/internal/core"
	"github.com/ossm-mining/ossm/internal/dataset"
	"github.com/ossm-mining/ossm/internal/mining"
)

// benchConfig is the scaled-down workload every experiment bench uses:
// small enough for a laptop test run, large enough that pass-2 candidate
// counting still dominates Apriori.
func benchConfig() bench.Config {
	cfg := bench.DefaultConfig()
	cfg.NumTx = 6000
	cfg.Pages = 150
	cfg.BubbleSize = 150
	cfg.Reps = 1
	return cfg
}

// BenchmarkFig4aSpeedup reproduces Figure 4(a): Apriori speedup versus
// the number of segments for the Random, RC and Greedy algorithms.
func BenchmarkFig4aSpeedup(b *testing.B) {
	cfg := benchConfig()
	segs := []int{20, 40, 80}
	for i := 0; i < b.N; i++ {
		r, err := bench.RunFig4(cfg, segs)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range r.Points {
			b.ReportMetric(p.Speedup, fmt.Sprintf("speedup-%s-n%d", p.Algorithm, p.Segments))
		}
	}
}

// BenchmarkFig4bCandidates reproduces Figure 4(b): the fraction of
// candidate 2-itemsets not pruned by the OSSM.
func BenchmarkFig4bCandidates(b *testing.B) {
	cfg := benchConfig()
	segs := []int{20, 40, 80}
	for i := 0; i < b.N; i++ {
		r, err := bench.RunFig4(cfg, segs)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range r.Points {
			b.ReportMetric(p.C2Fraction, fmt.Sprintf("c2frac-%s-n%d", p.Algorithm, p.Segments))
		}
	}
}

// BenchmarkFig5aPure reproduces Figure 5(a): segmentation cost and
// speedup of the pure strategies at n_user = 40.
func BenchmarkFig5aPure(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		r, err := bench.RunFig5a(cfg, 40)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			b.ReportMetric(row.SegTime.Seconds(), fmt.Sprintf("segsec-%s", row.Strategy))
			b.ReportMetric(row.Speedup, fmt.Sprintf("speedup-%s", row.Strategy))
		}
	}
}

// BenchmarkFig5bHybrid reproduces Figure 5(b): the hybrid strategies
// with the Random phase stopping at n_mid.
func BenchmarkFig5bHybrid(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		r, err := bench.RunFig5b(cfg, 40, 100)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			b.ReportMetric(row.SegTime.Seconds(), fmt.Sprintf("segsec-%s", row.Strategy))
			b.ReportMetric(row.Speedup, fmt.Sprintf("speedup-%s", row.Strategy))
		}
	}
}

// BenchmarkFig6aBubbleCost reproduces Figure 6(a): segmentation cost
// versus bubble-list size (built at 0.25% support, queried at 1%).
func BenchmarkFig6aBubbleCost(b *testing.B) {
	cfg := benchConfig()
	pcts := []int{5, 20, 60}
	for i := 0; i < b.N; i++ {
		r, err := bench.RunFig6(cfg, 40, 100, pcts)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range r.Points {
			b.ReportMetric(p.SegTime.Seconds(), fmt.Sprintf("segsec-%s-b%d", p.Strategy, p.BubblePct))
		}
	}
}

// BenchmarkFig6bBubbleSpeedup reproduces Figure 6(b): speedup versus
// bubble-list size.
func BenchmarkFig6bBubbleSpeedup(b *testing.B) {
	cfg := benchConfig()
	pcts := []int{5, 20, 60}
	for i := 0; i < b.N; i++ {
		r, err := bench.RunFig6(cfg, 40, 100, pcts)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range r.Points {
			b.ReportMetric(p.Speedup, fmt.Sprintf("speedup-%s-b%d", p.Strategy, p.BubblePct))
		}
	}
}

// BenchmarkSec7DHP reproduces the Section 7 table: DHP runtime and |C2|
// with and without the OSSM.
func BenchmarkSec7DHP(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		r, err := bench.RunSec7(cfg, 4096, 40)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.C2Plain), "c2-plain")
		b.ReportMetric(float64(r.C2OSSM), "c2-ossm")
		b.ReportMetric(r.TimePlain.Seconds(), "sec-plain")
		b.ReportMetric(r.TimeOSSM.Seconds(), "sec-ossm")
	}
}

// BenchmarkAblationSkew reproduces ablation A1: the OSSM's effect across
// data skew levels.
func BenchmarkAblationSkew(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		r, err := bench.RunSkew(cfg, 40)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			name := row.Dataset
			if i := strings.IndexByte(name, ' '); i >= 0 {
				name = name[:i]
			}
			b.ReportMetric(row.C2Fraction, "c2frac-"+name)
		}
	}
}

// BenchmarkAblationHosts reproduces ablations A2/A3: the OSSM inside
// Apriori, Partition and DepthProject.
func BenchmarkAblationHosts(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		r, err := bench.RunHosts(cfg, 40)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			b.ReportMetric(float64(row.WorkPlain), "work-plain-"+row.Host)
			b.ReportMetric(float64(row.WorkOSSM), "work-ossm-"+row.Host)
		}
	}
}

// BenchmarkAblationEpisodes reproduces ablation A4: OSSM pruning during
// episode discovery over the alarm stream.
func BenchmarkAblationEpisodes(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		r, err := bench.RunEpisodes(cfg, 6, 0.02)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.Pruned), "pruned")
		b.ReportMetric(float64(r.Checked), "checked")
	}
}

// BenchmarkAblationMemory reproduces ablation A5: OSSM footprint versus
// segment budget.
func BenchmarkAblationMemory(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		r, err := bench.RunMemory(cfg, []int{40, 150})
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			b.ReportMetric(float64(row.SizeBytes), fmt.Sprintf("bytes-n%d", row.Segments))
		}
	}
}

// --- Micro-benchmarks of the core operations -----------------------------

func microMap(b *testing.B, nSeg int) (*core.Map, *dataset.Dataset) {
	b.Helper()
	cfg := benchConfig()
	d, err := cfg.Regular()
	if err != nil {
		b.Fatal(err)
	}
	pages := dataset.PaginateN(d, cfg.Pages)
	rows := dataset.PageCounts(d, pages)
	seg, err := core.Segment(rows, core.Options{Algorithm: core.AlgRandom, TargetSegments: nSeg, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return seg.Map, d
}

// BenchmarkUpperBoundPair measures the pruning hot path: the pair bound
// of equation (1).
func BenchmarkUpperBoundPair(b *testing.B) {
	for _, nSeg := range []int{40, 150} {
		b.Run(fmt.Sprintf("segments=%d", nSeg), func(b *testing.B) {
			m, _ := microMap(b, nSeg)
			k := dataset.Item(m.NumItems())
			b.ResetTimer()
			var sink int64
			for i := 0; i < b.N; i++ {
				a := dataset.Item(i) % k
				c := dataset.Item(i+7) % k
				sink += m.UpperBoundPair(a, c)
			}
			_ = sink
		})
	}
}

// BenchmarkUpperBoundTriple measures the general bound on 3-itemsets.
func BenchmarkUpperBoundTriple(b *testing.B) {
	m, _ := microMap(b, 40)
	k := dataset.Item(m.NumItems())
	x := make(dataset.Itemset, 3)
	b.ResetTimer()
	var sink int64
	for i := 0; i < b.N; i++ {
		x[0] = dataset.Item(i) % (k - 2)
		x[1] = x[0] + 1
		x[2] = x[0] + 2
		sink += m.UpperBound(x)
	}
	_ = sink
}

// BenchmarkSumDiffPair measures the segmentation inner loop (full-domain
// and bubble-restricted).
func BenchmarkSumDiffPair(b *testing.B) {
	cfg := benchConfig()
	d, err := cfg.Regular()
	if err != nil {
		b.Fatal(err)
	}
	rows := dataset.PageCounts(d, dataset.PaginateN(d, cfg.Pages))
	for _, size := range []int{50, 250, 1000} {
		b.Run(fmt.Sprintf("items=%d", size), func(b *testing.B) {
			items := core.AllItems(cfg.NumItems)[:size]
			b.ResetTimer()
			var sink int64
			for i := 0; i < b.N; i++ {
				sink += core.SumDiffPair(rows[i%len(rows)], rows[(i+1)%len(rows)], items)
			}
			_ = sink
		})
	}
}

// BenchmarkSegment measures end-to-end segmentation per algorithm.
func BenchmarkSegment(b *testing.B) {
	cfg := benchConfig()
	d, err := cfg.Regular()
	if err != nil {
		b.Fatal(err)
	}
	rows := dataset.PageCounts(d, dataset.PaginateN(d, cfg.Pages))
	bubble := core.BubbleListFromCounts(rows, mining.MinCountFor(d, cfg.BubbleSupport), cfg.BubbleSize)
	for _, alg := range []core.Algorithm{core.AlgRandom, core.AlgRC, core.AlgGreedy, core.AlgRandomRC, core.AlgRandomGreedy} {
		b.Run(alg.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := core.Segment(rows, core.Options{
					Algorithm:      alg,
					TargetSegments: 40,
					MidSegments:    100,
					Bubble:         bubble,
					Seed:           int64(i),
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMineApriori measures the host algorithm with and without the
// OSSM (the primitive behind every speedup figure).
func BenchmarkMineApriori(b *testing.B) {
	cfg := benchConfig()
	d, err := cfg.Regular()
	if err != nil {
		b.Fatal(err)
	}
	m, _ := microMap(b, 80)
	minCount := mining.MinCountFor(d, cfg.Support)
	b.Run("plain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := MineApriori(d, cfg.Support, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("with-ossm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pruner := &core.Pruner{Map: m, MinCount: minCount}
			if _, err := apriori.Mine(d, minCount, apriori.Options{Options: mining.Options{Pruner: pruner}}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDatasetScan measures the raw substrate scan rate.
func BenchmarkDatasetScan(b *testing.B) {
	cfg := benchConfig()
	d, err := cfg.Regular()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = d.ItemCounts(0, d.NumTx())
	}
}

// BenchmarkAblationExtended reproduces the footnote-3 ablation: the
// generalized OSSM (tracked pair supports) versus the plain map.
func BenchmarkAblationExtended(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		r, err := bench.RunExtended(cfg, 40)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.BaseC2Frac, "c2frac-base")
		b.ReportMetric(r.ExtC2Frac, "c2frac-extended")
		b.ReportMetric(float64(r.ExactAnswers), "exact-pairs")
	}
}

// BenchmarkGreedySegmentation measures a Greedy build over the bubble
// list, the sumdiff-bound segmentation path.
func BenchmarkGreedySegmentation(b *testing.B) {
	cfg := benchConfig()
	d, err := cfg.Regular()
	if err != nil {
		b.Fatal(err)
	}
	rows := dataset.PageCounts(d, dataset.PaginateN(d, cfg.Pages))
	bubble := core.BubbleListFromCounts(rows, mining.MinCountFor(d, cfg.BubbleSupport), cfg.BubbleSize)
	for i := 0; i < b.N; i++ {
		_, err := core.Segment(rows, core.Options{
			Algorithm:      core.AlgGreedy,
			TargetSegments: 40,
			Bubble:         bubble,
			Seed:           1,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelCounting measures worker scaling of hash-tree
// candidate counting.
func BenchmarkParallelCounting(b *testing.B) {
	cfg := benchConfig()
	d, err := cfg.Regular()
	if err != nil {
		b.Fatal(err)
	}
	minCount := mining.MinCountFor(d, cfg.Support)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := apriori.Mine(d, minCount, apriori.Options{Options: mining.Options{Workers: workers}}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
