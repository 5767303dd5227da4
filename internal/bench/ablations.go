package bench

import (
	"fmt"
	"io"
	"time"

	"github.com/ossm-mining/ossm/internal/apriori"
	"github.com/ossm-mining/ossm/internal/core"
	"github.com/ossm-mining/ossm/internal/dataset"
	"github.com/ossm-mining/ossm/internal/depthproject"
	"github.com/ossm-mining/ossm/internal/eclat"
	"github.com/ossm-mining/ossm/internal/episodes"
	"github.com/ossm-mining/ossm/internal/mining"
	"github.com/ossm-mining/ossm/internal/partition"
)

// SkewRow compares the OSSM's effect on one dataset (ablation A1).
type SkewRow struct {
	Dataset    string
	Support    float64
	Speedup    float64
	C2Fraction float64
}

// SkewResult is ablation A1: "the more skewed the data, the more
// effective the OSSM" (paper Sections 3 and 8).
type SkewResult struct {
	Segments int
	Rows     []SkewRow
}

// RunSkew measures identical OSSM configurations on the regular, skewed
// and alarm datasets.
func RunSkew(cfg Config, nUser int) (*SkewResult, error) {
	out := &SkewResult{Segments: nUser}
	sets := []struct {
		name    string
		mk      func() (*dataset.Dataset, error)
		support float64
	}{
		{"regular-synthetic", cfg.Regular, cfg.Support},
		{"skewed-synthetic", cfg.Skewed, cfg.Support},
		// The dense alarm log is mined at twice the synthetic threshold
		// (the paper likewise picks per-dataset thresholds).
		{"alarm (Nokia surrogate)", cfg.Alarm, 2 * cfg.Support},
	}
	for _, s := range sets {
		d, err := s.mk()
		if err != nil {
			return nil, err
		}
		_, rows := cfg.pageRows(d)
		minCount := mining.MinCountFor(d, s.support)
		bubble := cfg.bubble(d, rows)
		if d.NumItems() <= 400 {
			bubble = nil // small domains afford the full sumdiff
		}
		seg, err := core.Segment(rows, core.Options{
			Algorithm:      core.AlgRandomGreedy,
			TargetSegments: nUser,
			MidSegments:    min(200, len(rows)),
			Bubble:         bubble,
			Seed:           cfg.Seed,
		})
		if err != nil {
			return nil, err
		}
		plain, err := cfg.runApriori(d, minCount, nil)
		if err != nil {
			return nil, err
		}
		pruned, err := cfg.runApriori(d, minCount, seg.Map)
		if err != nil {
			return nil, err
		}
		if err := verifyEqual(plain.res, pruned.res, "skew "+s.name); err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, SkewRow{
			Dataset:    s.name,
			Support:    s.support,
			Speedup:    float64(plain.elapsed) / float64(pruned.elapsed),
			C2Fraction: c2Fraction(pruned.res),
		})
	}
	return out, nil
}

// Print renders the table.
func (r *SkewResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Ablation A1 — effect of skew (Random-Greedy, %d segments)\n", r.Segments)
	fmt.Fprintf(w, "%-26s %-9s %-10s %-10s\n", "dataset", "support", "speedup", "C2 frac")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-26s %-9.3g %-10.2f %-10.3f\n", row.Dataset, row.Support, row.Speedup, row.C2Fraction)
	}
}

// HostRow is one line of the host-algorithm ablations (A2, A3): an
// algorithm run with and without the OSSM.
type HostRow struct {
	Host       string
	TimePlain  time.Duration
	TimeOSSM   time.Duration
	WorkPlain  int // algorithm-specific work counter without the OSSM
	WorkOSSM   int // the same counter with it
	WorkMetric string
}

// HostsResult aggregates ablations A2 and A3 (and Apriori for
// reference).
type HostsResult struct {
	Segments int
	Rows     []HostRow
}

// RunHosts measures the OSSM's benefit inside Apriori, Partition and
// DepthProject under one shared segmentation (Section 7's discussion,
// quantified).
func RunHosts(cfg Config, nUser int) (*HostsResult, error) {
	d, err := cfg.Regular()
	if err != nil {
		return nil, err
	}
	_, rows := cfg.pageRows(d)
	minCount := mining.MinCountFor(d, cfg.Support)
	seg, err := core.Segment(rows, core.Options{
		Algorithm:      core.AlgRandomGreedy,
		TargetSegments: nUser,
		MidSegments:    min(200, len(rows)),
		Bubble:         cfg.bubble(d, rows),
		Seed:           cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	out := &HostsResult{Segments: nUser}
	pruner := &core.Pruner{Map: seg.Map, MinCount: minCount}
	c2 := func(r *mining.Result) int {
		if l2 := r.Level(2); l2 != nil {
			return l2.Stats.Counted
		}
		return 0
	}
	np := min(9, d.NumTx())

	// Every host goes through the shared miner registry; only the display
	// name, the algorithm-specific parameters and the work counter pulled
	// out of the result differ per row.
	hosts := []struct {
		host   string
		miner  string
		params map[string]int
		metric string
		work   func(plain, ossm *mining.Result) (int, int)
	}{
		{"Apriori", apriori.Name, nil, "C2 counted",
			func(plain, ossm *mining.Result) (int, int) { return c2(plain), c2(ossm) }},
		{"Partition", partition.Name, map[string]int{"partitions": np}, "phase-2 candidates",
			func(plain, ossm *mining.Result) (int, int) {
				ps, os := partition.StatsOf(plain), partition.StatsOf(ossm)
				return ps.GlobalCandidates, ps.GlobalCandidates - os.GlobalPruned
			}},
		{"DepthProject", depthproject.Name, nil, "projections",
			func(plain, ossm *mining.Result) (int, int) {
				return depthproject.StatsOf(plain).Projections, depthproject.StatsOf(ossm).Projections
			}},
		{"dEclat", eclat.Name, nil, "diffsets",
			func(plain, ossm *mining.Result) (int, int) {
				return eclat.StatsOf(plain).Diffsets, eclat.StatsOf(ossm).Diffsets
			}},
	}
	for _, h := range hosts {
		plain, tPlain, err := cfg.runMiner(h.miner, d, minCount, mining.Options{Params: h.params})
		if err != nil {
			return nil, err
		}
		withOSSM, tOSSM, err := cfg.runMiner(h.miner, d, minCount, mining.Options{Pruner: pruner, Params: h.params})
		if err != nil {
			return nil, err
		}
		if err := verifyEqual(plain, withOSSM, "hosts "+h.miner); err != nil {
			return nil, err
		}
		wp, wo := h.work(plain, withOSSM)
		out.Rows = append(out.Rows, HostRow{
			Host: h.host, TimePlain: tPlain, TimeOSSM: tOSSM,
			WorkPlain: wp, WorkOSSM: wo, WorkMetric: h.metric,
		})
	}
	return out, nil
}

// Print renders the table.
func (r *HostsResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Ablations A2/A3 — OSSM inside host algorithms (Random-Greedy, %d segments)\n", r.Segments)
	fmt.Fprintf(w, "%-14s %-12s %-12s %-10s %-22s\n", "host", "plain", "with OSSM", "speedup", "work (plain → OSSM)")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-14s %-12v %-12v %-10.2f %d → %d %s\n",
			row.Host, row.TimePlain.Round(time.Millisecond), row.TimeOSSM.Round(time.Millisecond),
			float64(row.TimePlain)/float64(row.TimeOSSM), row.WorkPlain, row.WorkOSSM, row.WorkMetric)
	}
}

// EpisodeResult is ablation A4: OSSM pruning during episode discovery.
type EpisodeResult struct {
	Windows  int
	Episodes int
	Checked  int64
	Pruned   int64
}

// RunEpisodes mines parallel episodes over an alarm event stream with an
// OSSM over the window dataset.
func RunEpisodes(cfg Config, width int, minFreq float64) (*EpisodeResult, error) {
	d, err := cfg.Alarm()
	if err != nil {
		return nil, err
	}
	var stream []dataset.Item
	for i := 0; i < d.NumTx(); i++ {
		stream = append(stream, d.Tx(i)...)
	}
	seq, err := episodes.FromTypes(d.NumItems(), stream)
	if err != nil {
		return nil, err
	}
	plain, err := episodes.Mine(seq, episodes.Options{Width: width, MinFrequency: minFreq})
	if err != nil {
		return nil, err
	}
	res, err := episodes.Mine(seq, episodes.Options{
		Width:        width,
		MinFrequency: minFreq,
		Segmentation: &core.Options{
			Algorithm:      core.AlgRandomGreedy,
			TargetSegments: 32,
			MidSegments:    128,
			Seed:           cfg.Seed,
		},
		Pages: 256,
	})
	if err != nil {
		return nil, err
	}
	if err := verifyEqual(plain.Result, res.Result, "episodes"); err != nil {
		return nil, err
	}
	return &EpisodeResult{
		Windows:  res.Windows,
		Episodes: res.NumFrequent(),
		Checked:  res.Checked,
		Pruned:   res.Pruned,
	}, nil
}

// Print renders the summary.
func (r *EpisodeResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Ablation A4 — episode discovery over the alarm stream\n")
	fmt.Fprintf(w, "windows=%d frequent episodes=%d candidates checked=%d pruned by OSSM=%d (%.1f%%)\n",
		r.Windows, r.Episodes, r.Checked, r.Pruned,
		100*float64(r.Pruned)/float64(maxI64(r.Checked, 1)))
}

// MemoryRow is one line of ablation A5. CellBytes is the paper's
// accounting unit (the 4-byte support cells alone); SizeBytes is the true
// resident footprint of the flat store, the cells plus the per-item
// totals.
type MemoryRow struct {
	Segments  int
	SizeBytes int
	CellBytes int
}

// MemoryResult is ablation A5: OSSM footprint versus segment budget
// (the paper's "0.2–0.3 MB" claims).
type MemoryResult struct {
	NumItems int
	Rows     []MemoryRow
}

// RunMemory tabulates the index footprint for each segment budget.
func RunMemory(cfg Config, segments []int) (*MemoryResult, error) {
	if len(segments) == 0 {
		segments = DefaultFig4Segments
	}
	d, err := cfg.Regular()
	if err != nil {
		return nil, err
	}
	_, rows := cfg.pageRows(d)
	out := &MemoryResult{NumItems: cfg.NumItems}
	for _, n := range segments {
		seg, err := core.Segment(rows, core.Options{
			Algorithm:      core.AlgRandom,
			TargetSegments: n,
			Seed:           cfg.Seed,
		})
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, MemoryRow{
			Segments:  seg.Map.NumSegments(),
			SizeBytes: seg.Map.SizeBytes(),
			CellBytes: seg.Map.CellBytes(),
		})
	}
	return out, nil
}

// Print renders the table.
func (r *MemoryResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Ablation A5 — OSSM footprint (%d items)\n", r.NumItems)
	fmt.Fprintf(w, "%-10s %-12s %-12s\n", "segments", "cells", "resident")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-10d %.2f MB      %.2f MB\n", row.Segments,
			float64(row.CellBytes)/1e6, float64(row.SizeBytes)/1e6)
	}
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
