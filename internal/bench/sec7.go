package bench

import (
	"fmt"
	"io"
	"time"

	"github.com/ossm-mining/ossm/internal/core"
	"github.com/ossm-mining/ossm/internal/dhp"
	"github.com/ossm-mining/ossm/internal/mining"
	"github.com/ossm-mining/ossm/internal/telemetry"
)

// PassRow is one pass of a run's pruning-effectiveness trajectory: the
// frozen telemetry of the pass plus the Geerts–Goethals–Van den Bussche
// tight candidate bound derived from the previous pass's frequent count —
// the reference curve Generated can never exceed, so the gap between
// Bound and Counted is the combined pruning effectiveness.
type PassRow struct {
	K          int           `json:"k"`
	Generated  int64         `json:"generated"`
	PrunedOSSM int64         `json:"pruned_ossm"`
	PrunedHash int64         `json:"pruned_hash,omitempty"`
	Counted    int64         `json:"counted"`
	Frequent   int64         `json:"frequent"`
	TxScanned  int64         `json:"tx_scanned,omitempty"`
	Wall       time.Duration `json:"wall_ns"`
	Bound      int64         `json:"candidate_bound,omitempty"`
}

// trajectory converts a run's telemetry into trajectory rows, filling the
// candidate-bound reference from each previous level's frequent count.
func trajectory(r *telemetry.Report) []PassRow {
	if r == nil {
		return nil
	}
	rows := make([]PassRow, 0, len(r.Passes))
	prevFrequent := map[int]int64{}
	for _, p := range r.Passes {
		prevFrequent[p.K] = p.Frequent
	}
	for _, p := range r.Passes {
		row := PassRow{
			K: p.K, Generated: p.Generated, PrunedOSSM: p.PrunedOSSM,
			PrunedHash: p.PrunedHash, Counted: p.Counted, Frequent: p.Frequent,
			TxScanned: p.TxScanned, Wall: p.Wall,
		}
		if m, ok := prevFrequent[p.K-1]; ok && p.K >= 2 {
			row.Bound = telemetry.CandidateBound(m, p.K-1)
		}
		rows = append(rows, row)
	}
	return rows
}

// Sec7Result reproduces the Section 7 table: DHP with and without an
// OSSM (built by Random-RC at 40 segments in the paper), comparing
// runtime and the number of candidate 2-itemsets, plus both runs' full
// per-pass pruning-effectiveness trajectories.
type Sec7Result struct {
	Buckets     int
	Segments    int
	TimePlain   time.Duration
	TimeOSSM    time.Duration
	C2Plain     int
	C2OSSM      int
	OSSMPruned  int // bucket survivors the OSSM bound rejects
	BucketPlain int // pairs removed by buckets alone (baseline run)
	// TrajectoryPlain and TrajectoryOSSM are the per-pass telemetry of the
	// fastest baseline and OSSM runs.
	TrajectoryPlain []PassRow `json:",omitempty"`
	TrajectoryOSSM  []PassRow `json:",omitempty"`
}

// RunSec7 reproduces the DHP table of Section 7 on the regular-synthetic
// workload.
func RunSec7(cfg Config, buckets, nUser int) (*Sec7Result, error) {
	if buckets == 0 {
		buckets = dhp.DefaultNumBuckets
	}
	d, err := cfg.Regular()
	if err != nil {
		return nil, err
	}
	_, rows := cfg.pageRows(d)
	minCount := mining.MinCountFor(d, cfg.Support)

	var plain *mining.Result
	var tPlain time.Duration
	for rep := 0; rep < cfg.reps(); rep++ {
		engineOpts := mining.Options{Instrument: mining.NewInstrumentation()}
		start := time.Now()
		p, err := dhp.Mine(d, minCount, dhp.Options{Options: engineOpts, NumBuckets: buckets})
		if err != nil {
			return nil, err
		}
		engineOpts.FinishRun(p)
		if e := time.Since(start); rep == 0 || e < tPlain {
			plain, tPlain = p, e
		}
	}

	seg, err := core.Segment(rows, core.Options{
		Algorithm:      core.AlgRandomRC,
		TargetSegments: nUser,
		MidSegments:    min(200, len(rows)),
		Bubble:         cfg.bubble(d, rows),
		Seed:           cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	var withOSSM *mining.Result
	var tOSSM time.Duration
	for rep := 0; rep < cfg.reps(); rep++ {
		pruner := &core.Pruner{Map: seg.Map, MinCount: minCount}
		engineOpts := mining.Options{Pruner: pruner, Instrument: mining.NewInstrumentation()}
		start := time.Now()
		o, err := dhp.Mine(d, minCount, dhp.Options{Options: engineOpts, NumBuckets: buckets})
		if err != nil {
			return nil, err
		}
		engineOpts.FinishRun(o)
		if e := time.Since(start); rep == 0 || e < tOSSM {
			withOSSM, tOSSM = o, e
		}
	}
	if err := verifyEqual(plain, withOSSM, "sec7 DHP"); err != nil {
		return nil, err
	}
	out := &Sec7Result{
		Buckets:         buckets,
		Segments:        nUser,
		TimePlain:       tPlain,
		TimeOSSM:        tOSSM,
		BucketPlain:     dhp.StatsOf(plain).BucketPruned,
		TrajectoryPlain: trajectory(plain.Stats.Telemetry),
		TrajectoryOSSM:  trajectory(withOSSM.Stats.Telemetry),
	}
	if l2 := plain.Level(2); l2 != nil {
		out.C2Plain = l2.Stats.Counted
	}
	if l2 := withOSSM.Level(2); l2 != nil {
		out.C2OSSM = l2.Stats.Counted
		out.OSSMPruned = l2.Stats.Pruned
	}
	return out, nil
}

// Print renders the table in the paper's shape.
func (r *Sec7Result) Print(w io.Writer) {
	fmt.Fprintf(w, "Section 7 — DHP (%d buckets) with an OSSM built by Random-RC (%d segments)\n", r.Buckets, r.Segments)
	fmt.Fprintf(w, "%-24s %-14s %-10s\n", "algorithm", "runtime", "|C2|")
	fmt.Fprintf(w, "%-24s %-14v %-10d\n", "DHP without the OSSM", r.TimePlain.Round(time.Millisecond), r.C2Plain)
	fmt.Fprintf(w, "%-24s %-14v %-10d\n", "DHP with the OSSM", r.TimeOSSM.Round(time.Millisecond), r.C2OSSM)
	fmt.Fprintf(w, "(the OSSM rejected %d bucket survivors; buckets alone pruned %d in the baseline)\n",
		r.OSSMPruned, r.BucketPlain)
	printTrajectory(w, "baseline per-pass trajectory", r.TrajectoryPlain)
	printTrajectory(w, "OSSM per-pass trajectory", r.TrajectoryOSSM)
}

// printTrajectory renders one run's pruning-effectiveness trajectory.
func printTrajectory(w io.Writer, title string, rows []PassRow) {
	if len(rows) == 0 {
		return
	}
	fmt.Fprintf(w, "%s:\n", title)
	fmt.Fprintf(w, "  %-4s %12s %12s %12s %12s %12s %12s %12s\n",
		"pass", "bound", "generated", "ossm-pruned", "hash-pruned", "counted", "frequent", "wall")
	for _, p := range rows {
		bound := "-"
		if p.Bound > 0 {
			bound = fmt.Sprintf("%d", p.Bound)
		}
		fmt.Fprintf(w, "  %-4d %12s %12d %12d %12d %12d %12d %12v\n",
			p.K, bound, p.Generated, p.PrunedOSSM, p.PrunedHash, p.Counted, p.Frequent,
			p.Wall.Round(time.Microsecond))
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
