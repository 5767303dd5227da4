package telemetry

import (
	"fmt"
	"io"
	"math"
	"time"
)

// PassReport is the frozen per-pass telemetry of one level: the
// quantities behind the paper's pruning-effectiveness tables.
type PassReport struct {
	K          int           `json:"k"`
	Generated  int64         `json:"generated"`
	PrunedOSSM int64         `json:"pruned_ossm"`
	PrunedHash int64         `json:"pruned_hash,omitempty"`
	Counted    int64         `json:"counted"`
	Frequent   int64         `json:"frequent"`
	TxScanned  int64         `json:"tx_scanned,omitempty"`
	Wall       time.Duration `json:"wall_ns"`
}

// PruneRate is the fraction of generated candidates discarded before
// counting (by the OSSM bound and hash filtering together); 0 when the
// pass generated nothing.
func (p PassReport) PruneRate() float64 {
	if p.Generated == 0 {
		return 0
	}
	return float64(p.PrunedOSSM+p.PrunedHash) / float64(p.Generated)
}

// Report is the immutable run-level telemetry snapshot attached to a
// result's Stats envelope. Its totals sum the per-pass rows.
type Report struct {
	// RequestID is the serving-layer request that triggered the run
	// (SetRequestID), correlating the report with access logs and
	// traces; empty for runs outside the serving path.
	RequestID string `json:"request_id,omitempty"`

	Passes []PassReport `json:"passes,omitempty"`

	Generated  int64 `json:"generated"`
	PrunedOSSM int64 `json:"pruned_ossm"`
	PrunedHash int64 `json:"pruned_hash,omitempty"`
	Counted    int64 `json:"counted"`
	Frequent   int64 `json:"frequent"`
	TxScanned  int64 `json:"tx_scanned"`

	// Pool is the resolved worker-pool size; WorkerBusy the summed busy
	// time of fanned-out counting work; Utilization = WorkerBusy /
	// (Elapsed × Pool), in [0, 1] (0 when nothing was fanned out).
	Pool        int           `json:"pool,omitempty"`
	WorkerBusy  time.Duration `json:"worker_busy_ns,omitempty"`
	Utilization float64       `json:"utilization,omitempty"`

	Elapsed time.Duration `json:"elapsed_ns"`
}

// PruneRate is the run-level fraction of generated candidates discarded
// before counting.
func (r *Report) PruneRate() float64 {
	if r == nil || r.Generated == 0 {
		return 0
	}
	return float64(r.PrunedOSSM+r.PrunedHash) / float64(r.Generated)
}

// Print renders the report as the human-readable metrics table the
// ossm-mine -metrics flag shows.
func (r *Report) Print(w io.Writer) {
	if r == nil {
		fmt.Fprintln(w, "telemetry: (not collected)")
		return
	}
	fmt.Fprintf(w, "telemetry: %d generated, %d pruned by OSSM, %d pruned by hash, %d counted (prune rate %.1f%%)\n",
		r.Generated, r.PrunedOSSM, r.PrunedHash, r.Counted, 100*r.PruneRate())
	fmt.Fprintf(w, "           %d transactions scanned, elapsed %v\n", r.TxScanned, r.Elapsed.Round(time.Microsecond))
	if r.Pool > 0 {
		fmt.Fprintf(w, "           pool %d workers, busy %v, utilization %.1f%%\n",
			r.Pool, r.WorkerBusy.Round(time.Microsecond), 100*r.Utilization)
	}
	if len(r.Passes) == 0 {
		return
	}
	fmt.Fprintf(w, "  %-4s %12s %12s %12s %12s %12s %12s %12s\n",
		"pass", "generated", "ossm-pruned", "hash-pruned", "counted", "frequent", "tx-scanned", "wall")
	for _, p := range r.Passes {
		fmt.Fprintf(w, "  %-4d %12d %12d %12d %12d %12d %12d %12v\n",
			p.K, p.Generated, p.PrunedOSSM, p.PrunedHash, p.Counted, p.Frequent, p.TxScanned,
			p.Wall.Round(time.Microsecond))
	}
}

// CandidateBound is the tight combinatorial upper bound on the number of
// candidate (k+1)-itemsets derivable from m frequent k-itemsets (Geerts,
// Goethals & Van den Bussche, "A Tight Upper Bound on the Number of
// Candidate Patterns"): write m in its k-canonical (cascade)
// representation m = C(m_k, k) + C(m_{k-1}, k-1) + … + C(m_r, r) with
// m_k > m_{k-1} > … > m_r ≥ r ≥ 1, then
//
//	bound = C(m_k, k+1) + C(m_{k-1}, k) + … + C(m_r, r+1).
//
// It is the principled reference curve to plot a miner's per-pass
// Generated counts against: a level-wise miner can never generate more,
// and the gap between the curve and the OSSM run's Counted column is the
// pruning effectiveness. The result saturates at math.MaxInt64 instead of
// overflowing.
func CandidateBound(m int64, k int) int64 {
	if m <= 0 || k < 1 {
		return 0
	}
	var bound int64
	for i := k; i >= 1 && m > 0; i-- {
		n := maxChoose(m, int64(i))
		bound = satAdd(bound, binomial(n, int64(i)+1))
		m -= binomial(n, int64(i))
	}
	return bound
}

// maxChoose returns the largest n ≥ k with C(n, k) ≤ m, by galloping then
// binary search (C(n, k) is strictly increasing in n for n ≥ k).
func maxChoose(m, k int64) int64 {
	lo, hi := k, k+1
	for binomial(hi, k) <= m && hi < math.MaxInt64/2 {
		lo, hi = hi, hi*2
	}
	for lo+1 < hi {
		mid := lo + (hi-lo)/2
		if binomial(mid, k) <= m {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// binomial returns C(n, k), saturating at math.MaxInt64.
func binomial(n, k int64) int64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	var res int64 = 1
	for i := int64(1); i <= k; i++ {
		// res *= (n - k + i) / i, keeping the running product integral.
		f := n - k + i
		if res > math.MaxInt64/f {
			return math.MaxInt64
		}
		res = res * f / i
	}
	return res
}

func satAdd(a, b int64) int64 {
	if a > math.MaxInt64-b {
		return math.MaxInt64
	}
	return a + b
}
