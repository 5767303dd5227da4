package ossm

import (
	"fmt"
	"strings"

	"github.com/ossm-mining/ossm/internal/mining"
	"github.com/ossm-mining/ossm/internal/telemetry"
)

// Engine-layer re-exports: every miner registers itself with the shared
// engine under a stable name, and Mine dispatches through that registry —
// the CLIs, the facade wrappers and the benchmarks all go through this
// one path.
type (
	// PassStats is the per-level accounting every miner reports
	// (generated/pruned/counted candidates and frequent itemsets).
	PassStats = mining.PassStats
	// Stats is the per-run envelope on every Result: algorithm name,
	// wall time, resolved worker pool, plus algorithm-specific counters
	// in Extra.
	Stats = mining.Stats
	// Instrumentation is the engine-wide telemetry collector: hand one to
	// Mine via MineOptions.Instrument and the run's per-pass candidate
	// accounting, transactions scanned and pool utilization are frozen
	// into the result's Stats.Telemetry.
	Instrumentation = mining.Instrumentation
	// Telemetry is the frozen, JSON-serializable report an instrumented
	// run attaches to Stats.Telemetry.
	Telemetry = telemetry.Report
	// TelemetryPass is one per-pass row of a Telemetry report.
	TelemetryPass = telemetry.PassReport
)

// NewInstrumentation returns an empty telemetry collector whose run clock
// starts now.
func NewInstrumentation() *Instrumentation { return mining.NewInstrumentation() }

// CandidateBound is the Geerts–Goethals–Van den Bussche tight upper bound
// on the number of candidate (k+1)-itemsets derivable from m frequent
// k-itemsets — the reference curve telemetry consumers plot per-pass
// candidate counts against.
func CandidateBound(m int64, k int) int64 { return telemetry.CandidateBound(m, k) }

// Miners returns the registered miner names, sorted. Every name is a
// valid first argument to Mine.
func Miners() []string { return mining.Names() }

// MineOptions configures Mine. The zero value runs a plain serial miner
// with no pruning.
type MineOptions struct {
	// Filter prunes candidates before they are counted (derive one from
	// an Index or ExtendedIndex); nil disables pruning. Miners that
	// generate no candidates (fpgrowth) ignore it.
	Filter Filter
	// MaxLen stops at itemsets of this size (0 = unlimited).
	MaxLen int
	// Workers fans each miner's counting passes over a goroutine pool
	// (0 or 1 = serial, capped at the CPU count); results are identical
	// to the serial run.
	Workers int
	// Progress, if non-nil, receives each level's PassStats as mining
	// proceeds (level-wise miners call it per pass; depth-first miners
	// replay the levels once at the end).
	Progress func(PassStats)
	// Params carries algorithm-specific integer tunables by name, e.g.
	// "partitions" for the partition miner or "buckets" for dhp. Unknown
	// names are ignored; zero or missing values mean the default.
	Params map[string]int
	// Instrument, if non-nil, collects engine-wide telemetry for the run;
	// read the frozen report from the result's Stats.Telemetry. nil (the
	// default) disables collection with no overhead beyond one branch per
	// pass.
	Instrument *Instrumentation
	// RequestID tags the instrumented run's telemetry report with the
	// originating serving-layer request (ossm-serve's X-Request-Id), so
	// reports can be correlated with access logs and traces. Ignored
	// without an Instrument collector.
	RequestID string
}

func (o MineOptions) engine() mining.Options {
	return mining.Options{
		Pruner:     o.Filter,
		MaxLen:     o.MaxLen,
		Workers:    o.Workers,
		Progress:   o.Progress,
		Params:     o.Params,
		Instrument: o.Instrument,
		RequestID:  o.RequestID,
	}
}

// Mine runs the named miner over d at the given relative support
// threshold. Valid names are those returned by Miners.
func Mine(name string, d *Dataset, minSupport float64, opts MineOptions) (*Result, error) {
	return MineAt(name, d, MinCountFor(d, minSupport), opts)
}

// MineAt is Mine with an absolute support count instead of a relative
// threshold.
func MineAt(name string, d *Dataset, minCount int64, opts MineOptions) (*Result, error) {
	if _, ok := mining.Lookup(name); !ok {
		return nil, fmt.Errorf("ossm: unknown miner %q (have: %s)", name, strings.Join(Miners(), ", "))
	}
	return mining.MineBy(name, d, minCount, opts.engine())
}
