package mining

// The unified mining engine: one Options struct every miner understands,
// one Stats envelope every result carries, and a registry that exposes
// each miner behind a uniform driver signature. The six miner packages
// (apriori, dhp, eclat, fpgrowth, partition, depthproject) embed Options
// in their algorithm-specific options, attach their extra counters to
// Stats.Extra, and register themselves from init(), so the CLIs, the
// public facade and the bench harness dispatch by name through Lookup
// instead of per-binary switches.

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/ossm-mining/ossm/internal/core"
	"github.com/ossm-mining/ossm/internal/dataset"
	"github.com/ossm-mining/ossm/internal/telemetry"
)

// Options is the shared engine configuration embedded by every miner's
// algorithm-specific options. The zero value mines serially, unpruned
// and unbounded.
type Options struct {
	// Pruner applies an OSSM bound (or any core.Filter, e.g. the
	// generalized ExtendedPruner) to candidates before counting; nil runs
	// the plain algorithm.
	Pruner core.Filter
	// MaxLen stops after frequent itemsets of this size (0 = unlimited).
	MaxLen int
	// Workers fans the miner's hot counting passes over a goroutine pool
	// (conc.Resolve semantics: 0, 1 or negative = serial, larger values
	// capped at NumCPU). The result is identical to the serial run.
	Workers int
	// Progress, when non-nil, is invoked once per completed level with
	// that level's statistics. Level-wise miners (Apriori, DHP) call it
	// as each pass finishes; depth-first and partition-based miners call
	// it per assembled level once the search completes. It runs on the
	// mining goroutine, right after the pass is folded into Instrument.
	Progress func(PassStats)
	// Instrument, when non-nil, collects engine-wide telemetry: per-pass
	// candidate accounting and wall time, transactions scanned, and
	// worker-pool utilization, frozen into Stats.Telemetry when the run
	// finishes. nil (the default) disables collection at the cost of one
	// branch per pass — the counting hot paths are untouched.
	Instrument *Instrumentation
	// RequestID tags the run's telemetry report with the serving-layer
	// request that triggered it, so one slow /v1/mine call can be
	// followed from access log to per-pass counters. Empty (the
	// default) leaves the report untagged; without an Instrument
	// collector the tag has nowhere to land and is ignored.
	RequestID string
	// Params carries algorithm-specific integer tunables by name, so the
	// uniform driver signature can still reach per-miner knobs (e.g.
	// "partitions" for Partition, "buckets" for DHP). Miners read the
	// keys they understand and ignore the rest; missing or zero keys fall
	// back to package defaults.
	Params map[string]int
}

// Param returns the named tunable, or def when absent or zero.
func (o Options) Param(name string, def int) int {
	if v := o.Params[name]; v != 0 {
		return v
	}
	return def
}

// Emit reports one finished pass: it folds the pass into the Instrument
// collector and invokes the Progress hook, if any.
func (o Options) Emit(ps PassStats) {
	if o.Instrument != nil {
		o.Instrument.RecordPass(ps.sample())
	}
	if o.Progress != nil {
		o.Progress(ps)
	}
}

// Stats is the unified run-level accounting envelope attached to every
// Result (per-pass counters live in LevelResult.Stats).
type Stats struct {
	// Algorithm is the registry name of the miner that produced the
	// result.
	Algorithm string
	// Elapsed is the total mining wall time.
	Elapsed time.Duration
	// Workers is the resolved goroutine-pool size the counting passes ran
	// with (1 for miners with no parallel counting path).
	Workers int
	// Extra holds algorithm-specific counters as a typed extension (e.g.
	// *dhp.Stats, *eclat.Stats); nil for miners without extra accounting.
	Extra any
	// Telemetry is the uniform engine-wide observability section: the
	// frozen report of the run's Instrumentation collector (per-pass
	// candidate accounting, transactions scanned, pool utilization). nil
	// when the run was not instrumented.
	Telemetry *telemetry.Report
}

// Driver is the uniform mining entry point the registry exposes: mine d
// at the absolute support threshold minCount under the shared options.
type Driver func(d *dataset.Dataset, minCount int64, opts Options) (*Result, error)

var (
	regMu    sync.RWMutex
	registry = make(map[string]Driver)
)

// Register adds a named miner to the registry; miner packages call it
// from init(). It panics on an empty name, nil driver, or duplicate
// registration — all programmer errors.
func Register(name string, drv Driver) {
	if name == "" || drv == nil {
		panic("mining: Register requires a name and a driver")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("mining: miner %q registered twice", name))
	}
	registry[name] = drv
}

// Lookup returns the named miner's driver.
func Lookup(name string) (Driver, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	drv, ok := registry[name]
	return drv, ok
}

// Names lists the registered miners in sorted order.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// MineBy looks the named miner up and runs it, with a listing of known
// names in the error for an unknown one. When the options carry an
// Instrument collector, MineBy attaches the frozen telemetry report to
// the result's Stats.
func MineBy(name string, d *dataset.Dataset, minCount int64, opts Options) (*Result, error) {
	drv, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("mining: unknown miner %q (registered: %v)", name, Names())
	}
	res, err := drv(d, minCount, opts)
	if err != nil {
		return nil, err
	}
	opts.FinishRun(res)
	return res, nil
}

// EmitLevels replays an assembled result's levels through Emit — the
// per-level notification path for miners that do not work level by level
// (FP-growth, dEclat, DepthProject, Partition).
func EmitLevels(o Options, r *Result) {
	if o.Progress == nil && o.Instrument == nil {
		return
	}
	for _, l := range r.Levels {
		o.Emit(l.Stats)
	}
}
