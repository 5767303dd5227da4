package mining

// The engine-side instrumentation bridge: mining.Options carries an
// optional *Instrumentation (a telemetry.Collector), every miner's
// per-pass Emit folds its PassStats into it, and MineBy attaches the
// frozen telemetry.Report to the result's Stats envelope. A nil
// Instrumentation is the default and costs a single branch per pass —
// the uninstrumented hot path is unchanged.

import (
	"github.com/ossm-mining/ossm/internal/core"
	"github.com/ossm-mining/ossm/internal/telemetry"
)

// Instrumentation is the engine-wide telemetry hook: a collector every
// registered miner reports into (candidates generated / OSSM-pruned /
// hash-pruned / counted, per-pass wall time, transactions scanned,
// worker-pool utilization). Live per-pass consumers use Options.Progress,
// which receives the same PassStats at the same moment.
type Instrumentation = telemetry.Collector

// NewInstrumentation returns an empty collector whose run clock starts
// now. Hand it to a miner via Options.Instrument and read the report from
// the result's Stats.Telemetry.
func NewInstrumentation() *Instrumentation { return telemetry.New() }

// sample converts the engine's per-pass accounting into the telemetry
// layer's frozen form.
func (ps PassStats) sample() telemetry.PassReport {
	return telemetry.PassReport{
		K:          ps.K,
		Generated:  int64(ps.Generated),
		PrunedOSSM: int64(ps.Pruned),
		PrunedHash: int64(ps.PrunedHash),
		Counted:    int64(ps.Counted),
		Frequent:   int64(ps.Frequent),
		TxScanned:  int64(ps.TxScanned),
		EarlyExit:  int64(ps.EarlyExit),
		Abandoned:  int64(ps.Abandoned),
		Wall:       ps.Elapsed,
	}
}

// KernelDelta snapshots the pruner's kernel counters so a miner can
// attribute the difference across a pass to that pass's PassStats; a
// filter without counters yields zero deltas.
type KernelDelta struct {
	base core.KernelCounters
	f    core.Filter
}

// KernelDeltaFor starts a delta at the filter's current counters.
func KernelDeltaFor(f core.Filter) KernelDelta {
	kc, _ := core.KernelCountersOf(f)
	return KernelDelta{base: kc, f: f}
}

// Note writes the counters accumulated since the snapshot into ps and
// re-bases the delta, so one KernelDelta can span consecutive passes.
func (d *KernelDelta) Note(ps *PassStats) {
	if d.f == nil {
		return
	}
	kc, ok := core.KernelCountersOf(d.f)
	if !ok {
		return
	}
	ps.EarlyExit += int(kc.EarlyExit - d.base.EarlyExit)
	ps.Abandoned += int(kc.Abandoned - d.base.Abandoned)
	d.base = kc
}

// FinishRun attaches the collector's frozen report to the result; MineBy
// calls it after every registry dispatch, and direct hosts (episodes,
// bench wrappers) may call it themselves.
// No-op without an Instrument or a result.
func (o Options) FinishRun(res *Result) {
	if o.Instrument == nil || res == nil {
		return
	}
	o.Instrument.SetRequestID(o.RequestID)
	o.Instrument.SetPool(res.Stats.Workers)
	if kc, ok := core.KernelCountersOf(o.Pruner); ok {
		o.Instrument.SetKernelTotals(kc.Checked, kc.EarlyExit, kc.Abandoned)
	}
	res.Stats.Telemetry = o.Instrument.Snapshot()
}

// LevelTally accumulates per-level candidate accounting for depth-first
// miners, whose search order does not visit levels one at a time: each
// worker notes candidates against the level their cardinality belongs to
// in a private tally, tallies merge in deterministic order, and Apply
// writes the totals into the assembled result's per-level PassStats. The
// zero value is ready to use.
type LevelTally struct {
	byK []PassStats // byK[i] holds level i+1 (K = i+1)
}

func (t *LevelTally) pass(k int) *PassStats {
	for len(t.byK) < k {
		t.byK = append(t.byK, PassStats{K: len(t.byK) + 1})
	}
	return &t.byK[k-1]
}

// Note records candidate accounting against level k.
func (t *LevelTally) Note(k, generated, prunedOSSM, counted int) {
	p := t.pass(k)
	p.Generated += generated
	p.Pruned += prunedOSSM
	p.Counted += counted
}

// NoteTx records n transactions scanned while counting level k.
func (t *LevelTally) NoteTx(k, n int) { t.pass(k).TxScanned += n }

// Merge folds another tally (one worker's private accounting) into t.
func (t *LevelTally) Merge(o *LevelTally) {
	for i := range o.byK {
		p := t.pass(i + 1)
		p.Generated += o.byK[i].Generated
		p.Pruned += o.byK[i].Pruned
		p.Counted += o.byK[i].Counted
		p.TxScanned += o.byK[i].TxScanned
	}
}

// Apply writes the tallied candidate accounting into the result's levels
// (preserving each level's K and Frequent, which FromMap established) so
// depth-first miners report the same per-pass shape as level-wise ones.
// Tallied levels with no surviving frequent itemsets are appended as
// frequent-empty levels, so pruned work at the search frontier stays
// visible.
func (t *LevelTally) Apply(res *Result) {
	seen := make(map[int]bool, len(res.Levels))
	for i := range res.Levels {
		k := res.Levels[i].K
		seen[k] = true
		if k > len(t.byK) {
			continue
		}
		src := t.byK[k-1]
		st := &res.Levels[i].Stats
		st.Generated = src.Generated
		st.Pruned = src.Pruned
		st.Counted = src.Counted
		st.TxScanned = src.TxScanned
	}
	for i := range t.byK {
		if src := t.byK[i]; !seen[src.K] && (src.Generated > 0 || src.Counted > 0) {
			res.Levels = append(res.Levels, LevelResult{K: src.K, Stats: src})
		}
	}
	sortLevels(res.Levels)
}

func sortLevels(ls []LevelResult) {
	for i := 1; i < len(ls); i++ {
		for j := i; j > 0 && ls[j].K < ls[j-1].K; j-- {
			ls[j], ls[j-1] = ls[j-1], ls[j]
		}
	}
}
