// Package telemetry is the mining-run observability layer: a Collector
// every miner reports its finished passes into while it runs, and an
// immutable Report snapshot that rides on the result's Stats envelope.
//
// The design follows the paper's own argument (Sections 6–7): the OSSM
// pays off only when the candidates it prunes outnumber the cost of the
// bound checks, and that trade can only be judged with per-pass counts of
// candidates generated, pruned and counted, plus where the wall time went.
// A Collector captures exactly those quantities.
//
// Concurrency contract: every mutating method is safe to call from
// multiple goroutines at once (miners fan counting passes over worker
// pools), and every method tolerates a nil receiver — a nil *Collector is
// the documented "instrumentation off" state and costs one predictable
// branch per call site, so the uninstrumented hot path stays unchanged.
package telemetry

import (
	"sync"
	"sync/atomic"
	"time"
)

// Collector aggregates one mining run's telemetry. Create it with New,
// hand it to the engine via mining.Options, and read the Report from the
// result's Stats (or call Snapshot directly at any moment, including
// mid-run).
type Collector struct {
	start time.Time

	mu     sync.Mutex
	passes []PassReport // one row per K, folded by RecordPass

	// Authoritative run-level kernel totals (SetKernelTotals). When set,
	// Snapshot reports them instead of summing the per-pass kernel
	// counters, so runs that account kernel outcomes both per pass and at
	// run end never double count. Guarded by mu.
	kernelDecided, kernelEarlyExit, kernelAbandoned int64
	kernelSet                                       bool

	workerBusy atomic.Int64 // summed busy nanoseconds of fanned-out work
	pool       atomic.Int64

	// reqID tags the run with the serving-layer request that triggered
	// it, so a frozen report can be correlated with access logs and
	// traces.
	reqID atomic.Pointer[string]
}

// New returns an empty Collector; the run clock starts now.
func New() *Collector {
	return &Collector{start: time.Now()}
}

// SetRequestID tags the run with the originating request's identifier;
// Snapshot copies it into the frozen report. Empty ids are ignored.
func (c *Collector) SetRequestID(id string) {
	if c == nil || id == "" {
		return
	}
	c.reqID.Store(&id)
}

// RequestID returns the tag set by SetRequestID, or "".
func (c *Collector) RequestID() string {
	if c == nil {
		return ""
	}
	if p := c.reqID.Load(); p != nil {
		return *p
	}
	return ""
}

// RecordPass folds one finished pass into the collector: the first report
// of a level K opens its row, and any later report of the same K adds
// into that row field by field.
func (c *Collector) RecordPass(r PassReport) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.passes {
		if p := &c.passes[i]; p.K == r.K {
			p.Generated += r.Generated
			p.PrunedOSSM += r.PrunedOSSM
			p.PrunedHash += r.PrunedHash
			p.Counted += r.Counted
			p.Frequent += r.Frequent
			p.TxScanned += r.TxScanned
			p.EarlyExit += r.EarlyExit
			p.Abandoned += r.Abandoned
			p.Wall += r.Wall
			return
		}
	}
	c.passes = append(c.passes, r)
}

// SetKernelTotals records the authoritative run-level totals of the
// decision kernel: every decision it made, and the subsets admitted
// early and abandoned early — typically read off the pruner's counters
// when the run finishes. Once set, Snapshot reports these instead of
// summing per-pass kernel counters — the pruner's counters already cover
// every pass, so summing both would double count. The last call wins.
func (c *Collector) SetKernelTotals(decided, earlyExit, abandoned int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.kernelDecided, c.kernelEarlyExit, c.kernelAbandoned = decided, earlyExit, abandoned
	c.kernelSet = true
}

// ObserveWorker records one worker's busy interval in a fanned-out
// counting pass; the run report derives pool utilization from the sum.
func (c *Collector) ObserveWorker(d time.Duration) {
	if c == nil {
		return
	}
	c.workerBusy.Add(int64(d))
}

// SetPool records the resolved worker-pool size of the run (the largest
// value reported wins, so nested helpers may all report).
func (c *Collector) SetPool(n int) {
	if c == nil || n <= 0 {
		return
	}
	for {
		cur := c.pool.Load()
		if int64(n) <= cur || c.pool.CompareAndSwap(cur, int64(n)) {
			return
		}
	}
}

// Snapshot freezes the collector into an immutable Report. It may be
// called at any moment; a mid-run snapshot reports the passes finished so
// far.
func (c *Collector) Snapshot() *Report {
	if c == nil {
		return nil
	}
	elapsed := time.Since(c.start)
	r := &Report{
		RequestID:  c.RequestID(),
		Elapsed:    elapsed,
		Pool:       int(c.pool.Load()),
		WorkerBusy: time.Duration(c.workerBusy.Load()),
	}
	c.mu.Lock()
	r.Passes = append([]PassReport(nil), c.passes...)
	kernelSet, decided, earlyExit, abandoned := c.kernelSet, c.kernelDecided, c.kernelEarlyExit, c.kernelAbandoned
	c.mu.Unlock()

	for _, p := range r.Passes {
		r.Generated += p.Generated
		r.PrunedOSSM += p.PrunedOSSM
		r.PrunedHash += p.PrunedHash
		r.Counted += p.Counted
		r.Frequent += p.Frequent
		r.TxScanned += p.TxScanned
		r.KernelEarlyExit += p.EarlyExit
		r.KernelAbandoned += p.Abandoned
	}
	if kernelSet {
		r.KernelDecided, r.KernelEarlyExit, r.KernelAbandoned = decided, earlyExit, abandoned
	}
	sortPasses(r.Passes)
	if r.Pool > 0 && elapsed > 0 {
		r.Utilization = float64(r.WorkerBusy) / (float64(elapsed) * float64(r.Pool))
		if r.Utilization > 1 {
			r.Utilization = 1
		}
	}
	return r
}

func sortPasses(ps []PassReport) {
	// Insertion sort: pass lists are tiny and appear nearly ordered.
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && ps[j].K < ps[j-1].K; j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
}
