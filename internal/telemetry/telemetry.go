// Package telemetry is the engine-wide observability layer: allocation-free
// atomic counters and timers that every miner reports into while it runs,
// a structured event stream for live consumers, and an immutable Report
// snapshot that rides on the result's Stats envelope.
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

// Counter is an allocation-free atomic event counter. The zero value is
// ready to use; a nil receiver ignores writes and reads as zero.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current value.
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Timer accumulates wall-clock durations atomically: total time and the
// number of observations. The zero value is ready; nil ignores writes.
type Timer struct {
	ns Counter
	n  Counter
}

// Observe records one duration.
func (t *Timer) Observe(d time.Duration) {
	if t != nil {
		t.ns.Add(int64(d))
		t.n.Inc()
	}
}

// Total returns the accumulated duration.
func (t *Timer) Total() time.Duration {
	if t == nil {
		return 0
	}
	return time.Duration(t.ns.Load())
}

// Count returns the number of observations.
func (t *Timer) Count() int64 { return t.n.Load() }

// PassCounters is the per-pass counter block: the candidate accounting of
// one level k plus the transactions scanned and wall time of that pass.
// All fields are atomic; miners may update them from several goroutines.
type PassCounters struct {
	K          int
	Generated  Counter // candidate k-itemsets generated
	PrunedOSSM Counter // discarded by the OSSM bound before counting
	PrunedHash Counter // discarded by hash filtering (DHP buckets)
	Counted    Counter // candidates whose support was actually counted
	Frequent   Counter // candidates found frequent
	TxScanned  Counter // transactions scanned during this pass
	// EarlyExit / Abandoned break down the decision-mode bound kernel's
	// shortcuts this pass: candidates admitted (resp. rejected) before the
	// kernel scanned every segment of the OSSM.
	EarlyExit Counter
	Abandoned Counter
	Wall      Timer // wall time attributed to this pass
}

// report snapshots the pass counters.
func (p *PassCounters) report() PassReport {
	return PassReport{
		K:          p.K,
		Generated:  p.Generated.Load(),
		PrunedOSSM: p.PrunedOSSM.Load(),
		PrunedHash: p.PrunedHash.Load(),
		Counted:    p.Counted.Load(),
		Frequent:   p.Frequent.Load(),
		TxScanned:  p.TxScanned.Load(),
		EarlyExit:  p.EarlyExit.Load(),
		Abandoned:  p.Abandoned.Load(),
		Wall:       p.Wall.Total(),
	}
}

// EventKind discriminates the structured event stream.
type EventKind int

const (
	// EventRunStart opens a mining run (Algorithm set).
	EventRunStart EventKind = iota
	// EventPassEnd closes one pass (Pass set, the pass counters frozen).
	EventPassEnd
	// EventRunEnd closes the run (Elapsed set).
	EventRunEnd
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case EventRunStart:
		return "run-start"
	case EventPassEnd:
		return "pass-end"
	case EventRunEnd:
		return "run-end"
	}
	return "event"
}

// Event is one element of the structured stream a Collector's sink
// receives — the typed replacement for ad-hoc per-level progress
// callbacks. Consumers must not retain Pass beyond the callback.
type Event struct {
	Kind      EventKind
	Algorithm string
	// Pass carries the frozen counters of the pass that just ended
	// (EventPassEnd only).
	Pass PassReport
	// Elapsed is the run wall time so far (EventRunEnd only).
	Elapsed time.Duration
}

// Collector aggregates one mining run's telemetry. Create it with New,
// hand it to the engine via mining.Options, and read the Report from the
// result's Stats (or call Snapshot directly at any moment, including
// mid-run).
type Collector struct {
	start time.Time

	mu     sync.Mutex
	passes []*PassCounters // dense by first use, sorted by K at snapshot

	// Run-level counters for work that cannot be attributed to a pass
	// (depth-first searches report their totals here).
	generated  Counter
	prunedOSSM Counter
	prunedHash Counter
	counted    Counter

	txScanned  Counter
	workerBusy Timer
	pool       atomic.Int64

	// Authoritative run-level kernel totals (SetKernelTotals). When set,
	// Snapshot reports them instead of summing the per-pass kernel
	// counters, so runs that account kernel outcomes both per pass and at
	// run end never double count.
	kernelDecided   atomic.Int64
	kernelEarlyExit atomic.Int64
	kernelAbandoned atomic.Int64
	kernelSet       atomic.Bool

	sink   atomic.Pointer[func(Event)]
	events Counter

	// reqID tags the run with the serving-layer request that triggered
	// it, so a frozen report can be correlated with access logs and
	// traces.
	reqID atomic.Pointer[string]
}

// New returns an empty Collector; the run clock starts now.
func New() *Collector {
	return &Collector{start: time.Now()}
}

// SetSink installs the event-stream consumer. Pass nil to detach. Safe to
// call concurrently with a running collection, though installing the sink
// before mining starts is the norm.
func (c *Collector) SetSink(fn func(Event)) {
	if c == nil {
		return
	}
	if fn == nil {
		c.sink.Store(nil)
		return
	}
	c.sink.Store(&fn)
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

// Emit delivers one event to the sink, if any.
func (c *Collector) Emit(e Event) {
	if c == nil {
		return
	}
	c.events.Inc()
	if fn := c.sink.Load(); fn != nil {
		(*fn)(e)
	}
}

// Pass returns the counter block of pass k, creating it on first use.
// Miners should fetch the block once per pass and update its atomic
// fields directly on the hot path.
func (c *Collector) Pass(k int) *PassCounters {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, p := range c.passes {
		if p.K == k {
			return p
		}
	}
	p := &PassCounters{K: k}
	c.passes = append(c.passes, p)
	return p
}

// RecordPass folds one finished pass into the collector in a single call
// — the path engine-level code uses when a miner hands it an assembled
// per-pass summary — and emits an EventPassEnd carrying the pass's frozen
// counters.
func (c *Collector) RecordPass(algorithm string, r PassReport) {
	if c == nil {
		return
	}
	p := c.Pass(r.K)
	p.Generated.Add(r.Generated)
	p.PrunedOSSM.Add(r.PrunedOSSM)
	p.PrunedHash.Add(r.PrunedHash)
	p.Counted.Add(r.Counted)
	p.Frequent.Add(r.Frequent)
	p.TxScanned.Add(r.TxScanned)
	p.EarlyExit.Add(r.EarlyExit)
	p.Abandoned.Add(r.Abandoned)
	if r.Wall > 0 {
		p.Wall.Observe(r.Wall)
	}
	c.Emit(Event{Kind: EventPassEnd, Algorithm: algorithm, Pass: p.report()})
}

// AddCandidates records candidate accounting that the miner cannot
// attribute to a level (run-level totals of depth-first searches).
func (c *Collector) AddCandidates(generated, prunedOSSM, prunedHash, counted int64) {
	if c == nil {
		return
	}
	c.generated.Add(generated)
	c.prunedOSSM.Add(prunedOSSM)
	c.prunedHash.Add(prunedHash)
	c.counted.Add(counted)
}

// AddTxScanned records n transactions scanned outside any pass
// attribution (per-pass scans go through PassCounters.TxScanned, which
// Snapshot sums into the run total as well).
func (c *Collector) AddTxScanned(n int64) { c.txScannedCounter().Add(n) }

func (c *Collector) txScannedCounter() *Counter {
	if c == nil {
		return nil
	}
	return &c.txScanned
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
	c.kernelDecided.Store(decided)
	c.kernelEarlyExit.Store(earlyExit)
	c.kernelAbandoned.Store(abandoned)
	c.kernelSet.Store(true)
}

// ObserveWorker records one worker's busy interval in a fanned-out
// counting pass; the run report derives pool utilization from the sum.
func (c *Collector) ObserveWorker(d time.Duration) {
	if c == nil {
		return
	}
	c.workerBusy.Observe(d)
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
	c.mu.Lock()
	passes := make([]*PassCounters, len(c.passes))
	copy(passes, c.passes)
	c.mu.Unlock()

	r := &Report{
		RequestID:  c.RequestID(),
		Elapsed:    elapsed,
		Generated:  c.generated.Load(),
		PrunedOSSM: c.prunedOSSM.Load(),
		PrunedHash: c.prunedHash.Load(),
		Counted:    c.counted.Load(),
		TxScanned:  c.txScanned.Load(),
		Pool:       int(c.pool.Load()),
		WorkerBusy: c.workerBusy.Total(),
		Events:     c.events.Load(),
	}
	var passEarlyExit, passAbandoned int64
	for _, p := range passes {
		pr := p.report()
		r.Passes = append(r.Passes, pr)
		r.Generated += pr.Generated
		r.PrunedOSSM += pr.PrunedOSSM
		r.PrunedHash += pr.PrunedHash
		r.Counted += pr.Counted
		r.Frequent += pr.Frequent
		r.TxScanned += pr.TxScanned
		passEarlyExit += pr.EarlyExit
		passAbandoned += pr.Abandoned
	}
	if c.kernelSet.Load() {
		r.KernelDecided = c.kernelDecided.Load()
		r.KernelEarlyExit = c.kernelEarlyExit.Load()
		r.KernelAbandoned = c.kernelAbandoned.Load()
	} else {
		r.KernelEarlyExit = passEarlyExit
		r.KernelAbandoned = passAbandoned
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
