package telemetry

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilCollectorSafe pins the zero-overhead contract: every method of a
// nil Collector is a no-op, so the uninstrumented path never branches on
// more than the receiver check.
func TestNilCollectorSafe(t *testing.T) {
	var c *Collector
	c.RecordPass(PassReport{K: 2, Generated: 5})
	c.SetKernelTotals(3, 2, 1)
	c.ObserveWorker(time.Millisecond)
	c.SetPool(4)
	c.SetRequestID("abc")
	if id := c.RequestID(); id != "" {
		t.Fatalf("nil collector carries request id %q", id)
	}
	if r := c.Snapshot(); r != nil {
		t.Fatalf("nil collector snapshot = %+v", r)
	}
}

// TestCollectorAccumulatesPasses checks the per-K fold: a second report
// of K = 2 adds into the first row instead of opening another, and the
// run totals sum the folded rows.
func TestCollectorAccumulatesPasses(t *testing.T) {
	c := New()
	c.RecordPass(PassReport{K: 2, Generated: 150, PrunedOSSM: 100, Counted: 50, Frequent: 6, TxScanned: 300, EarlyExit: 4})
	c.RecordPass(PassReport{K: 1, Generated: 100, Counted: 100, Frequent: 20, TxScanned: 500, Wall: time.Millisecond})
	c.RecordPass(PassReport{K: 2, Generated: 40, PrunedOSSM: 20, PrunedHash: 3, Counted: 20, Frequent: 3, TxScanned: 200, Abandoned: 5, Wall: time.Millisecond})
	c.SetPool(4)
	c.ObserveWorker(2 * time.Millisecond)

	r := c.Snapshot()
	if len(r.Passes) != 2 {
		t.Fatalf("got %d passes, want 2 (repeated K must fold): %+v", len(r.Passes), r.Passes)
	}
	if r.Passes[0].K != 1 || r.Passes[1].K != 2 {
		t.Fatalf("passes out of order: %+v", r.Passes)
	}
	want2 := PassReport{K: 2, Generated: 190, PrunedOSSM: 120, PrunedHash: 3, Counted: 70, Frequent: 9,
		TxScanned: 500, EarlyExit: 4, Abandoned: 5, Wall: time.Millisecond}
	if r.Passes[1] != want2 {
		t.Fatalf("folded pass 2 = %+v, want %+v", r.Passes[1], want2)
	}
	if r.Generated != 290 || r.PrunedOSSM != 120 || r.PrunedHash != 3 || r.Counted != 170 {
		t.Fatalf("totals wrong: %+v", r)
	}
	if r.Frequent != 29 || r.TxScanned != 1000 {
		t.Fatalf("frequent/txscanned wrong: %+v", r)
	}
	if r.KernelEarlyExit != 4 || r.KernelAbandoned != 5 || r.KernelDecided != 0 {
		t.Fatalf("per-pass kernel sums wrong: %+v", r)
	}
	if r.Pool != 4 || r.WorkerBusy != 2*time.Millisecond {
		t.Fatalf("pool accounting wrong: %+v", r)
	}
	if r.Utilization <= 0 || r.Utilization > 1 {
		t.Fatalf("utilization out of range: %v", r.Utilization)
	}
	if got := r.Passes[1].PruneRate(); got < 0.6 || got > 0.7 {
		t.Fatalf("pass-2 prune rate = %v, want ≈ 123/190", got)
	}

	// Authoritative run-level kernel totals replace the per-pass sums.
	c.SetKernelTotals(90, 7, 8)
	if r := c.Snapshot(); r.KernelDecided != 90 || r.KernelEarlyExit != 7 || r.KernelAbandoned != 8 {
		t.Fatalf("kernel totals not authoritative: %+v", r)
	}
}

// TestRequestIDPropagation pins the serving-layer correlation contract:
// the id set on the collector surfaces verbatim in the frozen report,
// and the empty id never overwrites a set one.
func TestRequestIDPropagation(t *testing.T) {
	c := New()
	if c.RequestID() != "" {
		t.Fatal("fresh collector carries a request id")
	}
	if r := c.Snapshot(); r.RequestID != "" {
		t.Fatalf("untagged snapshot has request id %q", r.RequestID)
	}
	c.SetRequestID("req-42")
	c.SetRequestID("") // ignored: empty ids never clear a tag
	if id := c.RequestID(); id != "req-42" {
		t.Fatalf("RequestID = %q, want req-42", id)
	}
	if r := c.Snapshot(); r.RequestID != "req-42" {
		t.Fatalf("snapshot request id = %q, want req-42", r.RequestID)
	}
}

// TestCollectorConcurrent hammers one collector from many goroutines —
// passes folding into shared rows, worker intervals, pool reports and
// mid-run snapshots; run under -race this is the race-cleanliness gate.
func TestCollectorConcurrent(t *testing.T) {
	c := New()
	const workers, iters = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c.RecordPass(PassReport{K: 1 + i%3, Generated: 1, Counted: 1, TxScanned: 1})
				c.ObserveWorker(time.Nanosecond)
				c.SetPool(w + 1)
				if i%100 == 0 {
					c.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	r := c.Snapshot()
	if len(r.Passes) != 3 {
		t.Fatalf("got %d pass rows, want 3", len(r.Passes))
	}
	if r.Generated != workers*iters || r.Counted != workers*iters || r.TxScanned != workers*iters {
		t.Fatalf("lost updates: %+v", r)
	}
	if r.WorkerBusy != workers*iters*time.Nanosecond || r.Pool != workers {
		t.Fatalf("worker accounting wrong: busy %v, pool %d", r.WorkerBusy, r.Pool)
	}
}

func TestReportPrint(t *testing.T) {
	c := New()
	c.RecordPass(PassReport{K: 2, Generated: 10, PrunedOSSM: 4, PrunedHash: 2, Counted: 4, Frequent: 1})
	var buf bytes.Buffer
	c.Snapshot().Print(&buf)
	out := buf.String()
	for _, want := range []string{"generated", "ossm-pruned", "hash-pruned", "prune rate 60.0%"} {
		if !strings.Contains(out, want) {
			t.Errorf("Print output missing %q:\n%s", want, out)
		}
	}
	var nilRep *Report
	buf.Reset()
	nilRep.Print(&buf)
	if !strings.Contains(buf.String(), "not collected") {
		t.Errorf("nil report print = %q", buf.String())
	}
}

// TestCandidateBound pins the Geerts–Goethals–Van den Bussche bound on
// hand-checked values.
func TestCandidateBound(t *testing.T) {
	cases := []struct {
		m    int64
		k    int
		want int64
	}{
		{0, 2, 0},
		{1, 1, 0},                  // C(1,1) ⇒ C(1,2) = 0
		{5, 1, 10},                 // 5 frequent items ⇒ C(5,2) pairs
		{10, 2, 10},                // C(5,2) ⇒ C(5,3) = 10
		{6, 2, 4},                  // C(4,2) ⇒ C(4,3) = 4
		{7, 2, 4},                  // C(4,2)+C(1,1) ⇒ C(4,3)+C(1,2) = 4+0
		{20, 3, 15},                // C(6,3) ⇒ C(6,4)
		{1000000, 1, 499999500000}, // C(10^6, 2)
	}
	for _, tc := range cases {
		if got := CandidateBound(tc.m, tc.k); got != tc.want {
			t.Errorf("CandidateBound(%d, %d) = %d, want %d", tc.m, tc.k, got, tc.want)
		}
	}
	// The bound must never fall below what Apriori-gen can actually emit:
	// m frequent k-itemsets join into at most C(m, 2) candidates, and for
	// complete levels the bound is attained exactly (checked above); here
	// just assert monotonicity in m.
	prev := int64(-1)
	for m := int64(0); m <= 60; m++ {
		b := CandidateBound(m, 2)
		if b < prev {
			t.Fatalf("bound not monotone at m=%d: %d < %d", m, b, prev)
		}
		prev = b
	}
}

func TestBinomialSaturates(t *testing.T) {
	if b := binomial(200, 100); b <= 0 {
		t.Fatalf("saturating binomial went non-positive: %d", b)
	}
	if b := CandidateBound(1<<60, 5); b <= 0 {
		t.Fatalf("saturating bound went non-positive: %d", b)
	}
}
