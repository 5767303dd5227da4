package obs

import (
	"context"
	"strings"
	"testing"
	"time"
)

func TestSpanTreeAndContextPropagation(t *testing.T) {
	tr := NewTracer(64)
	ctx, root := tr.Start(context.Background(), "root")
	if SpanFromContext(ctx) != root {
		t.Fatal("context does not carry the started span")
	}
	if root.TraceID() == "" || root.rec.SpanID == "" {
		t.Fatal("missing ids")
	}
	cctx, child := tr.Start(ctx, "child")
	if child.TraceID() != root.TraceID() {
		t.Errorf("child trace %s != root trace %s", child.TraceID(), root.TraceID())
	}
	_, grand := tr.Start(cctx, "grandchild")
	grand.SetAttr("k", 7)
	grand.End()
	child.End()
	time.Sleep(time.Millisecond)
	root.SetAttr("route", "/v1/mine")
	root.End()

	trees := BuildTraces(tr.Snapshot(), 0)
	if len(trees) != 1 {
		t.Fatalf("got %d roots, want 1", len(trees))
	}
	rt := trees[0]
	if rt.Name != "root" || rt.Attrs["route"] != "/v1/mine" {
		t.Errorf("root = %+v", rt.SpanRecord)
	}
	if len(rt.Children) != 1 || rt.Children[0].Name != "child" {
		t.Fatalf("children = %+v", rt.Children)
	}
	gc := rt.Children[0].Children
	if len(gc) != 1 || gc[0].Name != "grandchild" || gc[0].Attrs["k"] != 7 {
		t.Fatalf("grandchildren = %+v", gc)
	}
	// The root's duration covers every child's span window.
	for _, c := range rt.Children {
		if c.Start.Before(rt.Start) || c.Start.Add(c.Duration).After(rt.Start.Add(rt.Duration)) {
			t.Errorf("child window [%v +%v] outside root [%v +%v]", c.Start, c.Duration, rt.Start, rt.Duration)
		}
	}
}

func TestTracerMinDurationFilter(t *testing.T) {
	tr := NewTracer(16)
	_, fast := tr.Start(context.Background(), "fast")
	fast.End()
	_, slow := tr.StartAt(context.Background(), "slow", time.Now().Add(-50*time.Millisecond))
	slow.End()
	all := BuildTraces(tr.Snapshot(), 0)
	if len(all) != 2 {
		t.Fatalf("unfiltered roots = %d, want 2", len(all))
	}
	slowOnly := BuildTraces(tr.Snapshot(), 10*time.Millisecond)
	if len(slowOnly) != 1 || slowOnly[0].Name != "slow" {
		t.Fatalf("filtered roots = %+v", slowOnly)
	}
}

func TestTracerRingBounded(t *testing.T) {
	tr := NewTracer(8)
	for i := 0; i < 30; i++ {
		_, s := tr.Start(context.Background(), "s")
		s.End()
	}
	capn, held, total, dropped := tr.Stats()
	if capn != 8 || held != 8 {
		t.Errorf("cap/held = %d/%d, want 8/8", capn, held)
	}
	if total != 30 || dropped != 22 {
		t.Errorf("total/dropped = %d/%d, want 30/22", total, dropped)
	}
	if got := len(tr.Snapshot()); got != 8 {
		t.Errorf("snapshot holds %d, want 8", got)
	}
	// An orphan (parent evicted) still surfaces as a root.
	if roots := BuildTraces(tr.Snapshot(), 0); len(roots) != 8 {
		t.Errorf("roots = %d, want 8", len(roots))
	}
}

func TestNilTracerAndSpanAreSafe(t *testing.T) {
	var tr *Tracer
	ctx, s := tr.Start(context.Background(), "x")
	if s != nil {
		t.Fatal("nil tracer produced a span")
	}
	if SpanFromContext(ctx) != nil {
		t.Fatal("nil tracer modified the context")
	}
	s.SetAttr("a", 1) // must not panic
	s.End()
	if s.TraceID() != "" {
		t.Error("nil span has ids")
	}
	if tr.Snapshot() != nil {
		t.Error("nil tracer holds spans")
	}
	if NewTracer(0) != nil || NewTracer(-1) != nil {
		t.Error("non-positive capacity should disable tracing")
	}
}

func TestDoubleEndAndLateAttrs(t *testing.T) {
	tr := NewTracer(4)
	_, s := tr.Start(context.Background(), "once")
	s.End()
	s.SetAttr("late", true)
	s.End()
	if len(tr.Snapshot()) != 1 {
		t.Fatalf("recorded %d spans, want 1", len(tr.Snapshot()))
	}
	if rec := tr.Snapshot()[0]; rec.Attrs != nil {
		t.Errorf("late attr recorded: %v", rec.Attrs)
	}
}

func TestRequestIDs(t *testing.T) {
	a, b := NewRequestID(), NewRequestID()
	if len(a) != 16 || a == b {
		t.Errorf("ids = %q, %q", a, b)
	}
	if RequestIDFrom(context.Background()) != "" {
		t.Error("empty context carries a request id")
	}
}

func TestTraceParentRoundTrip(t *testing.T) {
	tr := NewTracer(8)
	_, span := tr.Start(context.Background(), "op")
	hdr := span.TraceParent()
	traceID, spanID, ok := ParseTraceParent(hdr)
	if !ok {
		t.Fatalf("ParseTraceParent rejected %q", hdr)
	}
	if traceID != span.TraceID() || spanID != span.rec.SpanID {
		t.Errorf("round trip = (%s, %s), want (%s, %s)", traceID, spanID, span.TraceID(), span.rec.SpanID)
	}
	if (*Span)(nil).TraceParent() != "" {
		t.Error("nil span should render an empty traceparent")
	}
	for _, bad := range []string{
		"", "00-abc", "01-abcd-ef01-01", "00-xyz!-ef01-01", "00-abcd-XY-01", "00--ef01-01", "00-abcd-ef01-01-extra",
		"00-" + strings.Repeat("a", 33) + "-ef01-01", "00-abcd-" + strings.Repeat("e", 33) + "-01",
	} {
		if _, _, ok := ParseTraceParent(bad); ok {
			t.Errorf("ParseTraceParent accepted malformed %q", bad)
		}
	}
	// A W3C-width header (32/16 hex chars) parses too.
	if _, _, ok := ParseTraceParent("00-0123456789abcdef0123456789abcdef-0123456789abcdef-01"); !ok {
		t.Error("W3C-width traceparent rejected")
	}
}

func TestRemoteParentStitching(t *testing.T) {
	// Coordinator process: a root span whose context crosses the wire.
	coord := NewTracer(8)
	cctx, rpc := coord.Start(context.Background(), "rpc-bounds")
	_ = cctx
	hdr := rpc.TraceParent()
	rpc.End()

	// Worker process: rebuild the parent from the header and serve under it.
	worker := NewTracer(8)
	traceID, spanID, ok := ParseTraceParent(hdr)
	if !ok {
		t.Fatal("header did not parse")
	}
	wctx := ContextWithRemoteParent(context.Background(), traceID, spanID)
	sctx, serve := worker.Start(wctx, "serve /shard/v1/bounds")
	_, kernel := worker.Start(sctx, "kernel-bounds")
	kernel.End()
	serve.End()
	if serve.TraceID() != rpc.TraceID() {
		t.Fatalf("worker span joined trace %s, want %s", serve.TraceID(), rpc.TraceID())
	}

	// The synthetic parent records nothing on the worker's ring.
	if got := len(worker.Snapshot()); got != 2 {
		t.Fatalf("worker ring holds %d spans, want 2", got)
	}

	// Coordinator-side assembly: merge both rings into one tree.
	merged := append(coord.Snapshot(), worker.Snapshot()...)
	roots := BuildTraces(merged, 0)
	if len(roots) != 1 {
		t.Fatalf("merged spans built %d trees, want 1", len(roots))
	}
	root := roots[0]
	if root.Name != "rpc-bounds" || len(root.Children) != 1 {
		t.Fatalf("unexpected tree root %q with %d children", root.Name, len(root.Children))
	}
	if root.Children[0].Name != "serve /shard/v1/bounds" || len(root.Children[0].Children) != 1 {
		t.Fatalf("serve span not parented under the rpc span: %+v", root.Children[0])
	}
}

func TestStartAtEndAtExactDuration(t *testing.T) {
	tr := NewTracer(4)
	start := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	_, span := tr.StartAt(context.Background(), "phase", start)
	span.EndAt(start.Add(250 * time.Millisecond))
	recs := tr.Snapshot()
	if len(recs) != 1 {
		t.Fatalf("ring holds %d spans", len(recs))
	}
	if recs[0].Duration != 250*time.Millisecond || !recs[0].Start.Equal(start) {
		t.Errorf("synthesized span = start %v dur %v", recs[0].Start, recs[0].Duration)
	}
}
