package obs

import (
	"context"
	"sort"
	"strings"
	"sync"
	"time"
)

// SpanRecord is the frozen export of one finished span — what the ring
// buffer stores and GET /v1/traces serves.
type SpanRecord struct {
	TraceID  string         `json:"trace_id"`
	SpanID   string         `json:"span_id"`
	ParentID string         `json:"parent_id,omitempty"`
	Name     string         `json:"name"`
	Start    time.Time      `json:"start"`
	Duration time.Duration  `json:"duration_ns"`
	Attrs    map[string]any `json:"attrs,omitempty"`
}

// Span is one in-flight timed operation. Create spans with
// Tracer.Start/StartAt, decorate them with SetAttr, and finish them with
// End, which freezes the record into the tracer's ring. All methods are
// nil-safe: a nil *Span (tracing disabled) ignores every call.
type Span struct {
	tr *Tracer

	mu    sync.Mutex
	rec   SpanRecord
	attrs map[string]any
	ended bool
}

// TraceID returns the span's trace identifier ("" for a nil span) — the
// correlation key access logs carry next to the request ID.
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.rec.TraceID
}

// SetAttr attaches a key/value attribute to the span. Calls after End are
// dropped.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return
	}
	if s.attrs == nil {
		s.attrs = make(map[string]any, 4)
	}
	s.attrs[key] = value
}

// End finishes the span and records it into the tracer's ring. Only the
// first End takes effect.
func (s *Span) End() { s.EndAt(time.Now()) }

// EndAt is End with an explicit end time — paired with StartAt it
// freezes fully synthesized spans whose boundaries were measured
// elsewhere (the WAL reports write/fsync/apply phase durations after
// the fact; the ingest handler reconstructs exact child spans from
// them).
func (s *Span) EndAt(end time.Time) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.rec.Duration = end.Sub(s.rec.Start)
	rec := s.rec
	rec.Attrs = s.attrs
	s.mu.Unlock()
	s.tr.record(rec)
}

// TraceParentHeader is the HTTP header carrying the cross-process trace
// context, in the W3C trace-context shape
// `00-<trace_id>-<span_id>-01`.
const TraceParentHeader = "Traceparent"

// TraceParent renders the span's context as a traceparent header value,
// or "" for a nil span (tracing off ⇒ nothing to propagate).
func (s *Span) TraceParent() string {
	if s == nil {
		return ""
	}
	return "00-" + s.rec.TraceID + "-" + s.rec.SpanID + "-01"
}

// maxIDHex caps a remote trace or span ID at W3C's trace-ID width, so a
// header cannot park arbitrarily long IDs in the span ring.
const maxIDHex = 32

// ParseTraceParent splits a traceparent header value into its trace and
// span IDs. It accepts lowercase hex IDs of 1 to maxIDHex chars (this
// stack mints 16-char IDs, W3C mints 32/16) and rejects malformed values:
// wrong field count, non-hex or overlong IDs, or an unknown version
// prefix.
func ParseTraceParent(v string) (traceID, spanID string, ok bool) {
	parts := strings.Split(strings.TrimSpace(v), "-")
	if len(parts) != 4 || parts[0] != "00" {
		return "", "", false
	}
	if !isID(parts[1]) || !isID(parts[2]) {
		return "", "", false
	}
	return parts[1], parts[2], true
}

// isID reports whether s is 1 to maxIDHex lowercase hex chars.
func isID(s string) bool {
	if s == "" || len(s) > maxIDHex {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// ContextWithRemoteParent returns ctx carrying a synthetic, already-ended
// span with the given IDs, so spans started under it parent correctly
// beneath a caller in another process. The synthetic span records
// nothing locally — it exists only to seed TraceID/ParentID.
func ContextWithRemoteParent(ctx context.Context, traceID, spanID string) context.Context {
	return ContextWithSpan(ctx, &Span{
		rec:   SpanRecord{TraceID: traceID, SpanID: spanID},
		ended: true,
	})
}

type spanKey struct{}

// ContextWithSpan returns ctx carrying span as the current parent.
func ContextWithSpan(ctx context.Context, span *Span) context.Context {
	return context.WithValue(ctx, spanKey{}, span)
}

// SpanFromContext returns the current span, or nil.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// Tracer hands out spans and keeps the most recent finished ones in a
// bounded ring. A nil *Tracer is the documented "tracing off" state:
// Start returns a nil span and the context unchanged.
type Tracer struct {
	mu      sync.Mutex
	cap     int
	buf     []SpanRecord // ring storage, valid in [0, len)
	next    int          // ring write cursor once len(buf) == cap
	total   int64        // spans ever recorded
	dropped int64        // spans overwritten after the ring filled
}

// NewTracer returns a tracer whose ring holds up to capacity finished
// spans (capacity <= 0 returns nil, disabling tracing).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		return nil
	}
	return &Tracer{cap: capacity}
}

// Start begins a span named name, parented to the current span of ctx if
// any, and returns a context carrying the new span.
func (t *Tracer) Start(ctx context.Context, name string) (context.Context, *Span) {
	return t.StartAt(ctx, name, time.Now())
}

// StartAt is Start with an explicit start time — the hook for
// synthesized spans whose duration is known only after the fact (per-pass
// spans reconstructed from a mining run's Progress reports carry the
// pass's measured wall time).
func (t *Tracer) StartAt(ctx context.Context, name string, start time.Time) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	s := &Span{tr: t, rec: SpanRecord{Name: name, Start: start, SpanID: randHex(8)}}
	if parent := SpanFromContext(ctx); parent != nil {
		s.rec.TraceID = parent.rec.TraceID
		s.rec.ParentID = parent.rec.SpanID
	} else {
		s.rec.TraceID = randHex(8)
	}
	return ContextWithSpan(ctx, s), s
}

// record appends one finished span to the ring.
func (t *Tracer) record(rec SpanRecord) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.total++
	if len(t.buf) < t.cap {
		t.buf = append(t.buf, rec)
		return
	}
	t.buf[t.next] = rec
	t.next = (t.next + 1) % t.cap
	t.dropped++
}

// Stats reports the ring shape: capacity, held spans, spans ever
// recorded, and spans evicted by the ring.
func (t *Tracer) Stats() (capacity, held int, total, dropped int64) {
	if t == nil {
		return 0, 0, 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cap, len(t.buf), t.total, t.dropped
}

// Snapshot returns the held spans oldest-first.
func (t *Tracer) Snapshot() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanRecord, 0, len(t.buf))
	out = append(out, t.buf[t.next:]...)
	out = append(out, t.buf[:t.next]...)
	return out
}

// TraceNode is one span with its children — the tree shape GET
// /v1/traces serves.
type TraceNode struct {
	SpanRecord
	Children []*TraceNode `json:"children,omitempty"`
}

// BuildTraces assembles a span set into trees and returns the roots
// whose duration is at least minRoot — the slow-query view when
// minRoot > 0. The spans can come from anywhere: a ring's Snapshot, or
// the coordinator's ring stitched together with spans fetched from
// remote workers. A span whose parent is missing becomes a root itself,
// so trees degrade gracefully rather than disappearing. Roots are
// ordered by start time.
func BuildTraces(spans []SpanRecord, minRoot time.Duration) []*TraceNode {
	nodes := make(map[string]*TraceNode, len(spans))
	for i := range spans {
		nodes[spans[i].SpanID] = &TraceNode{SpanRecord: spans[i]}
	}
	var roots []*TraceNode
	for _, n := range nodes {
		if parent, ok := nodes[n.ParentID]; ok && n.ParentID != "" {
			parent.Children = append(parent.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	var keep []*TraceNode
	for _, r := range roots {
		if r.Duration >= minRoot {
			keep = append(keep, r)
		}
	}
	sortNodes(keep)
	for _, n := range nodes {
		sortNodes(n.Children)
	}
	return keep
}

func sortNodes(ns []*TraceNode) {
	sort.Slice(ns, func(i, j int) bool {
		if !ns[i].Start.Equal(ns[j].Start) {
			return ns[i].Start.Before(ns[j].Start)
		}
		return ns[i].SpanID < ns[j].SpanID
	})
}
