package remote

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/ossm-mining/ossm/internal/obs"
	"github.com/ossm-mining/ossm/internal/shard"
)

// maxWireBody caps request and response bodies on both sides of the
// shard wire: 4096-itemset batches of short itemsets fit with room to
// spare, while a corrupt length or a hostile peer cannot balloon memory.
const maxWireBody = 16 << 20

// Worker serves shard.Transports over HTTP — the shard side of the
// remote fleet. One worker process typically holds one segment-range
// shard per index it has loaded (ossm-serve -shard-role=worker); the
// handler routes on the index name carried in every request.
//
// Endpoints (all JSON):
//
//	GET  /healthz
//	GET  /shard/v1/info?index=name
//	POST /shard/v1/bounds     {index, itemsets} -> {bounds}
//	POST /shard/v1/frequent   {index, miner, local_min, max_len} -> {itemsets}
//	POST /shard/v1/supports   {index, itemsets} -> {supports}
//
// Admission, draining and mining capability are whatever the wrapped
// Transport reports — a Worker adds no policy of its own, so a
// fault-injecting decorator slipped underneath makes a real HTTP shard
// misbehave for chaos tests.
type Worker struct {
	mu      sync.RWMutex
	entries map[string]workerEntry

	// Observability, wired once at startup via SetObs before the handler
	// serves traffic. Both tolerate their nil zero values: a nil tracer
	// records nothing and /shard/v1/traces answers empty; a nil logger
	// suppresses access-log lines.
	logger *slog.Logger
	tracer *obs.Tracer
}

type workerEntry struct {
	t             shard.Transport
	totalSegments int
	numItems      int
}

// NewWorker returns a worker with no entries.
func NewWorker() *Worker {
	return &Worker{entries: make(map[string]workerEntry)}
}

// SetObs wires the worker's access logger and span ring. Call it at
// startup, before Handler() serves traffic.
func (w *Worker) SetObs(logger *slog.Logger, tracer *obs.Tracer) {
	w.logger = logger
	w.tracer = tracer
}

// Add registers the transport serving the named index's shard.
// totalSegments is the whole index's segment count (echoed in info so
// coordinators can validate fleet tiling); numItems is its item domain,
// which every itemset of a bounds request must fall inside.
func (w *Worker) Add(name string, t shard.Transport, totalSegments, numItems int) error {
	if name == "" || t == nil {
		return fmt.Errorf("remote: Worker.Add requires a name and a transport")
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, dup := w.entries[name]; dup {
		return fmt.Errorf("remote: shard entry %q already registered", name)
	}
	w.entries[name] = workerEntry{t: t, totalSegments: totalSegments, numItems: numItems}
	return nil
}

func (w *Worker) lookup(name string) (workerEntry, bool) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	e, ok := w.entries[name]
	return e, ok
}

// Handler returns the worker's routing table, wrapped in the
// observability envelope.
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(rw http.ResponseWriter, r *http.Request) {
		writeWireJSON(rw, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /shard/v1/info", w.handleInfo)
	mux.HandleFunc("GET /shard/v1/traces", w.handleTraces)
	mux.HandleFunc("POST /shard/v1/bounds", w.handleBounds)
	mux.HandleFunc("POST /shard/v1/frequent", w.handleFrequent)
	mux.HandleFunc("POST /shard/v1/supports", w.handleSupports)
	return w.instrument(mux)
}

// instrument is the worker-side request envelope: it adopts the
// coordinator's request id (minting one only for direct callers), joins
// the coordinator's trace via the traceparent header so the serve span
// parents under the caller's RPC span, reports the measured serve time
// in the response headers, and emits one access-log line whose
// request_id matches the coordinator's — the join key between the two
// processes' logs.
func (w *Worker) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		start := time.Now()
		reqID := r.Header.Get(requestIDHeader)
		if reqID == "" {
			reqID = obs.NewRequestID()
		}
		rw.Header().Set(requestIDHeader, reqID)

		ctx := obs.WithRequestID(r.Context(), reqID)
		if traceID, spanID, ok := obs.ParseTraceParent(r.Header.Get(obs.TraceParentHeader)); ok {
			ctx = obs.ContextWithRemoteParent(ctx, traceID, spanID)
		}
		ctx, span := w.tracer.Start(ctx, "serve "+r.URL.Path)
		span.SetAttr("request_id", reqID)

		sw := &serveWriter{ResponseWriter: rw, start: start}
		next.ServeHTTP(sw, r.WithContext(ctx))

		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		elapsed := time.Since(start)
		span.SetAttr("status", status)
		span.End()
		if w.logger != nil {
			w.logger.LogAttrs(ctx, slog.LevelInfo, "shard_rpc",
				slog.String("request_id", reqID),
				slog.String("trace_id", span.TraceID()),
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.Int("status", status),
				slog.Duration("duration", elapsed),
			)
		}
	})
}

// serveWriter stamps the serve-time header the moment the response
// starts — everything after that belongs to the network — and records
// the status for the access log.
type serveWriter struct {
	http.ResponseWriter
	start  time.Time
	status int
}

func (w *serveWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
		w.Header().Set(serveNsHeader, strconv.FormatInt(time.Since(w.start).Nanoseconds(), 10))
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *serveWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.WriteHeader(http.StatusOK)
		return w.ResponseWriter.Write(p)
	}
	return w.ResponseWriter.Write(p)
}

// Unwrap exposes the underlying writer to http.ResponseController.
func (w *serveWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// handleTraces serves the worker's span ring, oldest first — the raw
// material the coordinator's /v1/traces stitches into one tree.
func (w *Worker) handleTraces(rw http.ResponseWriter, r *http.Request) {
	spans := w.tracer.Snapshot()
	if spans == nil {
		spans = []obs.SpanRecord{}
	}
	writeWireJSON(rw, http.StatusOK, SpansResponse{Spans: spans})
}

func (w *Worker) handleInfo(rw http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("index")
	e, ok := w.lookup(name)
	if !ok {
		writeWireErr(rw, http.StatusNotFound, "unknown shard entry %q", name)
		return
	}
	writeWireJSON(rw, http.StatusOK, InfoResponse{
		Index:         name,
		Info:          e.t.Info(),
		CanMine:       e.t.CanMine(),
		NumTx:         e.t.NumTx(),
		TotalSegments: e.totalSegments,
	})
}

func (w *Worker) handleBounds(rw http.ResponseWriter, r *http.Request) {
	var req BoundsRequest
	if !decodeWire(rw, r, &req) {
		return
	}
	e, ok := w.lookup(req.Index)
	if !ok {
		writeWireErr(rw, http.StatusNotFound, "unknown shard entry %q", req.Index)
		return
	}
	// The same domain checks the coordinator applies: the bound kernel
	// is undefined on the empty itemset and indexes by item.
	for i, set := range req.Sets {
		if len(set) == 0 {
			writeWireErr(rw, http.StatusBadRequest, "itemset %d: the empty itemset has no OSSM bound", i)
			return
		}
		for _, it := range set {
			if int(it) >= e.numItems {
				writeWireErr(rw, http.StatusBadRequest, "itemset %d: item %d outside the index domain of %d items", i, it, e.numItems)
				return
			}
		}
	}
	out := make([]int64, len(req.Sets))
	kctx, kspan := w.tracer.Start(r.Context(), "kernel-bounds")
	kspan.SetAttr("index", req.Index)
	kspan.SetAttr("sets", len(req.Sets))
	err := e.t.PartialBounds(kctx, req.Sets, out)
	kspan.End()
	if err != nil {
		writeShardErr(rw, r.Context(), err)
		return
	}
	writeWireJSON(rw, http.StatusOK, BoundsResponse{Bounds: out})
}

func (w *Worker) handleFrequent(rw http.ResponseWriter, r *http.Request) {
	var req FrequentRequest
	if !decodeWire(rw, r, &req) {
		return
	}
	e, ok := w.lookup(req.Index)
	if !ok {
		writeWireErr(rw, http.StatusNotFound, "unknown shard entry %q", req.Index)
		return
	}
	kctx, kspan := w.tracer.Start(r.Context(), "kernel-frequent")
	kspan.SetAttr("index", req.Index)
	kspan.SetAttr("miner", req.Miner)
	sets, err := e.t.LocalFrequent(kctx, req.Miner, req.LocalMin, req.MaxLen)
	kspan.End()
	if err != nil {
		writeShardErr(rw, r.Context(), err)
		return
	}
	writeWireJSON(rw, http.StatusOK, FrequentResponse{Sets: sets})
}

func (w *Worker) handleSupports(rw http.ResponseWriter, r *http.Request) {
	var req SupportsRequest
	if !decodeWire(rw, r, &req) {
		return
	}
	e, ok := w.lookup(req.Index)
	if !ok {
		writeWireErr(rw, http.StatusNotFound, "unknown shard entry %q", req.Index)
		return
	}
	out := make([]int64, len(req.Sets))
	kctx, kspan := w.tracer.Start(r.Context(), "kernel-supports")
	kspan.SetAttr("index", req.Index)
	kspan.SetAttr("sets", len(req.Sets))
	err := e.t.PartialSupports(kctx, req.Sets, out)
	kspan.End()
	if err != nil {
		writeShardErr(rw, r.Context(), err)
		return
	}
	writeWireJSON(rw, http.StatusOK, SupportsResponse{Supports: out})
}

// decodeWire strictly decodes one JSON body, reporting (and answering)
// failure itself.
func decodeWire(rw http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(rw, r.Body, maxWireBody)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeWireErr(rw, http.StatusBadRequest, "decoding request: %v", err)
		return false
	}
	return true
}

// writeShardErr maps a transport failure onto the wire status the
// client's retry policy keys on: 503 for admission rejection (retryable
// with backoff), 504 when the caller's deadline expired mid-call, 500
// for everything else (retryable — the call is idempotent).
func writeShardErr(rw http.ResponseWriter, ctx context.Context, err error) {
	switch {
	case errors.Is(err, shard.ErrOverloaded):
		writeWireErr(rw, http.StatusServiceUnavailable, "%v", err)
	case ctx.Err() != nil || errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		writeWireErr(rw, http.StatusGatewayTimeout, "%v", err)
	default:
		writeWireErr(rw, http.StatusInternalServerError, "%v", err)
	}
}

func writeWireJSON(rw http.ResponseWriter, code int, v any) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(code)
	enc := json.NewEncoder(rw)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeWireErr(rw http.ResponseWriter, code int, format string, args ...any) {
	writeWireJSON(rw, code, errorBody{Error: fmt.Sprintf(format, args...)})
}
