package server

// The serving-side observability wiring: one obsState per Server holds
// the tracer (span ring behind GET /v1/traces), the Prometheus metrics
// registry (the server's only metrics store, exposed at GET /metrics and
// GET /v1/metrics), and the structured access logger. The middleware in
// this file is the single entry point every request passes through — it
// mints the request ID, opens the root span, and emits the access-log
// line — so handlers only add the child spans of their own phases
// (admission, cache probe, ubsup scan, per-pass counting).

import (
	"context"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ossm-mining/ossm/internal/obs"
	"github.com/ossm-mining/ossm/internal/shard/remote"
)

// obsState bundles the server's observability instruments.
type obsState struct {
	tracer  *obs.Tracer
	metrics *obs.Registry
	logger  *slog.Logger

	httpRequests *obs.CounterVec   // ossm_http_requests_total{route,status}
	httpLatency  *obs.HistogramVec // ossm_http_request_duration_seconds{route}
	boundQueries *obs.Counter      // ossm_bound_queries_total
	mineRuns     *obs.CounterVec   // ossm_mine_runs_total{miner}
	minePasses   *obs.CounterVec   // ossm_mine_passes_total{miner}
	mineCand     *obs.CounterVec   // ossm_mine_candidates_total{stage}
	mineKernel   *obs.CounterVec   // ossm_mine_kernel_total{outcome}
	mineWaiting  atomic.Int64      // requests parked on the admission semaphore

	ingests    *obs.CounterVec // ossm_ingest_total{outcome}
	snapshots  *obs.CounterVec // ossm_snapshot_total{outcome}
	compaction *obs.Histogram  // ossm_compaction_seconds

	shardRequests *obs.CounterVec // ossm_shard_requests_total{shard,outcome}

	// Remote-transport families, fed by remote.Hooks (RemoteHooks).
	shardRPC     *obs.CounterVec // ossm_shard_rpc_total{shard,method,outcome}
	shardRetries *obs.CounterVec // ossm_shard_rpc_retries_total{shard,method}
	shardBreaker *obs.GaugeVec   // ossm_shard_breaker_state{shard}
}

// initObs builds the server's instruments and registers every scrape
// family: HTTP latency and counts by route/status, bound-cache
// effectiveness, admission-queue depth, per-miner run/pass counts,
// cumulative candidate accounting, and the Go runtime block.
func (s *Server) initObs() {
	o := &s.obs
	o.tracer = obs.NewTracer(s.cfg.TraceBuffer)
	o.logger = s.cfg.Logger
	if o.logger == nil {
		o.logger = obs.NopLogger()
	}
	r := obs.NewRegistry()
	o.metrics = r

	o.httpRequests = r.CounterVec("ossm_http_requests_total",
		"HTTP requests served, by route and status code.", "route", "status")
	o.httpLatency = r.HistogramVec("ossm_http_request_duration_seconds",
		"HTTP request latency in seconds, by route.", obs.DefBuckets, "route")
	o.mineRuns = r.CounterVec("ossm_mine_runs_total",
		"Completed mining runs, by miner.", "miner")
	o.minePasses = r.CounterVec("ossm_mine_passes_total",
		"Counting passes executed by completed mining runs, by miner.", "miner")
	o.mineCand = r.CounterVec("ossm_mine_candidates_total",
		"Cumulative candidate accounting of completed mining runs, by stage (generated, pruned, counted).", "stage")
	o.mineKernel = r.CounterVec("ossm_mine_kernel_total",
		"Bound-kernel decisions of completed mining runs, by outcome (early_exit, abandoned, full).", "outcome")
	o.ingests = r.CounterVec("ossm_ingest_total",
		"Durable ingest requests, by outcome (ok, invalid, error).", "outcome")
	o.snapshots = r.CounterVec("ossm_snapshot_total",
		"WAL snapshot attempts, by outcome (ok, error).", "outcome")
	o.compaction = r.Histogram("ossm_compaction_seconds",
		"Wall-clock seconds per ingest compaction (re-segmentation before promotion).", obs.DefBuckets)
	r.GaugeFunc("ossm_wal_bytes", "Bytes in the active WAL file awaiting the next snapshot.",
		func() float64 {
			if ing := s.ingest.Load(); ing != nil {
				return float64(ing.store.WALBytes())
			}
			return 0
		})
	r.GaugeFunc("ossm_ingest_seq", "Sequence number of the last durably acknowledged ingest record.",
		func() float64 {
			if ing := s.ingest.Load(); ing != nil {
				return float64(ing.store.Seq())
			}
			return 0
		})
	r.GaugeFunc("ossm_wal_replay_lag_records", "Records in the active WAL beyond the last snapshot — the replay debt the next crash recovery would pay.",
		func() float64 {
			if ing := s.ingest.Load(); ing != nil {
				n, _ := ing.store.SinceSnapshot()
				return float64(n)
			}
			return 0
		})
	r.GaugeFunc("ossm_wal_last_snapshot_age_seconds", "Seconds since the last successful WAL snapshot committed (0 before the first).",
		func() float64 {
			if ing := s.ingest.Load(); ing != nil {
				if _, at := ing.store.SinceSnapshot(); !at.IsZero() {
					return time.Since(at).Seconds()
				}
			}
			return 0
		})
	r.GaugeFunc("ossm_compaction_backlog_records", "Ingested records acknowledged but not yet promoted into the serving index.",
		func() float64 {
			if ing := s.ingest.Load(); ing != nil {
				return float64(ing.Backlog())
			}
			return 0
		})
	o.shardRequests = r.CounterVec("ossm_shard_requests_total",
		"Scatter-gather shard calls, by shard id and outcome (ok, error, overloaded).", "shard", "outcome")
	o.shardRPC = r.CounterVec("ossm_shard_rpc_total",
		"Remote shard RPCs, by shard id, method (info, bounds, frequent, supports) and outcome (ok, error, overloaded, timeout, breaker_open).", "shard", "method", "outcome")
	o.shardRetries = r.CounterVec("ossm_shard_rpc_retries_total",
		"Remote shard RPC retry attempts, by shard id and method.", "shard", "method")
	o.shardBreaker = r.GaugeVec("ossm_shard_breaker_state",
		"Remote shard circuit-breaker state, by shard id (0 closed, 1 half-open, 2 open).", "shard")

	o.boundQueries = r.Counter("ossm_bound_queries_total", "Itemset bound queries answered.")
	r.GaugeFunc("ossm_mine_inflight", "Mining runs currently holding an admission slot.",
		func() float64 { return float64(len(s.mineSem)) })
	r.GaugeFunc("ossm_mine_waiting", "Requests waiting for a mining admission slot.",
		func() float64 { return float64(o.mineWaiting.Load()) })
	r.GaugeFunc("ossm_mine_slots", "Configured admission-slot capacity for mining runs.",
		func() float64 { return float64(s.cfg.MineConcurrency) })
	r.GaugeFunc("ossm_indexes", "Entries in the serving registry.",
		func() float64 { return float64(len(s.reg.Info())) })
	r.GaugeFunc("ossm_uptime_seconds", "Seconds since the server started.",
		func() float64 { return time.Since(s.start).Seconds() })
	obs.RegisterRuntimeMetrics(r)
}

// RemoteHooks returns the observability hooks a remote shard client
// should carry so its RPC outcomes, retries and breaker transitions
// land in this server's scrape families.
func (s *Server) RemoteHooks() remote.Hooks {
	return remote.Hooks{
		OnRPC: func(shardID int, method, outcome string) {
			s.obs.shardRPC.With(strconv.Itoa(shardID), method, outcome).Inc()
		},
		OnRetry: func(shardID int, method string) {
			s.obs.shardRetries.With(strconv.Itoa(shardID), method).Inc()
		},
		OnBreaker: func(shardID int, state remote.BreakerState) {
			s.obs.shardBreaker.With(strconv.Itoa(shardID)).Set(float64(state))
		},
	}
}

// statusWriter captures the response status and body size for the access
// log and the latency metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// Unwrap exposes the underlying writer to http.ResponseController.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// routeLabel maps a request path onto the bounded label set the metrics
// use — unknown paths collapse into "other" so scrape cardinality cannot
// be driven by clients.
func routeLabel(path string) string {
	switch path {
	case "/healthz", "/v1/indexes", "/v1/ubsup", "/v1/ingest", "/v1/mine", "/v1/metrics", "/metrics", "/v1/traces", "/v1/fleetz":
		return path
	}
	if strings.HasPrefix(path, "/debug/pprof/") {
		return "/debug/pprof"
	}
	return "other"
}

// middleware is the per-request observability envelope: body capping,
// the request ID (minted or taken from the client's X-Request-Id and
// echoed back), the root span, the route/status metrics and the
// structured access-log line.
func (s *Server) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		route := routeLabel(r.URL.Path)

		reqID := r.Header.Get("X-Request-Id")
		if reqID == "" {
			reqID = obs.NewRequestID()
		}
		w.Header().Set("X-Request-Id", reqID)

		ctx := obs.WithRequestID(r.Context(), reqID)
		ctx, span := s.obs.tracer.Start(ctx, r.Method+" "+route)
		span.SetAttr("request_id", reqID)
		if s.cfg.RequestTimeout > 0 {
			tctx, cancel := context.WithTimeout(ctx, s.cfg.RequestTimeout)
			defer cancel()
			ctx = tctx
		}
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		}
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r.WithContext(ctx))

		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		elapsed := time.Since(start)
		span.SetAttr("status", status)
		span.End()
		s.obs.httpRequests.With(route, strconv.Itoa(status)).Inc()
		// The exemplar ties this bucket increment to the request's trace,
		// so a latency spike on the scrape links straight to an assembled
		// trace in /v1/traces.
		s.obs.httpLatency.With(route).ObserveExemplar(elapsed.Seconds(), span.TraceID())
		s.obs.logger.LogAttrs(ctx, slog.LevelInfo, "http_request",
			slog.String("request_id", reqID),
			slog.String("trace_id", span.TraceID()),
			slog.String("method", r.Method),
			slog.String("route", route),
			slog.String("path", r.URL.Path),
			slog.Int("status", status),
			slog.Int64("bytes", sw.bytes),
			slog.Duration("duration", elapsed),
		)
	})
}

// mountPprof adds the net/http/pprof handlers under /debug/pprof/ —
// opt-in via Config.EnablePprof, since profiles expose internals no
// public endpoint should.
func mountPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// TracesResponse is the GET /v1/traces report: the span trees currently
// held in the ring (stitched together with remote worker spans on a
// remote-fleet coordinator), oldest first, plus the ring's shape and the
// per-trace shard attribution.
type TracesResponse struct {
	Count    int              `json:"count"`
	Capacity int              `json:"capacity"`
	Spans    int              `json:"spans"`
	Dropped  int64            `json:"dropped"`
	Traces   []*obs.TraceNode `json:"traces"`
	// RemoteSpans counts worker spans fetched and merged into the trees;
	// RemoteErrors counts workers whose span fetch failed (their spans
	// are simply absent — assembly is best-effort).
	RemoteSpans  int `json:"remote_spans,omitempty"`
	RemoteErrors int `json:"remote_errors,omitempty"`
	// Attribution splits each traced scatter's wall clock per shard into
	// worker serve time vs network+queue time, from the RPC spans' attrs.
	Attribution []TraceAttribution `json:"attribution,omitempty"`
}

// TraceAttribution is one trace's per-shard latency split.
type TraceAttribution struct {
	TraceID string       `json:"trace_id"`
	Shards  []ShardSplit `json:"shards"`
}

// ShardSplit aggregates one shard's RPCs within a trace: serve is the
// wall clock the worker reported spending, net is the remainder of the
// RPC's wall clock — network transfer plus queueing on either side.
type ShardSplit struct {
	Shard   int   `json:"shard"`
	RPCs    int   `json:"rpcs"`
	ServeNs int64 `json:"serve_ns"`
	NetNs   int64 `json:"net_ns"`
}

// handleTraces serves the trace ring as JSON span trees. ?min_ms=N keeps
// only traces whose root lasted at least N milliseconds — the slow-query
// view. On a remote-fleet coordinator it also fetches every worker's
// span ring and stitches the remote spans into the same trees (their
// trace and parent IDs were propagated on the RPCs); ?remote=0 skips
// the fetch and serves the local ring alone.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	var minRoot time.Duration
	if q := r.URL.Query().Get("min_ms"); q != "" {
		ms, err := strconv.ParseFloat(q, 64)
		if err != nil || ms < 0 {
			s.writeErr(w, http.StatusBadRequest, "bad min_ms %q", q)
			return
		}
		minRoot = time.Duration(ms * float64(time.Millisecond))
	}
	spans := s.obs.tracer.Snapshot()
	var remoteSpans, remoteErrs int
	if r.URL.Query().Get("remote") != "0" {
		fetched, errs := s.fetchRemoteSpans(r.Context())
		remoteSpans, remoteErrs = len(fetched), errs
		spans = append(spans, fetched...)
	}
	traces := obs.BuildTraces(spans, minRoot)
	capn, held, _, dropped := s.obs.tracer.Stats()
	s.writeJSON(w, http.StatusOK, TracesResponse{
		Count:        len(traces),
		Capacity:     capn,
		Spans:        held,
		Dropped:      dropped,
		Traces:       traces,
		RemoteSpans:  remoteSpans,
		RemoteErrors: remoteErrs,
		Attribution:  buildAttribution(spans),
	})
}

// spanFetcher is the slice of remote.Client the trace assembler needs;
// an interface so the server package stays decoupled from the transport
// construction.
type spanFetcher interface {
	ID() int
	FetchSpans(ctx context.Context) ([]obs.SpanRecord, error)
}

// fetchRemoteSpans gathers span rings from every remote transport
// currently installed in a fleet, deduplicated by span ID (one worker
// process serving shards of several indexes is fetched once per client
// but merged once). Fetches run concurrently under a short deadline;
// a worker that cannot answer contributes nothing but an error count.
func (s *Server) fetchRemoteSpans(ctx context.Context) ([]obs.SpanRecord, int) {
	var fetchers []spanFetcher
	s.fleetsMu.Lock()
	for _, fe := range s.fleets {
		fe.mu.Lock()
		for _, t := range fe.transports {
			if f, ok := t.(spanFetcher); ok {
				fetchers = append(fetchers, f)
			}
		}
		fe.mu.Unlock()
	}
	s.fleetsMu.Unlock()
	if len(fetchers) == 0 {
		return nil, 0
	}
	fctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	results := make([][]obs.SpanRecord, len(fetchers))
	errs := make([]error, len(fetchers))
	var wg sync.WaitGroup
	for i, f := range fetchers {
		wg.Add(1)
		go func(i int, f spanFetcher) {
			defer wg.Done()
			results[i], errs[i] = f.FetchSpans(fctx)
		}(i, f)
	}
	wg.Wait()
	seen := make(map[string]bool)
	var out []obs.SpanRecord
	nErrs := 0
	for i := range results {
		if errs[i] != nil {
			nErrs++
			continue
		}
		for _, rec := range results[i] {
			if rec.SpanID == "" || seen[rec.SpanID] {
				continue
			}
			seen[rec.SpanID] = true
			out = append(out, rec)
		}
	}
	return out, nErrs
}

// buildAttribution folds the RPC spans in a merged span set into
// per-trace, per-shard serve/net splits.
func buildAttribution(spans []obs.SpanRecord) []TraceAttribution {
	type key struct {
		trace string
		shard int
	}
	splits := make(map[key]*ShardSplit)
	for i := range spans {
		rec := &spans[i]
		if !strings.HasPrefix(rec.Name, "rpc-") {
			continue
		}
		shard, ok := attrInt(rec.Attrs, "shard")
		if !ok {
			continue
		}
		k := key{rec.TraceID, int(shard)}
		sp := splits[k]
		if sp == nil {
			sp = &ShardSplit{Shard: int(shard)}
			splits[k] = sp
		}
		sp.RPCs++
		if v, ok := attrInt(rec.Attrs, "serve_ns"); ok {
			sp.ServeNs += v
		}
		if v, ok := attrInt(rec.Attrs, "net_ns"); ok {
			sp.NetNs += v
		}
	}
	byTrace := make(map[string][]ShardSplit)
	for k, sp := range splits {
		byTrace[k.trace] = append(byTrace[k.trace], *sp)
	}
	out := make([]TraceAttribution, 0, len(byTrace))
	for trace, shards := range byTrace {
		sort.Slice(shards, func(i, j int) bool { return shards[i].Shard < shards[j].Shard })
		out = append(out, TraceAttribution{TraceID: trace, Shards: shards})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TraceID < out[j].TraceID })
	return out
}

// attrInt reads a numeric span attribute, tolerating the int/int64
// in-process representations and the float64 a JSON round-trip yields.
func attrInt(attrs map[string]any, name string) (int64, bool) {
	switch v := attrs[name].(type) {
	case int:
		return int64(v), true
	case int64:
		return v, true
	case float64:
		return int64(v), true
	}
	return 0, false
}

// handleMetrics serves the Prometheus text exposition behind both GET
// /metrics and GET /v1/metrics. ?exemplars=1 appends OpenMetrics exemplar
// suffixes, linking latency buckets to trace IDs in the ring; the default
// output stays byte-compatible with plain Prometheus parsers.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.obs.metrics.WriteExposition(w, r.URL.Query().Get("exemplars") == "1")
}
