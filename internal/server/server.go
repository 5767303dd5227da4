// Package server is the serving layer over the OSSM library: an
// HTTP/JSON service that loads persisted indexes into a registry and
// answers itemset bound queries (the workload of Liberty et al.'s
// frequency-sketch serving setting) and full mining runs from them.
//
// The hot path is POST /v1/ubsup: canonicalize the itemset, consult the
// LRU bound cache (keyed on index name, index version and canonical
// itemset), and fall back to the index's segment min-scan on a miss.
// Batch requests probe the cache per itemset and then answer every miss
// together, one UpperBoundBatch call per chunk fanned over a pool.
// Swapping an index — e.g. with a streaming Appender snapshot — bumps its
// registry version, so every cached bound for the old index becomes
// unreachable at once; stale answers are structurally impossible.
//
// Every request runs under a context deadline; mining runs additionally
// pass through a bounded admission semaphore, and batch bound queries fan
// out over an internal/conc pool.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	ossm "github.com/ossm-mining/ossm"
	"github.com/ossm-mining/ossm/internal/conc"
	"github.com/ossm-mining/ossm/internal/obs"
	"github.com/ossm-mining/ossm/internal/shard"
)

// Config tunes a Server. The zero value serves with a 4096-entry bound
// cache, a 30-second request deadline, serial batch evaluation and at
// most two concurrent mining runs.
type Config struct {
	// CacheSize is the bound-cache capacity in entries (0 ⇒ 4096;
	// negative disables caching).
	CacheSize int
	// RequestTimeout is the per-request context deadline (0 ⇒ 30s;
	// negative disables the deadline).
	RequestTimeout time.Duration
	// Workers fans batch ubsup evaluation over a goroutine pool
	// (conc.Resolve semantics: 0, 1 or negative = serial, larger values
	// capped at NumCPU).
	Workers int
	// MineConcurrency bounds simultaneous /v1/mine runs; excess requests
	// wait for a slot until their deadline (0 ⇒ 2).
	MineConcurrency int
	// MaxBatch caps the itemsets of one ubsup request (0 ⇒ 4096).
	MaxBatch int
	// MaxBodyBytes caps request bodies (0 ⇒ 1 MiB).
	MaxBodyBytes int64
	// Logger receives the structured JSON access log and service errors
	// (nil discards them).
	Logger *slog.Logger
	// TraceBuffer is the finished-span ring capacity behind GET
	// /v1/traces (0 ⇒ 2048; negative disables tracing).
	TraceBuffer int
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
	// Shards splits every registered index into this many segment-range
	// shards and serves /v1/ubsup and /v1/mine scatter-gather through an
	// in-process fleet (internal/shard). 0 or 1 keeps the single-index
	// paths. Answers are bit-identical either way — the OSSM bound is a
	// sum over segments and supports are sums over transactions, so
	// partition-and-merge is lossless.
	Shards int
}

func (c Config) withDefaults() Config {
	if c.CacheSize == 0 {
		c.CacheSize = 4096
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.MineConcurrency <= 0 {
		c.MineConcurrency = 2
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 4096
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.TraceBuffer == 0 {
		c.TraceBuffer = 2048
	}
	return c
}

// Server answers bound and mining queries over a registry of OSSM
// indexes. Create one with New, register entries, and expose Handler on
// an http.Server (or call Serve for the managed lifecycle).
type Server struct {
	cfg     Config
	reg     *Registry
	cache   *boundCache
	workers int           // resolved batch pool size
	mineSem chan struct{} // admission semaphore for mining runs
	start   time.Time

	// Sharded serving (Config.Shards > 1): one scatter-gather fleet per
	// registry entry, built lazily from the entry's current index and
	// swapped (with a graceful drain) whenever the entry changes.
	fleetsMu sync.Mutex
	fleets   map[string]*fleetEntry

	// Remote serving: when set (UseRemoteFleet), fleets scatter over HTTP
	// shard clients built by this factory instead of in-process shards.
	// topoGen versions the topology; ReloadFleets bumps it and the next
	// lookup per entry rebuilds its transports with a graceful swap.
	remoteFn func(name string) ([]shard.Transport, error)
	topoGen  atomic.Uint64

	// Durable ingest (EnableIngest): the WAL-backed write path plus its
	// background compactor. Nil until enabled; atomic so the metrics
	// closures and the handler race-freely observe the flip.
	ingest atomic.Pointer[Ingester]

	// obs holds the serving observability layer: tracer, Prometheus
	// metrics registry and access logger (see obs.go).
	obs obsState
}

// New returns a Server over an empty registry.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		reg:     NewRegistry(),
		workers: conc.Resolve(cfg.Workers),
		mineSem: make(chan struct{}, cfg.MineConcurrency),
		start:   time.Now(),
		fleets:  make(map[string]*fleetEntry),
	}
	s.initObs()
	s.cache = newBoundCache(cfg.CacheSize, s.obs.metrics)
	return s
}

// Registry exposes the server's entry registry (AddIndex, AddDataset,
// Swap) for loaders and streaming refreshers.
func (s *Server) Registry() *Registry { return s.reg }

// Tracer exposes the server's span ring, so remote shard clients built
// outside the package (wireTopology in ossm-serve) can record their RPC
// spans into the same ring /v1/traces assembles from.
func (s *Server) Tracer() *obs.Tracer { return s.obs.tracer }

// AddIndex registers a named index.
func (s *Server) AddIndex(name string, ix *ossm.Index) error { return s.reg.AddIndex(name, ix) }

// AddDataset attaches a mining dataset to the named entry.
func (s *Server) AddDataset(name string, d *ossm.Dataset) error { return s.reg.AddDataset(name, d) }

// Swap replaces a named index (bumping its version, which invalidates
// every bound cached against the old index).
func (s *Server) Swap(name string, ix *ossm.Index) error { return s.reg.Swap(name, ix) }

// sharded reports whether this server fans queries over a shard fleet.
func (s *Server) sharded() bool { return s.cfg.Shards > 1 || s.remoteFn != nil }

// UseRemoteFleet routes sharded serving over remote HTTP shard
// transports: fn builds the transport list (typically
// remote.Topology.Transports with the server's RemoteHooks) for a named
// entry whenever a fleet is (re)built. Call it once, before serving —
// it is not synchronized against in-flight queries.
func (s *Server) UseRemoteFleet(fn func(name string) ([]shard.Transport, error)) {
	s.remoteFn = fn
	s.topoGen.Add(1)
}

// ReloadFleets marks every remote fleet's topology stale; each entry's
// next query rebuilds its transports through the UseRemoteFleet factory
// and swaps them in with a graceful drain. The SIGHUP handler in
// ossm-serve calls this after re-reading the topology file.
func (s *Server) ReloadFleets() { s.topoGen.Add(1) }

// fleetEntry tracks the fleet serving one registry entry. The identity
// fields pin which (index, dataset) the current topology was built from,
// so any registry change — AddIndex, AddDataset, Swap, or a
// remove-and-re-add rollback — is detected on the next lookup and
// answered with a graceful fleet swap, never a stale shard.
type fleetEntry struct {
	mu      sync.Mutex
	fleet   *shard.Fleet
	ix      *ossm.Index
	hasData bool
	// transports mirrors the fleet's current transport list, so the trace
	// assembler and /v1/fleetz can reach remote clients (span fetch,
	// breaker state) without the Fleet exposing its internals.
	transports []shard.Transport
	// topoGen is the Server.topoGen value the current remote transports
	// were built under; a mismatch on lookup triggers a rebuild. Remote
	// fleets key on this rather than index identity, so a registry Swap
	// does not discard per-shard breaker and health state.
	topoGen uint64
}

// fleetFor returns the scatter-gather fleet serving the named entry,
// building it on first use and swapping its topology (draining the old
// one) whenever the entry's index or dataset changed since the last
// call. It returns (nil, nil) on unsharded servers. Fleets are built
// lazily on the query path rather than at registration, so loaders that
// register through Registry() directly are sharded all the same.
func (s *Server) fleetFor(name string, ix *ossm.Index, d *ossm.Dataset) (*shard.Fleet, error) {
	if !s.sharded() || ix == nil {
		return nil, nil
	}
	s.fleetsMu.Lock()
	fe, ok := s.fleets[name]
	if !ok {
		fe = &fleetEntry{}
		s.fleets[name] = fe
	}
	s.fleetsMu.Unlock()
	fe.mu.Lock()
	defer fe.mu.Unlock()
	if s.remoteFn != nil {
		gen := s.topoGen.Load()
		if fe.fleet != nil && fe.topoGen == gen {
			return fe.fleet, nil
		}
		transports, err := s.remoteFn(name)
		if err != nil {
			return nil, err
		}
		if err := s.installTransports(fe, transports); err != nil {
			return nil, err
		}
		fe.topoGen, fe.ix, fe.hasData = gen, ix, d != nil
		return fe.fleet, nil
	}
	if fe.fleet != nil && fe.ix == ix && fe.hasData == (d != nil) {
		return fe.fleet, nil
	}
	shards, err := shard.NewLocalShards(ix, d, s.cfg.Shards, 0)
	if err != nil {
		return nil, err
	}
	if err := s.installTransports(fe, shard.Transports(shards)); err != nil {
		return nil, err
	}
	fe.ix, fe.hasData = ix, d != nil
	return fe.fleet, nil
}

// installTransports builds the entry's fleet on first use or swaps the
// new topology in with a graceful drain of the old one.
func (s *Server) installTransports(fe *fleetEntry, transports []shard.Transport) error {
	if fe.fleet == nil {
		f, err := shard.NewFleet(shard.Config{
			Tracer:         s.obs.tracer,
			OnShardOutcome: s.noteShardOutcome,
		}, transports)
		if err != nil {
			return err
		}
		fe.fleet = f
		fe.transports = transports
		return nil
	}
	if err := fe.fleet.Swap(transports); err != nil {
		return err
	}
	fe.transports = transports
	return nil
}

// noteShardOutcome is the fleet callback feeding
// ossm_shard_requests_total.
func (s *Server) noteShardOutcome(shardID int, outcome string) {
	s.obs.shardRequests.With(strconv.Itoa(shardID), outcome).Inc()
}

// indexInfos augments the registry listing with each entry's fleet
// topology on sharded servers; unsharded servers return the registry
// rows untouched (the pre-sharding response shape).
func (s *Server) indexInfos() []IndexInfo {
	infos := s.reg.Info()
	if !s.sharded() {
		return infos
	}
	for i := range infos {
		ix, _, ok := s.reg.Lookup(infos[i].Name)
		if !ok {
			continue
		}
		d, _ := s.reg.Dataset(infos[i].Name)
		fleet, err := s.fleetFor(infos[i].Name, ix, d)
		if err != nil || fleet == nil {
			continue
		}
		st := fleet.Describe()
		infos[i].ShardCount = len(st.Shards)
		infos[i].FleetGeneration = st.Generation
		infos[i].Shards = st.Shards
	}
	return infos
}

// BoundResult is one answered bound.
type BoundResult struct {
	Itemset ossm.Itemset `json:"itemset"`
	Bound   int64        `json:"bound"`
	Cached  bool         `json:"cached"`
}

// errBadItemset marks client-side itemset validation failures.
var errBadItemset = errors.New("bad itemset")

// Bound answers one ubsup query against the named index, through the
// cache unless noCache is set. Items are canonicalized (sorted,
// de-duplicated) before lookup so permutations share a cache line.
func (s *Server) Bound(name string, items []ossm.Item, noCache bool) (BoundResult, error) {
	ix, version, ok := s.reg.Lookup(name)
	if !ok {
		return BoundResult{}, fmt.Errorf("unknown index %q", name)
	}
	d, _ := s.reg.Dataset(name)
	fleet, err := s.fleetFor(name, ix, d)
	if err != nil {
		return BoundResult{}, err
	}
	return s.bound(context.Background(), ix, fleet, name, version, items, noCache)
}

func (s *Server) bound(ctx context.Context, ix *ossm.Index, fleet *shard.Fleet, name string, version uint64, items []ossm.Item, noCache bool) (BoundResult, error) {
	set := ossm.NewItemset(items...)
	if len(set) == 0 {
		return BoundResult{}, fmt.Errorf("%w: the empty itemset has no OSSM bound", errBadItemset)
	}
	if max := set[len(set)-1]; int(max) >= ix.NumItems() {
		return BoundResult{}, fmt.Errorf("%w: item %d outside the index domain of %d items", errBadItemset, max, ix.NumItems())
	}
	var key []byte
	if !noCache {
		key = appendCacheKey(make([]byte, 0, 64), name, version, set)
		_, probe := s.obs.tracer.Start(ctx, "cache-probe")
		b, ok := s.cache.get(key)
		probe.SetAttr("hit", ok)
		probe.End()
		if ok {
			s.obs.boundQueries.Inc()
			return BoundResult{Itemset: set, Bound: b, Cached: true}, nil
		}
	}
	// The miss path is the paper's ubsup scan: a min over the itemset's
	// segment rows (eq. 1) — fanned over the shard fleet when sharded,
	// with the per-shard partial sums merged by addition.
	var b int64
	if fleet != nil {
		sctx, scan := s.obs.tracer.Start(ctx, "ubsup-scatter")
		out := make([]int64, 1)
		if err := fleet.Bounds(sctx, []ossm.Itemset{set}, out); err != nil {
			scan.SetAttr("outcome", "error")
			scan.End()
			return BoundResult{}, err
		}
		b = out[0]
		scan.SetAttr("bound", b)
		scan.End()
	} else {
		_, scan := s.obs.tracer.Start(ctx, "ubsup-scan")
		b = ix.UpperBound(set)
		scan.SetAttr("bound", b)
		scan.End()
	}
	if !noCache {
		s.cache.put(key, b)
	}
	s.obs.boundQueries.Inc()
	return BoundResult{Itemset: set, Bound: b}, nil
}

// boundBatch answers a whole ubsup batch. Single-itemset requests keep
// the scalar path (and its per-request spans); larger batches
// canonicalize and validate every itemset up front, probe the cache
// under one span, and evaluate all misses together with one
// UpperBoundBatch call per chunk.
func (s *Server) boundBatch(ctx context.Context, ix *ossm.Index, fleet *shard.Fleet, name string, version uint64, batch [][]ossm.Item, noCache bool) ([]BoundResult, error) {
	if len(batch) == 1 {
		res, err := s.bound(ctx, ix, fleet, name, version, batch[0], noCache)
		if err != nil {
			return nil, err
		}
		return []BoundResult{res}, nil
	}
	sets := make([]ossm.Itemset, len(batch))
	for i, items := range batch {
		set := ossm.NewItemset(items...)
		if len(set) == 0 {
			return nil, fmt.Errorf("%w: the empty itemset has no OSSM bound", errBadItemset)
		}
		if max := set[len(set)-1]; int(max) >= ix.NumItems() {
			return nil, fmt.Errorf("%w: item %d outside the index domain of %d items", errBadItemset, max, ix.NumItems())
		}
		sets[i] = set
	}
	results := make([]BoundResult, len(sets))
	var missIdx []int
	var keys [][]byte
	if !noCache {
		_, probe := s.obs.tracer.Start(ctx, "cache-probe")
		for i, set := range sets {
			key := appendCacheKey(make([]byte, 0, 64), name, version, set)
			if b, ok := s.cache.get(key); ok {
				results[i] = BoundResult{Itemset: set, Bound: b, Cached: true}
				continue
			}
			missIdx = append(missIdx, i)
			keys = append(keys, key)
		}
		probe.SetAttr("hits", len(sets)-len(missIdx))
		probe.End()
	} else {
		missIdx = make([]int, len(sets))
		for i := range missIdx {
			missIdx[i] = i
		}
	}
	if len(missIdx) > 0 {
		missSets := make([]ossm.Itemset, len(missIdx))
		for mi, i := range missIdx {
			missSets[mi] = sets[i]
		}
		bounds := make([]int64, len(missSets))
		if fleet != nil {
			// Scatter-gather: every shard answers the whole miss batch
			// over its own segment range with the batch kernel, and the
			// coordinator merges the partial sums by addition.
			sctx, scan := s.obs.tracer.Start(ctx, "ubsup-scatter")
			if err := fleet.Bounds(sctx, missSets, bounds); err != nil {
				scan.SetAttr("outcome", "error")
				scan.End()
				return nil, err
			}
			scan.SetAttr("sets", len(missSets))
			scan.End()
		} else {
			_, scan := s.obs.tracer.Start(ctx, "ubsup-batch")
			conc.ForChunks(s.workers, len(missSets), func(_, lo, hi int) {
				ix.UpperBoundBatch(missSets[lo:hi], bounds[lo:hi])
			})
			scan.SetAttr("sets", len(missSets))
			scan.End()
		}
		for mi, i := range missIdx {
			results[i] = BoundResult{Itemset: sets[i], Bound: bounds[mi]}
			if !noCache {
				s.cache.put(keys[mi], bounds[mi])
			}
		}
	}
	s.obs.boundQueries.Add(int64(len(results)))
	return results, nil
}

// Handler returns the service's HTTP routing table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/indexes", s.handleIndexes)
	mux.HandleFunc("POST /v1/ubsup", s.handleUbsup)
	mux.HandleFunc("POST /v1/ingest", s.handleIngest)
	mux.HandleFunc("POST /v1/mine", s.handleMine)
	mux.HandleFunc("GET /v1/traces", s.handleTraces)
	mux.HandleFunc("GET /v1/fleetz", s.handleFleetz)
	// Both metrics paths serve the same Prometheus exposition: /metrics
	// is the scrape convention, /v1/metrics the versioned API spelling.
	for _, pattern := range []string{"GET /v1/metrics", "GET /metrics"} {
		mux.HandleFunc(pattern, s.handleMetrics)
	}
	if s.cfg.EnablePprof {
		mountPprof(mux)
	}
	return s.middleware(mux)
}

func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

type errorResponse struct {
	Error string `json:"error"`
}

func (s *Server) writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	s.writeJSON(w, code, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// expired reports whether the request deadline has already passed, and
// answers 504 if so.
func (s *Server) expired(w http.ResponseWriter, r *http.Request) bool {
	if err := r.Context().Err(); err != nil {
		s.writeErr(w, http.StatusGatewayTimeout, "request deadline exceeded: %v", err)
		return true
	}
	return false
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

type indexesResponse struct {
	Indexes []IndexInfo `json:"indexes"`
}

func (s *Server) handleIndexes(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, indexesResponse{Indexes: s.indexInfos()})
}

// UbsupRequest is the body of POST /v1/ubsup: one itemset or a batch
// (exactly one of the two fields).
type UbsupRequest struct {
	Index    string        `json:"index"`
	Itemset  []ossm.Item   `json:"itemset,omitempty"`
	Itemsets [][]ossm.Item `json:"itemsets,omitempty"`
	NoCache  bool          `json:"no_cache,omitempty"`
}

// UbsupResponse answers a ubsup request. Bounds holds one result per
// requested itemset in request order; Bound duplicates the single result
// for single-itemset requests.
type UbsupResponse struct {
	Index     string        `json:"index"`
	Version   uint64        `json:"version"`
	NumTx     int           `json:"num_tx"`
	Bound     *int64        `json:"bound,omitempty"`
	Bounds    []BoundResult `json:"bounds"`
	CacheHits int           `json:"cache_hits"`
}

func (s *Server) handleUbsup(w http.ResponseWriter, r *http.Request) {
	if s.expired(w, r) {
		return
	}
	var req UbsupRequest
	if err := decodeJSON(r, &req); err != nil {
		s.writeErr(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	single := req.Itemset != nil
	if single == (len(req.Itemsets) > 0) {
		s.writeErr(w, http.StatusBadRequest, "exactly one of itemset and itemsets must be set")
		return
	}
	batch := req.Itemsets
	if single {
		batch = [][]ossm.Item{req.Itemset}
	}
	if len(batch) > s.cfg.MaxBatch {
		s.writeErr(w, http.StatusBadRequest, "batch of %d itemsets exceeds the limit of %d", len(batch), s.cfg.MaxBatch)
		return
	}
	ix, version, ok := s.reg.Lookup(req.Index)
	if !ok {
		s.writeErr(w, http.StatusNotFound, "unknown index %q", req.Index)
		return
	}
	d, _ := s.reg.Dataset(req.Index)
	fleet, err := s.fleetFor(req.Index, ix, d)
	if err != nil {
		s.writeErr(w, http.StatusInternalServerError, "building shard fleet: %v", err)
		return
	}
	results, err := s.boundBatch(r.Context(), ix, fleet, req.Index, version, batch, req.NoCache)
	if err != nil {
		switch {
		case errors.Is(err, errBadItemset):
			s.writeErr(w, http.StatusBadRequest, "%v", err)
		case errors.Is(err, shard.ErrOverloaded) || errors.Is(err, shard.ErrUnavailable):
			s.writeErr(w, http.StatusServiceUnavailable, "%v", err)
		case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
			s.writeErr(w, http.StatusGatewayTimeout, "%v", err)
		default:
			s.writeErr(w, http.StatusBadRequest, "%v", err)
		}
		return
	}
	if s.expired(w, r) {
		return
	}
	resp := UbsupResponse{Index: req.Index, Version: version, NumTx: ix.NumTx(), Bounds: results}
	for _, b := range results {
		if b.Cached {
			resp.CacheHits++
		}
	}
	if single {
		resp.Bound = &results[0].Bound
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// MineRequest is the body of POST /v1/mine: a full mining run over the
// named entry's dataset, pruned by its index unless UseOSSM is false.
type MineRequest struct {
	Index string `json:"index"`
	// Miner is a registry name from ossm.Miners() ("" ⇒ "apriori").
	Miner string `json:"miner,omitempty"`
	// Support is the relative threshold; MinCount the absolute one
	// (exactly one must be positive).
	Support  float64 `json:"support,omitempty"`
	MinCount int64   `json:"min_count,omitempty"`
	// UseOSSM prunes candidates with the entry's index (nil ⇒ true when
	// the entry has an index).
	UseOSSM *bool          `json:"use_ossm,omitempty"`
	MaxLen  int            `json:"max_len,omitempty"`
	Workers int            `json:"workers,omitempty"`
	Params  map[string]int `json:"params,omitempty"`
	// Top caps the itemsets echoed back, by descending support (0 ⇒ 20,
	// negative ⇒ none).
	Top int `json:"top,omitempty"`
}

// MineLevel summarizes one level of a mining run.
type MineLevel struct {
	K         int `json:"k"`
	Frequent  int `json:"frequent"`
	Generated int `json:"generated,omitempty"`
	Pruned    int `json:"pruned_ossm,omitempty"`
	Counted   int `json:"counted,omitempty"`
}

// MineItemset is one reported frequent itemset.
type MineItemset struct {
	Itemset ossm.Itemset `json:"itemset"`
	Support int64        `json:"support"`
}

// MineResponse reports a completed mining run with its telemetry.
// Sharded runs report Shards and Candidates instead of Levels and
// Telemetry: the run is a scatter-gather over per-shard miners, so there
// is no single level-by-level trace to echo.
type MineResponse struct {
	Index       string          `json:"index"`
	Miner       string          `json:"miner"`
	MinCount    int64           `json:"min_count"`
	NumFrequent int             `json:"num_frequent"`
	Pruned      bool            `json:"pruned"`
	Levels      []MineLevel     `json:"levels,omitempty"`
	Top         []MineItemset   `json:"top,omitempty"`
	Telemetry   *ossm.Telemetry `json:"telemetry,omitempty"`
	// Shards is the fleet width of a sharded run (0 when unsharded).
	Shards int `json:"shards,omitempty"`
	// Candidates is a sharded run's gather-phase workload: the size of
	// the union of locally frequent itemsets recounted globally.
	Candidates int `json:"candidates,omitempty"`
}

func (s *Server) handleMine(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	if s.expired(w, r) {
		return
	}
	var req MineRequest
	if err := decodeJSON(r, &req); err != nil {
		s.writeErr(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	if req.Miner == "" {
		req.Miner = "apriori"
	}
	if !minerKnown(req.Miner) {
		s.writeErr(w, http.StatusBadRequest, "unknown miner %q (have: %v)", req.Miner, ossm.Miners())
		return
	}
	if (req.Support > 0) == (req.MinCount > 0) {
		s.writeErr(w, http.StatusBadRequest, "exactly one of support and min_count must be positive")
		return
	}
	d, hasData := s.reg.Dataset(req.Index)
	ix, _, hasIndex := s.reg.Lookup(req.Index)
	if !hasData && !hasIndex {
		s.writeErr(w, http.StatusNotFound, "unknown index %q", req.Index)
		return
	}
	if !hasData {
		s.writeErr(w, http.StatusBadRequest, "index %q has no dataset attached; mining needs the transactions", req.Index)
		return
	}
	minCount := req.MinCount
	if minCount == 0 {
		minCount = ossm.MinCountFor(d, req.Support)
	}
	useOSSM := hasIndex
	if req.UseOSSM != nil {
		useOSSM = *req.UseOSSM && hasIndex
	}
	var filter ossm.Filter
	if useOSSM {
		filter = ix.PrunerAt(minCount)
	}
	// Sharded servers scatter the run over the fleet's transaction
	// slices instead of mining in one piece (Partition decomposition:
	// local-frequent union, then an exact global recount). Shard-local
	// bounds cover only each shard's transactions, so OSSM pruning does
	// not apply inside the scatter phase.
	var fleet *shard.Fleet
	if hasIndex {
		var ferr error
		fleet, ferr = s.fleetFor(req.Index, ix, d)
		if ferr != nil {
			s.writeErr(w, http.StatusInternalServerError, "building shard fleet: %v", ferr)
			return
		}
	}

	// Admission control: at most MineConcurrency runs at once; waiters
	// give up at their deadline. A slot is held until its run ends, not
	// until the handler answers. The admission span times the wait, so
	// queueing delay is separable from mining wall time in the trace.
	s.obs.mineWaiting.Add(1)
	_, admit := s.obs.tracer.Start(ctx, "admission")
	select {
	case s.mineSem <- struct{}{}:
		s.obs.mineWaiting.Add(-1)
		admit.SetAttr("admitted", true)
		admit.End()
	case <-ctx.Done():
		s.obs.mineWaiting.Add(-1)
		admit.SetAttr("admitted", false)
		admit.End()
		s.writeErr(w, http.StatusGatewayTimeout, "timed out waiting for a mining slot")
		return
	}

	if fleet != nil {
		defer func() { <-s.mineSem }()
		s.mineSharded(ctx, w, fleet, req, minCount)
		return
	}

	instr := ossm.NewInstrumentation()
	runCtx, run := s.obs.tracer.Start(ctx, "mine-run")
	run.SetAttr("miner", req.Miner)
	run.SetAttr("min_count", minCount)
	s.markMineStart(runCtx, req.Miner, minCount)
	// Each finished pass reports its wall time through Progress, so the
	// per-pass spans are synthesized retroactively: started Elapsed ago,
	// ended now. Progress runs on the mining goroutine; the tracer ring
	// is concurrency-safe.
	progress := func(ps ossm.PassStats) {
		_, span := s.obs.tracer.StartAt(runCtx, fmt.Sprintf("pass-%d", ps.K), time.Now().Add(-ps.Elapsed))
		span.SetAttr("generated", ps.Generated)
		span.SetAttr("pruned_ossm", ps.Pruned)
		span.SetAttr("counted", ps.Counted)
		span.SetAttr("frequent", ps.Frequent)
		span.End()
	}
	type mineOut struct {
		res *ossm.Result
		err error
	}
	ch := make(chan mineOut, 1)
	go func() {
		res, err := ossm.MineAt(req.Miner, d, minCount, ossm.MineOptions{
			Filter:     filter,
			MaxLen:     req.MaxLen,
			Workers:    req.Workers,
			Progress:   progress,
			Params:     req.Params,
			Instrument: instr,
			RequestID:  obs.RequestIDFrom(ctx),
		})
		// The run may outlive the handler, which answers 504 at its
		// deadline; the slot is released only when mining stops.
		<-s.mineSem
		ch <- mineOut{res, err}
	}()
	var out mineOut
	select {
	case out = <-ch:
	case <-ctx.Done():
		// The run finishes in the background; its result is dropped.
		run.SetAttr("outcome", "deadline")
		run.End()
		s.writeErr(w, http.StatusGatewayTimeout, "mining exceeded the request deadline")
		return
	}
	if out.err != nil {
		run.SetAttr("outcome", "error")
		run.End()
		s.writeErr(w, http.StatusInternalServerError, "mining: %v", out.err)
		return
	}
	s.obs.mineRuns.With(req.Miner).Inc()
	if rep := out.res.Stats.Telemetry; rep != nil {
		s.obs.minePasses.With(req.Miner).Add(int64(len(rep.Passes)))
		s.obs.mineCand.With("generated").Add(rep.Generated)
		s.obs.mineCand.With("pruned").Add(rep.PrunedOSSM + rep.PrunedHash)
		s.obs.mineCand.With("counted").Add(rep.Counted)
	}
	run.SetAttr("outcome", "ok")
	run.SetAttr("frequent", out.res.NumFrequent())
	run.End()

	resp := MineResponse{
		Index:       req.Index,
		Miner:       req.Miner,
		MinCount:    minCount,
		NumFrequent: out.res.NumFrequent(),
		Pruned:      useOSSM,
		Telemetry:   out.res.Stats.Telemetry,
	}
	for _, l := range out.res.Levels {
		resp.Levels = append(resp.Levels, MineLevel{
			K: l.K, Frequent: len(l.Frequent),
			Generated: l.Stats.Generated, Pruned: l.Stats.Pruned, Counted: l.Stats.Counted,
		})
	}
	top := req.Top
	if top == 0 {
		top = 20
	}
	if top > 0 {
		all := out.res.All()
		sort.Slice(all, func(i, j int) bool {
			if all[i].Count != all[j].Count {
				return all[i].Count > all[j].Count
			}
			return all[i].Items.Compare(all[j].Items) < 0
		})
		if top > len(all) {
			top = len(all)
		}
		for _, c := range all[:top] {
			resp.Top = append(resp.Top, MineItemset{Itemset: c.Items, Support: c.Count})
		}
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// markMineStart records an instantaneous "mine-start" event span under
// the run context. Spans land in the ring only at End, so a long run is
// otherwise invisible until it finishes; the event makes the in-flight
// run (and its miner/threshold) show up in /v1/traces immediately.
func (s *Server) markMineStart(runCtx context.Context, miner string, minCount int64) {
	_, ev := s.obs.tracer.Start(runCtx, "mine-start")
	ev.SetAttr("miner", miner)
	ev.SetAttr("min_count", minCount)
	ev.End()
}

// mineSharded runs one /v1/mine request scatter-gather over the fleet
// (the caller already holds a mining admission slot). The answer is
// bit-identical to a single-node run — Partition's local-frequent union
// is a superset of the global answer and the recount is exact — but the
// response reports fleet shape instead of level-by-level telemetry.
func (s *Server) mineSharded(ctx context.Context, w http.ResponseWriter, fleet *shard.Fleet, req MineRequest, minCount int64) {
	runCtx, run := s.obs.tracer.Start(ctx, "mine-run")
	run.SetAttr("miner", req.Miner)
	run.SetAttr("min_count", minCount)
	run.SetAttr("shards", fleet.NumShards())
	s.markMineStart(runCtx, req.Miner, minCount)
	res, err := fleet.Mine(runCtx, shard.MineConfig{Miner: req.Miner, MinCount: minCount, MaxLen: req.MaxLen})
	if err != nil {
		if ctx.Err() != nil {
			run.SetAttr("outcome", "deadline")
			run.End()
			s.writeErr(w, http.StatusGatewayTimeout, "mining exceeded the request deadline")
			return
		}
		run.SetAttr("outcome", "error")
		run.End()
		code := http.StatusInternalServerError
		if errors.Is(err, shard.ErrOverloaded) || errors.Is(err, shard.ErrUnavailable) {
			code = http.StatusServiceUnavailable
		}
		s.writeErr(w, code, "mining: %v", err)
		return
	}
	s.obs.mineRuns.With(req.Miner).Inc()
	run.SetAttr("outcome", "ok")
	run.SetAttr("frequent", len(res.Frequent))
	run.End()

	resp := MineResponse{
		Index:       req.Index,
		Miner:       req.Miner,
		MinCount:    minCount,
		NumFrequent: len(res.Frequent),
		Shards:      res.Shards,
		Candidates:  res.Candidates,
	}
	top := req.Top
	if top == 0 {
		top = 20
	}
	if top > 0 {
		// res.Frequent is already sorted by descending support, then
		// itemset order — the same order the single-node path reports.
		if top > len(res.Frequent) {
			top = len(res.Frequent)
		}
		for _, c := range res.Frequent[:top] {
			resp.Top = append(resp.Top, MineItemset{Itemset: c.Items, Support: c.Count})
		}
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// Serve runs the service on ln until ctx is canceled, then shuts down
// gracefully (draining in-flight requests for up to 5 seconds). It
// returns nil after a clean shutdown.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	hs := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case <-ctx.Done():
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return hs.Shutdown(sctx)
	}
}

// decodeJSON strictly decodes one JSON object from the request body.
func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after the JSON body")
	}
	return nil
}

func minerKnown(name string) bool {
	for _, m := range ossm.Miners() {
		if m == name {
			return true
		}
	}
	return false
}
