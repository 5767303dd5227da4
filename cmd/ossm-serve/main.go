// Command ossm-serve exposes persisted OSSM indexes (and optionally
// their datasets) as a concurrent HTTP/JSON bound-query and mining
// service — the serving shape of the ROADMAP's north star: build or load
// indexes once, then answer ubsup queries at any threshold from a small
// in-memory structure, with an LRU bound cache on the hot path.
//
// Usage:
//
//	ossm-serve -addr :7717 -index retail=retail.ossm -data retail=retail.bin
//	ossm-serve -data retail=retail.bin -build-segments 40
//	ossm-serve -ingest live=/var/lib/ossm/live -ingest-items 1024
//
// Endpoints: GET /healthz, GET /v1/indexes, POST /v1/ubsup,
// POST /v1/mine, POST /v1/ingest (durable stores only), GET /metrics and
// GET /v1/metrics (the same Prometheus text; ?exemplars=1 adds trace-id
// exemplars), GET /v1/traces (cross-process assembly on remote fleets),
// GET /v1/fleetz (fleet health summary), and /debug/pprof/ behind
// -pprof. See README.md for the request shapes and the observability
// surface.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	ossm "github.com/ossm-mining/ossm"
	"github.com/ossm-mining/ossm/internal/obs"
	"github.com/ossm-mining/ossm/internal/server"
	"github.com/ossm-mining/ossm/internal/shard"
	"github.com/ossm-mining/ossm/internal/shard/remote"
	"github.com/ossm-mining/ossm/internal/wal"
)

// kvList collects repeated name=path flags.
type kvList []struct{ name, path string }

func (l *kvList) String() string {
	var parts []string
	for _, kv := range *l {
		parts = append(parts, kv.name+"="+kv.path)
	}
	return strings.Join(parts, ",")
}

func (l *kvList) Set(s string) error {
	name, path, ok := strings.Cut(s, "=")
	if !ok || name == "" || path == "" {
		return fmt.Errorf("want name=path, got %q", s)
	}
	*l = append(*l, struct{ name, path string }{name, path})
	return nil
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the tool; factored out of main for testability. It prints
// the bound address as soon as the listener is up, so callers using
// ":0" can discover the port.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ossm-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var indexes, datasets kvList
	var (
		addr     = fs.String("addr", ":7717", "listen address (host:port; :0 picks a free port)")
		cache    = fs.Int("cache", 4096, "bound-cache capacity in entries (negative disables)")
		timeout  = fs.Duration("timeout", 30*time.Second, "per-request deadline (negative disables)")
		workers  = fs.Int("workers", runtime.NumCPU(), "goroutine pool for batch bound queries (0 or 1 = serial)")
		mineSlot = fs.Int("mine-concurrency", 2, "max simultaneous mining runs")
		buildSeg = fs.Int("build-segments", 0, "build an index (RandomGreedy, this segment budget) for datasets lacking one (0 = off)")
		logLevel = fs.String("log-level", "info", "structured-log threshold: debug, info, warn or error")
		traceBuf = fs.Int("trace-buffer", 2048, "finished-span ring capacity behind GET /v1/traces (negative disables tracing)")
		pprofOn  = fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		role     = fs.String("shard-role", "", "process role: empty serves queries; \"worker\" serves one shard of every entry under /shard/v1/ (needs -shard-id and -shard-count)")
		shardID  = fs.Int("shard-id", -1, "this worker's shard id in [0, shard-count) (worker role)")
		shardCnt = fs.Int("shard-count", 0, "fleet width the worker slices every index into (worker role)")
		topoPath = fs.String("topology", "", "topology file mapping shard ids to worker addresses; /v1/ubsup and /v1/mine scatter-gather over those workers (SIGHUP re-reads it)")
		ingestKV = fs.String("ingest", "", "name=dir of a durable ingest store; recovers WAL + snapshots from dir and accepts POST /v1/ingest (not with -topology or the worker role)")
		ingItems = fs.Int("ingest-items", 1024, "item domain size [0, n) of the -ingest store")
		ingSnap  = fs.Int("ingest-snapshot-every", 256, "ingested records between automatic snapshots (each truncates the WAL)")
		ingComp  = fs.Int("ingest-compact-every", 64, "ingested records between background compactions that promote the store into the registry")
	)
	fs.Var(&indexes, "index", "name=path of a saved OSSM index (repeatable)")
	fs.Var(&datasets, "data", "name=path of a dataset to attach for /v1/mine (repeatable)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "ossm-serve: unexpected arguments: %v\n", fs.Args())
		return 2
	}
	if len(indexes) == 0 && len(datasets) == 0 && *ingestKV == "" {
		fmt.Fprintln(stderr, "ossm-serve: at least one -index, -data or -ingest entry is required")
		return 2
	}
	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintf(stderr, "ossm-serve: %v\n", err)
		return 2
	}
	logger := obs.NewLogger(stderr, level)

	switch *role {
	case "":
	case "worker":
		if *ingestKV != "" {
			fmt.Fprintln(stderr, "ossm-serve: -ingest needs the serving role; a worker serves read-only shard slices")
			return 2
		}
		return runWorker(ctx, workerConfig{
			addr: *addr, shardID: *shardID, shardCount: *shardCnt,
			indexes: indexes, datasets: datasets, buildSeg: *buildSeg,
			traceBuf: *traceBuf,
		}, logger, stdout, stderr)
	default:
		fmt.Fprintf(stderr, "ossm-serve: unknown -shard-role %q (want \"\" or \"worker\")\n", *role)
		return 2
	}
	if *topoPath != "" && *ingestKV != "" {
		fmt.Fprintln(stderr, "ossm-serve: -ingest cannot be combined with -topology; a coordinator routes every entry to its workers, which never hold the ingest store")
		return 2
	}

	srv := server.New(server.Config{
		CacheSize:       *cache,
		RequestTimeout:  *timeout,
		Workers:         *workers,
		MineConcurrency: *mineSlot,
		Logger:          logger,
		TraceBuffer:     *traceBuf,
		EnablePprof:     *pprofOn,
	})
	if err := loadEntries(srv, indexes, datasets, *buildSeg, stdout); err != nil {
		logger.Error("startup failed", slog.String("error", err.Error()))
		return 1
	}
	if *topoPath != "" {
		if err := wireTopology(ctx, srv, *topoPath, logger, stdout); err != nil {
			logger.Error("startup failed", slog.String("error", err.Error()))
			return 1
		}
	}
	if *ingestKV != "" {
		ing, err := wireIngest(srv, *ingestKV, *ingItems, *ingSnap, *ingComp, stdout)
		if err != nil {
			logger.Error("startup failed", slog.String("error", err.Error()))
			return 1
		}
		defer func() {
			ing.Close()
			if err := ing.Store().Close(); err != nil {
				logger.Error("ingest store close failed", slog.String("error", err.Error()))
			}
		}()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Error("startup failed", slog.String("error", err.Error()))
		return 1
	}
	fmt.Fprintf(stdout, "ossm-serve: listening on %s\n", ln.Addr())
	logger.Info("listening", slog.String("addr", ln.Addr().String()))
	if err := srv.Serve(ctx, ln); err != nil {
		logger.Error("serve failed", slog.String("error", err.Error()))
		return 1
	}
	fmt.Fprintln(stdout, "ossm-serve: shut down cleanly")
	return 0
}

// loadEntries populates the server's registry from the -index and -data
// flags (building indexes for bare datasets when buildSeg > 0). On any
// failure it releases every entry it registered before returning the
// error, so a failed startup never leaves the registry half-populated —
// a supervisor restarting the process, or a host embedding run, sees
// either a complete registry or an empty one.
func loadEntries(srv *server.Server, indexes, datasets kvList, buildSeg int, stdout io.Writer) (err error) {
	var added []string
	defer func() {
		if err != nil {
			for _, name := range added {
				srv.Registry().Remove(name)
			}
		}
	}()
	have := make(map[string]bool)
	note := func(name string) {
		if !have[name] {
			added = append(added, name)
		}
	}
	for _, kv := range indexes {
		ix, err := ossm.LoadIndex(kv.path)
		if err != nil {
			return err
		}
		if err := srv.AddIndex(kv.name, ix); err != nil {
			return err
		}
		note(kv.name)
		have[kv.name] = true
		fmt.Fprintf(stdout, "index %q: %d segments, %d tx, %.1f KB\n",
			kv.name, ix.NumSegments(), ix.NumTx(), float64(ix.SizeBytes())/1024)
	}
	for _, kv := range datasets {
		d, err := ossm.LoadDataset(kv.path)
		if err != nil {
			return err
		}
		if err := srv.AddDataset(kv.name, d); err != nil {
			return err
		}
		note(kv.name)
		fmt.Fprintf(stdout, "data %q: %d transactions, %d items\n", kv.name, d.NumTx(), d.NumItems())
		if buildSeg > 0 && !have[kv.name] {
			ix, err := ossm.Build(d, ossm.BuildOptions{Segments: buildSeg, Algorithm: ossm.RandomGreedy})
			if err != nil {
				return err
			}
			if err := srv.AddIndex(kv.name, ix); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "index %q: built %d segments in %v\n",
				kv.name, ix.NumSegments(), ix.SegmentationTime().Round(time.Millisecond))
		}
	}
	return nil
}

// wireIngest recovers the durable ingest store under dir and mounts it
// on the server: POST /v1/ingest appends to its WAL, and the background
// compactor promotes re-segmented snapshots into the registry under the
// configured name. Promotion re-segments with RandomGreedy — the same
// quality/speed trade -build-segments makes for offline builds.
func wireIngest(srv *server.Server, kv string, items, snapEvery, compactEvery int, stdout io.Writer) (*server.Ingester, error) {
	name, dir, ok := strings.Cut(kv, "=")
	if !ok || name == "" || dir == "" {
		return nil, fmt.Errorf("-ingest: want name=dir, got %q", kv)
	}
	dfs, err := wal.DirFS(dir)
	if err != nil {
		return nil, err
	}
	store, info, err := wal.Open(dfs, wal.Options{
		NumItems:         items,
		SnapshotEvery:    snapEvery,
		PromoteAlgorithm: ossm.RandomGreedy,
	})
	if err != nil {
		return nil, err
	}
	ing, err := srv.EnableIngest(name, store, server.IngestConfig{CompactEvery: compactEvery})
	if err != nil {
		store.Close()
		return nil, err
	}
	if info.Fresh {
		fmt.Fprintf(stdout, "ingest %q: fresh store in %s (%d items)\n", name, dir, items)
	} else {
		torn := ""
		if info.TornTail != "" {
			torn = ", torn tail: " + info.TornTail
		}
		fmt.Fprintf(stdout, "ingest %q: recovered seq %d (snapshot %d + %d replayed records%s)\n",
			name, info.Seq, info.SnapshotSeq, info.Replayed, torn)
	}
	return ing, nil
}

// wireTopology routes the server's sharded serving over the remote
// workers the topology file lists, and re-reads the file on SIGHUP
// (each entry's next query swaps the new transports in with a graceful
// drain of the old topology generation).
func wireTopology(ctx context.Context, srv *server.Server, path string, logger *slog.Logger, stdout io.Writer) error {
	topo, err := remote.LoadTopology(path)
	if err != nil {
		return err
	}
	var holder atomic.Pointer[remote.Topology]
	holder.Store(topo)
	httpc := remote.NewHTTPClient()
	hooks := srv.RemoteHooks()
	srv.UseRemoteFleet(func(name string) ([]shard.Transport, error) {
		return holder.Load().Transports(name, remote.ClientConfig{
			HTTPClient: httpc,
			Hooks:      hooks,
			Tracer:     srv.Tracer(),
		})
	})
	fmt.Fprintf(stdout, "topology: %d remote shards from %s\n", topo.NumShards(), path)

	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		defer signal.Stop(hup)
		for {
			select {
			case <-ctx.Done():
				return
			case <-hup:
				nt, err := remote.LoadTopology(path)
				if err != nil {
					logger.Error("topology reload failed; keeping the old fleet",
						slog.String("path", path), slog.String("error", err.Error()))
					continue
				}
				holder.Store(nt)
				srv.ReloadFleets()
				logger.Info("topology reloaded",
					slog.String("path", path), slog.Int("shards", nt.NumShards()))
			}
		}
	}()
	return nil
}

// workerConfig is the worker role's slice of the flag set.
type workerConfig struct {
	addr       string
	shardID    int
	shardCount int
	indexes    kvList
	datasets   kvList
	buildSeg   int
	traceBuf   int
}

// runWorker serves one shard of every configured entry under /shard/v1/
// — the shard side of a remote fleet. The worker loads the same files
// as the coordinator and slices them with the same deterministic
// partition, so id i here owns exactly the segment range the
// coordinator's client i expects.
func runWorker(ctx context.Context, cfg workerConfig, logger *slog.Logger, stdout, stderr io.Writer) int {
	if cfg.shardCount < 1 || cfg.shardID < 0 || cfg.shardID >= cfg.shardCount {
		fmt.Fprintf(stderr, "ossm-serve: worker role needs -shard-id in [0, -shard-count); got id %d of %d\n",
			cfg.shardID, cfg.shardCount)
		return 2
	}
	w := remote.NewWorker()
	w.SetObs(logger, obs.NewTracer(cfg.traceBuf))
	registered := 0
	err := loadFiles(cfg.indexes, cfg.datasets, cfg.buildSeg, stdout, func(name string, ix *ossm.Index, d *ossm.Dataset) error {
		if ix == nil {
			return fmt.Errorf("worker entry %q has no index; a shard worker serves index slices", name)
		}
		shards, err := shard.NewLocalShards(ix, d, cfg.shardCount, 0)
		if err != nil {
			return err
		}
		if cfg.shardID >= len(shards) {
			return fmt.Errorf("index %q splits into only %d shard(s) (%d segments); shard id %d owns nothing",
				name, len(shards), ix.NumSegments(), cfg.shardID)
		}
		if err := w.Add(name, shard.Transports(shards)[cfg.shardID], ix.NumSegments(), ix.NumItems()); err != nil {
			return err
		}
		rng := shard.PartitionSegments(ix.NumSegments(), cfg.shardCount)[cfg.shardID]
		fmt.Fprintf(stdout, "shard %d/%d of %q: segments [%d, %d)\n",
			cfg.shardID, cfg.shardCount, name, rng.Lo, rng.Hi)
		registered++
		return nil
	})
	if err != nil {
		logger.Error("startup failed", slog.String("error", err.Error()))
		return 1
	}
	if registered == 0 {
		fmt.Fprintln(stderr, "ossm-serve: worker role needs at least one -index (or -data with -build-segments)")
		return 2
	}
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		logger.Error("startup failed", slog.String("error", err.Error()))
		return 1
	}
	fmt.Fprintf(stdout, "ossm-serve: listening on %s\n", ln.Addr())
	logger.Info("worker listening", slog.String("addr", ln.Addr().String()), slog.Int("shard", cfg.shardID))
	hs := &http.Server{Handler: w.Handler(), ReadHeaderTimeout: 10 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			logger.Error("serve failed", slog.String("error", err.Error()))
			return 1
		}
	case <-ctx.Done():
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := hs.Shutdown(sctx); err != nil {
			logger.Error("shutdown failed", slog.String("error", err.Error()))
			return 1
		}
	}
	fmt.Fprintln(stdout, "ossm-serve: shut down cleanly")
	return 0
}

// loadFiles loads every configured entry (building indexes for bare
// datasets when buildSeg > 0, exactly like the serving role) and hands
// each completed (index, dataset) pair to register.
func loadFiles(indexes, datasets kvList, buildSeg int, stdout io.Writer, register func(name string, ix *ossm.Index, d *ossm.Dataset) error) error {
	type entry struct {
		ix *ossm.Index
		d  *ossm.Dataset
	}
	loaded := make(map[string]*entry)
	var order []string
	note := func(name string) *entry {
		e, ok := loaded[name]
		if !ok {
			e = &entry{}
			loaded[name] = e
			order = append(order, name)
		}
		return e
	}
	for _, kv := range indexes {
		ix, err := ossm.LoadIndex(kv.path)
		if err != nil {
			return err
		}
		e := note(kv.name)
		if e.ix != nil {
			return fmt.Errorf("index %q configured twice", kv.name)
		}
		e.ix = ix
		fmt.Fprintf(stdout, "index %q: %d segments, %d tx, %.1f KB\n",
			kv.name, ix.NumSegments(), ix.NumTx(), float64(ix.SizeBytes())/1024)
	}
	for _, kv := range datasets {
		d, err := ossm.LoadDataset(kv.path)
		if err != nil {
			return err
		}
		e := note(kv.name)
		if e.d != nil {
			return fmt.Errorf("data %q configured twice", kv.name)
		}
		e.d = d
		fmt.Fprintf(stdout, "data %q: %d transactions, %d items\n", kv.name, d.NumTx(), d.NumItems())
		if buildSeg > 0 && e.ix == nil {
			ix, err := ossm.Build(d, ossm.BuildOptions{Segments: buildSeg, Algorithm: ossm.RandomGreedy})
			if err != nil {
				return err
			}
			e.ix = ix
			fmt.Fprintf(stdout, "index %q: built %d segments in %v\n",
				kv.name, ix.NumSegments(), ix.SegmentationTime().Round(time.Millisecond))
		}
	}
	for _, name := range order {
		e := loaded[name]
		if err := register(name, e.ix, e.d); err != nil {
			return err
		}
	}
	return nil
}
