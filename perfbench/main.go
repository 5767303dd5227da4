// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload against the unmodified program, checks every answer, and
// prints the workload's metrics by name with units; the last line of its
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set (setup_s, op_p90_ms,
// ops_per_s, peak_rss_mb); with --trace 1 the run also times
// every layer from outside, through the layers' public functions, and the
// metrics are the per-layer set. See README.md for the workloads, the
// metrics and how each layer maps onto the end-to-end numbers.
//
// Run it through perfbench/run.sh from the repository root, which builds
// ossm-serve and this command first:
//
//	bash perfbench/run.sh --workload mine-count --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of every successful run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is what a workload hands back: its op accounting, the metrics
// of the requested mode, and a description of the host and inputs.
type report struct {
	attempted int64
	failed    int64 // includes wrong answers
	wrong     int64
	metrics   map[string]metric
	info      map[string]any
	// table lists extra human-readable lines printed before the result.
	table []string
}

func (r *report) set(name string, v float64, unit string) {
	if r.metrics == nil {
		r.metrics = make(map[string]metric)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// runConfig is what every workload receives.
type runConfig struct {
	seed     int64
	window   time.Duration // timed window
	warmup   time.Duration // discarded ops before the window
	setups   int           // set-up repetitions; setup_s is their median
	trace    bool
	workDir  string // fresh per-run scratch directory inside the checkout
	serveBin string // ossm-serve binary for the serve-* workloads
	tr       *tracer
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(ctx context.Context, cfg runConfig) (*report, error){
	"mine-count":   mineCount.run,
	"mine-prune":   minePrune.run,
	"serve-fleet":  runServeFleet,
	"serve-ingest": runServeIngest,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed     = fs.Int64("seed", 1, "input seed; the same seed gives the same inputs")
		seconds  = fs.Float64("seconds", 20, "length of the timed window in seconds")
		trace    = fs.Int("trace", 0, "1 runs the traced mode and prints the per-layer metrics")
		warmup   = fs.Duration("warmup", 2*time.Second, "discarded ops before the timed window")
		setups   = fs.Int("setups", 11, "set-up repetitions; setup_s reports their median")
		workRoot = fs.String("work-dir", ".bench_build", "directory for per-run scratch files and traces")
		serveBin = fs.String("serve-bin", filepath.Join(".bench_build", "bin", "ossm-serve"), "ossm-serve binary for the serve-* workloads")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown --workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds <= 0 || *setups < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive, --setups at least 1 and --trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(*workRoot, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	workDir, err := os.MkdirTemp(*workRoot, "run-"+*name+"-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(workDir)
	cfg := runConfig{
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		warmup:   *warmup,
		setups:   *setups,
		trace:    *trace == 1,
		workDir:  workDir,
		serveBin: *serveBin,
		tr:       newTracer(*trace == 1),
	}
	rep, err := runner(ctx, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if ctx.Err() != nil {
		fmt.Fprintln(stderr, "perfbench: interrupted")
		return 1
	}
	if err := rep.complete(cfg.trace); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if cfg.trace {
		path := filepath.Join(*workRoot, "traces", fmt.Sprintf("%s-seed%d.json", *name, *seed))
		if err := cfg.tr.write(path); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing trace: %v\n", err)
			return 1
		}
		rep.info["trace_file"] = path
	}

	rep.info["workload"] = *name
	rep.info["seed"] = *seed
	rep.info["window_s"] = cfg.window.Seconds()
	rep.info["warmup_s"] = cfg.warmup.Seconds()
	rep.info["setups"] = cfg.setups
	rep.info["traced"] = cfg.trace
	rep.info["host"] = hostInfo()
	rep.info["wrong_answers"] = rep.wrong
	info, err := json.Marshal(rep.info)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "info %s\n", info)
	for _, line := range rep.table {
		fmt.Fprintln(stdout, line)
	}
	out, err := json.Marshal(result{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.metrics,
	})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

// errWrong marks an op whose answer failed its check.
var errWrong = errors.New("wrong answer")

// window is the outcome of one timed closed or open loop.
type window struct {
	lat       []time.Duration
	attempted int64
	failed    int64
	wrong     int64
	elapsed   time.Duration
}

// note accounts one finished op.
func (w *window) note(lat time.Duration, err error) {
	w.attempted++
	if err != nil {
		w.failed++
		if errors.Is(err, errWrong) {
			w.wrong++
		}
		return
	}
	w.lat = append(w.lat, lat)
}

func (w *window) merge(o window) {
	w.lat = append(w.lat, o.lat...)
	w.attempted += o.attempted
	w.failed += o.failed
	w.wrong += o.wrong
}

// latencies returns the successful ops' latencies in milliseconds.
func (w *window) latencies() []float64 { return durationsMS(w.lat) }

// closedLoop runs op from clients concurrent callers, each issuing its
// next op only when the previous one returned. Ops that start during the
// warm-up are discarded (op is told whether it is measured); the window
// then times every op that starts before it closes. op reports its own
// latency so that answer checks stay outside the timing.
func closedLoop(ctx context.Context, clients int, warmup, dur time.Duration, op func(client int, measured bool) (time.Duration, error)) window {
	results := make([]window, clients)
	warmEnd := time.Now().Add(warmup)
	start := warmEnd
	deadline := start.Add(dur)
	ends := make([]time.Time, clients)
	done := make(chan int, clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer func() { done <- c }()
			for ctx.Err() == nil {
				now := time.Now()
				if !now.Before(deadline) {
					return
				}
				measured := !now.Before(warmEnd)
				lat, err := op(c, measured)
				if !measured {
					continue
				}
				results[c].note(lat, err)
				ends[c] = time.Now()
			}
		}(c)
	}
	var out window
	last := start
	for i := 0; i < clients; i++ {
		c := <-done
		out.merge(results[c])
		if ends[c].After(last) {
			last = ends[c]
		}
	}
	out.elapsed = last.Sub(start)
	return out
}

// setE2E fills the end-to-end latency and throughput metrics from a
// timed window.
func (r *report) setE2E(w window, setup []float64, rssMB float64) {
	lat := w.latencies()
	r.info["setup_runs_s"] = setup
	r.set("setup_s", median(setup), "s")
	r.set("op_p90_ms", quantile(lat, 0.9), "ms")
	r.set("ops_per_s", float64(len(lat))/w.elapsed.Seconds(), "1/s")
	r.set("peak_rss_mb", rssMB, "MB")
}
