// Command ossm-mine mines frequent itemsets from a dataset file with a
// selectable host algorithm, with or without an OSSM, and reports the
// timing and candidate accounting the paper's experiments are built on.
//
// Usage:
//
//	ossm-mine -in data.bin -support 0.01 -miner apriori -ossm -segments 40 -alg random-greedy
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"strings"
	"time"

	ossm "github.com/ossm-mining/ossm"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the tool; factored out of main for testability.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ossm-mine", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		in         = fs.String("in", "", "input dataset path (required)")
		support    = fs.Float64("support", 0.01, "support threshold (fraction)")
		miner      = fs.String("miner", "apriori", strings.Join(ossm.Miners(), " | "))
		useOSSM    = fs.Bool("ossm", false, "build and use an OSSM")
		segments   = fs.Int("segments", 40, "OSSM segment budget n_user")
		algName    = fs.String("alg", "random-greedy", "segmentation algorithm: random | rc | greedy | random-rc | random-greedy")
		pages      = fs.Int("pages", 0, "initial pages m (0 = ~100 tx/page)")
		bubble     = fs.Int("bubble", 0, "bubble-list size (0 = full sumdiff)")
		bubbleSupp = fs.Float64("bubble-support", 0.0025, "bubble-list support threshold")
		parts      = fs.Int("partitions", 4, "partitions (partition miner)")
		seed       = fs.Int64("seed", 1, "RNG seed")
		top        = fs.Int("top", 10, "print the top-N frequent itemsets by support")
		rulesConf  = fs.Float64("rules", 0, "if > 0, also generate rules at this confidence")
		workers    = fs.Int("workers", 0, "goroutine pool for the counting passes (0 = serial; segmentation always runs serially)")
		metrics    = fs.Bool("metrics", false, "collect and print engine telemetry (per-pass accounting, pool utilization)")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile of the mining run to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile taken after mining to this file")
		tracePath  = fs.String("trace", "", "write a runtime execution trace of the mining run to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *in == "" {
		fmt.Fprintln(stderr, "ossm-mine: -in is required")
		return 2
	}
	d, err := ossm.LoadDataset(*in)
	if err != nil {
		return fail(stderr, err)
	}
	fmt.Fprintf(stdout, "dataset: %d transactions, %d items (minCount=%d at support %.4g)\n",
		d.NumTx(), d.NumItems(), ossm.MinCountFor(d, *support), *support)

	var ix *ossm.Index
	if *useOSSM {
		alg, err := parseAlg(*algName)
		if err != nil {
			return fail(stderr, err)
		}
		ix, err = ossm.Build(d, ossm.BuildOptions{
			Pages:            *pages,
			Segments:         *segments,
			Algorithm:        alg,
			BubbleSize:       *bubble,
			BubbleMinSupport: *bubbleSupp,
			Seed:             *seed,
		})
		if err != nil {
			return fail(stderr, err)
		}
		fmt.Fprintf(stdout, "index:   %d segments, %.1f KB, segmentation time %v\n",
			ix.NumSegments(), float64(ix.SizeBytes())/1024, ix.SegmentationTime().Round(time.Microsecond))
	}

	var f ossm.Filter
	if ix != nil {
		if *miner == "fpgrowth" {
			fmt.Fprintln(stderr, "note: FP-growth generates no candidates; the OSSM is unused")
		} else {
			f = ix.Pruner(*support)
		}
	}
	// Profiling hooks frame the mining run only (dataset and index loading
	// stay outside the window, matching how the paper times the host
	// algorithm).
	if *cpuprofile != "" {
		pf, err := os.Create(*cpuprofile)
		if err != nil {
			return fail(stderr, err)
		}
		defer pf.Close()
		if err := pprof.StartCPUProfile(pf); err != nil {
			return fail(stderr, err)
		}
		defer pprof.StopCPUProfile()
	}
	if *tracePath != "" {
		tf, err := os.Create(*tracePath)
		if err != nil {
			return fail(stderr, err)
		}
		defer tf.Close()
		if err := trace.Start(tf); err != nil {
			return fail(stderr, err)
		}
		defer trace.Stop()
	}

	var instr *ossm.Instrumentation
	if *metrics {
		instr = ossm.NewInstrumentation()
	}
	start := time.Now()
	res, err := ossm.Mine(*miner, d, *support, ossm.MineOptions{
		Filter:     f,
		Workers:    *workers,
		Params:     map[string]int{"partitions": *parts},
		Instrument: instr,
	})
	if err != nil {
		return fail(stderr, err)
	}
	elapsed := time.Since(start)

	if *memprofile != "" {
		mf, err := os.Create(*memprofile)
		if err != nil {
			return fail(stderr, err)
		}
		defer mf.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(mf); err != nil {
			return fail(stderr, err)
		}
	}

	fmt.Fprintf(stdout, "mining:  %d frequent itemsets in %v\n", res.NumFrequent(), elapsed.Round(time.Millisecond))
	for _, l := range res.Levels {
		if l.K == 1 || l.Stats.Generated == 0 {
			continue
		}
		fmt.Fprintf(stdout, "  pass %d: %d generated, %d pruned by OSSM, %d pruned by hash, %d counted, %d frequent\n",
			l.K, l.Stats.Generated, l.Stats.Pruned, l.Stats.PrunedHash, l.Stats.Counted, l.Stats.Frequent)
	}
	if *metrics {
		res.Stats.Telemetry.Print(stdout)
	}

	all := res.All()
	for i := 0; i < len(all); i++ { // selection-sort the top N by support
		for j := i + 1; j < len(all); j++ {
			if all[j].Count > all[i].Count {
				all[i], all[j] = all[j], all[i]
			}
		}
		if i >= *top-1 {
			break
		}
	}
	n := *top
	if n > len(all) {
		n = len(all)
	}
	if n > 0 {
		fmt.Fprintf(stdout, "top %d itemsets:\n", n)
		for _, c := range all[:n] {
			fmt.Fprintf(stdout, "  %v  support=%d\n", c.Items, c.Count)
		}
	}

	if *rulesConf > 0 {
		rs, err := ossm.GenerateRules(res, d.NumTx(), *rulesConf)
		if err != nil {
			return fail(stderr, err)
		}
		fmt.Fprintf(stdout, "rules:   %d at confidence ≥ %.2f\n", len(rs), *rulesConf)
		for i, r := range rs {
			if i == *top {
				break
			}
			fmt.Fprintf(stdout, "  %v\n", r)
		}
	}
	return 0
}

func parseAlg(s string) (ossm.Algorithm, error) {
	switch s {
	case "random":
		return ossm.Random, nil
	case "rc":
		return ossm.RC, nil
	case "greedy":
		return ossm.Greedy, nil
	case "random-rc":
		return ossm.RandomRC, nil
	case "random-greedy":
		return ossm.RandomGreedy, nil
	}
	return 0, fmt.Errorf("unknown segmentation algorithm %q", s)
}

func fail(stderr io.Writer, err error) int {
	fmt.Fprintf(stderr, "ossm-mine: %v\n", err)
	return 1
}
