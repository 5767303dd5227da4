// Command ossm-bench regenerates the paper's tables and figures. Every
// subcommand prints the same rows/series the paper reports, at a scale
// controlled by flags (defaults are laptop-friendly; raise -tx and
// -pages toward the paper's 5 million transactions / 50 000 pages for a
// full-scale run).
//
// Usage:
//
//	ossm-bench [flags] <experiment>
//
// Experiments: fig4, fig5a, fig5b, fig6, sec7, skew, hosts, episodes,
// memory, extended, minseg, all.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"github.com/ossm-mining/ossm/internal/bench"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the tool; factored out of main for testability.
func run(args []string, stdout, stderr io.Writer) int {
	cfg := bench.DefaultConfig()
	fs := flag.NewFlagSet("ossm-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		tx            = fs.Int("tx", cfg.NumTx, "number of transactions")
		items         = fs.Int("items", cfg.NumItems, "number of domain items")
		pages         = fs.Int("pages", cfg.Pages, "number of initial pages m")
		support       = fs.Float64("support", cfg.Support, "query support threshold (fraction)")
		bubbleSize    = fs.Int("bubble", cfg.BubbleSize, "bubble-list size in items (0 = full sumdiff)")
		bubbleSupport = fs.Float64("bubble-support", cfg.BubbleSupport, "support threshold the bubble list is formed at")
		drift         = fs.Float64("drift", cfg.Drift, "pattern-popularity drift of the regular-synthetic workload")
		driftEvery    = fs.Int("drift-every", 0, "drift epoch length in transactions (0 = NumTx/100)")
		shuffle       = fs.Int("shuffle", cfg.ShuffleBlock, "block size for load-order shuffling (0 = none)")
		seed          = fs.Int64("seed", cfg.Seed, "RNG seed")
		nUser         = fs.Int("segments", 40, "segment budget n_user (fig5a/fig5b/fig6/sec7/ablations)")
		nMid          = fs.Int("mid", 200, "hybrid mid-point n_mid (fig5b/fig6)")
		sweep         = fs.String("sweep", "", "comma-separated segment counts for fig4/memory (default 20..160)")
		percents      = fs.String("percents", "", "comma-separated bubble percentages for fig6 (default 5,10,20,40,60)")
		buckets       = fs.Int("buckets", 0, "DHP hash buckets for sec7 (default 32768)")
		width         = fs.Int("width", 8, "episode window width")
		minFreq       = fs.Float64("minfreq", 0.02, "episode minimum frequency")
		asJSON        = fs.Bool("json", false, "emit results as JSON instead of tables")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.NumTx = *tx
	cfg.NumItems = *items
	cfg.Pages = *pages
	cfg.Support = *support
	cfg.BubbleSize = *bubbleSize
	cfg.BubbleSupport = *bubbleSupport
	cfg.Drift = *drift
	cfg.DriftEvery = *driftEvery
	cfg.ShuffleBlock = *shuffle
	cfg.Seed = *seed

	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: ossm-bench [flags] <fig4|fig5a|fig5b|fig6|sec7|skew|hosts|episodes|memory|extended|minseg|all>")
		return 2
	}
	what := fs.Arg(0)

	emit := func(name string, r interface{ Print(io.Writer) }) error {
		if *asJSON {
			enc := json.NewEncoder(stdout)
			enc.SetIndent("", "  ")
			return enc.Encode(map[string]any{"experiment": name, "result": r})
		}
		r.Print(stdout)
		return nil
	}
	runOne := func(name string) error {
		switch name {
		case "fig4":
			r, err := bench.RunFig4(cfg, parseInts(*sweep))
			if err != nil {
				return err
			}
			return emit(name, r)
		case "fig5a":
			r, err := bench.RunFig5a(cfg, *nUser)
			if err != nil {
				return err
			}
			return emit(name, r)
		case "fig5b":
			r, err := bench.RunFig5b(cfg, *nUser, *nMid)
			if err != nil {
				return err
			}
			return emit(name, r)
		case "fig6":
			r, err := bench.RunFig6(cfg, *nUser, *nMid, parseInts(*percents))
			if err != nil {
				return err
			}
			return emit(name, r)
		case "sec7":
			r, err := bench.RunSec7(cfg, *buckets, *nUser)
			if err != nil {
				return err
			}
			return emit(name, r)
		case "skew":
			r, err := bench.RunSkew(cfg, *nUser)
			if err != nil {
				return err
			}
			return emit(name, r)
		case "hosts":
			r, err := bench.RunHosts(cfg, *nUser)
			if err != nil {
				return err
			}
			return emit(name, r)
		case "episodes":
			r, err := bench.RunEpisodes(cfg, *width, *minFreq)
			if err != nil {
				return err
			}
			return emit(name, r)
		case "memory":
			r, err := bench.RunMemory(cfg, parseInts(*sweep))
			if err != nil {
				return err
			}
			return emit(name, r)
		case "extended":
			r, err := bench.RunExtended(cfg, *nUser)
			if err != nil {
				return err
			}
			return emit(name, r)
		case "minseg":
			r, err := bench.RunMinSeg(cfg, parseInts(*sweep))
			if err != nil {
				return err
			}
			return emit(name, r)
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
	}

	names := []string{what}
	if what == "all" {
		names = []string{"fig4", "fig5a", "fig5b", "fig6", "sec7", "skew", "hosts", "episodes", "memory", "extended", "minseg"}
	}
	for i, name := range names {
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		if err := runOne(name); err != nil {
			fmt.Fprintf(stderr, "ossm-bench %s: %v\n", name, err)
			return 1
		}
	}
	return 0
}

func parseInts(s string) []int {
	if s == "" {
		return nil
	}
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil // fall back to the experiment's default grid
		}
		out = append(out, v)
	}
	return out
}
