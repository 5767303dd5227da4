package bench

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"

	"github.com/ossm-mining/ossm/internal/core"
	"github.com/ossm-mining/ossm/internal/dataset"
)

// KernelPoint measures one (candidate shape, segment count) cell of the
// bound-kernel microbenchmark. Every ns/op figure times one whole
// generation of KernelCands candidates, so the kernels are directly
// comparable: the scalar baseline is a full UpperBound walk per
// candidate, AtLeast the per-candidate decision kernel called one
// candidate at a time, Batch the same kernel driven by BoundBatch over
// the whole generation.
type KernelPoint struct {
	Kind          string  `json:"kind"` // "pair", "triple", "quad" or "quint"
	Segments      int     `json:"segments"`
	Candidates    int     `json:"candidates"`
	MinSup        int64   `json:"minsup"`
	ScalarNsOp    float64 `json:"scalar_ns_per_op"`
	AtLeastNsOp   float64 `json:"atleast_ns_per_op"`
	BatchNsOp     float64 `json:"batch_ns_per_op"`
	BatchSpeedup  float64 `json:"batch_speedup_vs_scalar"`
	EarlyExitRate float64 `json:"early_exit_rate"`
	AbandonRate   float64 `json:"abandon_rate"`
}

// KernelsResult is the bound-kernel microbenchmark (DESIGN.md §7): the
// decision and batch kernels against the scalar bound across segment
// counts, on pairs and the post-wall generations (triples, quads,
// quints — the widths the generic-k loop serves). Every run re-verifies
// the equivalence guarantee before timing: each kernel's decisions must
// be bit-identical to the scalar bound's.
type KernelsResult struct {
	Points []KernelPoint `json:"points"`
}

// KernelCands is the generation size each measurement decides per op.
const KernelCands = 1024

// kernelSegDefaults spans a shallow map (16, two abandon strides) up to
// a deep segmentation (4096) whose matrix is far out of cache.
var kernelSegDefaults = []int{16, 64, 128, 256, 1024, 4096}

// kernelKinds are the candidate shapes: one per uniform width the
// level-wise pass path produces.
var kernelKinds = []struct {
	Name  string
	Width int
}{{"pair", 2}, {"triple", 3}, {"quad", 4}, {"quint", 5}}

// kernelMap builds a skewed synthetic support matrix: item i is drawn
// from [0, 200≫(i mod 8)), a power-ish popularity law that disperses
// candidate bounds the way real frequency counting does.
func kernelMap(r *rand.Rand, segs, items int) (*core.Map, error) {
	rows := make([][]uint32, segs)
	for s := range rows {
		rows[s] = make([]uint32, items)
		for i := range rows[s] {
			rows[s][i] = uint32(r.Intn(1 + 200>>(i%8)))
		}
	}
	return core.NewMap(rows)
}

// kernelCands draws a generation of distinct-item candidates of the
// requested width.
func kernelCands(r *rand.Rand, width, items, n int) []dataset.Itemset {
	cands := make([]dataset.Itemset, n)
	for i := range cands {
		for {
			picks := make([]dataset.Item, width)
			for j := range picks {
				picks[j] = dataset.Item(r.Intn(items))
			}
			cands[i] = dataset.NewItemset(picks...)
			if len(cands[i]) == width {
				break
			}
		}
	}
	return cands
}

// timeKernel reports ns per call of f: the minimum over five adaptive
// ~20ms measurement windows. Small-map generations run in tens of
// microseconds, where a single averaged window swings ±50% with
// scheduler noise; the min-of-windows is the standard stable estimator
// for a deterministic kernel.
func timeKernel(f func()) float64 {
	f() // warm caches and scratch pools
	best := 0.0
	for w := 0; w < 5; w++ {
		iters := 0
		start := time.Now()
		for time.Since(start) < 20*time.Millisecond || iters < 3 {
			f()
			iters++
		}
		ns := float64(time.Since(start).Nanoseconds()) / float64(iters)
		if best == 0 || ns < best {
			best = ns
		}
	}
	return best
}

// RunKernels measures the bound kernels across segCounts (nil ⇒ the
// default 16→4096 sweep) at widths 2–5, verifying kernel/scalar
// decision equivalence on every cell before timing it.
func RunKernels(cfg Config, segCounts []int) (*KernelsResult, error) {
	if len(segCounts) == 0 {
		segCounts = kernelSegDefaults
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	out := &KernelsResult{}
	for _, segs := range segCounts {
		m, err := kernelMap(r, segs, cfg.NumItems)
		if err != nil {
			return nil, err
		}
		for _, kind := range kernelKinds {
			cands := kernelCands(r, kind.Width, cfg.NumItems, KernelCands)
			bounds := m.UpperBoundBatch(cands, nil)
			sorted := append([]int64{}, bounds...)
			sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
			minsup := sorted[len(sorted)/2] // discriminative: ~half admit
			if minsup < 1 {
				minsup = 1
			}

			// Equivalence check first: the timings below are only
			// meaningful if every kernel answers exactly like the scalar
			// bound.
			dec := make([]bool, len(cands))
			st := m.BoundBatch(cands, minsup, dec)
			for i, x := range cands {
				want := m.UpperBound(x) >= minsup
				if dec[i] != want {
					return nil, fmt.Errorf("bench: BoundBatch disagrees with UpperBound on %v at %d segments", x, segs)
				}
				if m.BoundAtLeast(x, minsup) != want {
					return nil, fmt.Errorf("bench: BoundAtLeast disagrees with UpperBound on %v at %d segments", x, segs)
				}
			}

			scalarNs := timeKernel(func() {
				for _, x := range cands {
					if m.UpperBound(x) >= minsup {
						_ = x
					}
				}
			})
			atLeastNs := timeKernel(func() {
				for _, x := range cands {
					_ = m.BoundAtLeast(x, minsup)
				}
			})
			batchNs := timeKernel(func() {
				m.BoundBatch(cands, minsup, dec)
			})
			out.Points = append(out.Points, KernelPoint{
				Kind:          kind.Name,
				Segments:      segs,
				Candidates:    len(cands),
				MinSup:        minsup,
				ScalarNsOp:    scalarNs,
				AtLeastNsOp:   atLeastNs,
				BatchNsOp:     batchNs,
				BatchSpeedup:  scalarNs / batchNs,
				EarlyExitRate: float64(st.EarlyExit) / float64(len(cands)),
				AbandonRate:   float64(st.Abandoned) / float64(len(cands)),
			})
		}
	}
	return out, nil
}

// KernelFloor is the regression floor for batch_speedup_vs_scalar at
// one sweep point: the regime-specific speedup the batch kernel must
// keep over the scalar bound, set ~30% under the values recorded in
// BENCH_5.json on the reference machine. Narrow candidates (pairs,
// triples) ride the pair and triple unrolls and clear high bars at
// every depth — their deep floor of 2.2 is the kernel-round-3
// acceptance bar itself. Wide candidates (quads, quints) pay k column
// loads per segment just like the scalar walk, so their shallow-map
// headroom is structurally thin and the floor only asks that the
// kernel never does worse than ~scalar.
func KernelFloor(kind string, segs int) float64 {
	narrow := kind == "pair" || kind == "triple"
	switch {
	case segs >= 1024: // deep: the matrix is far out of cache
		if narrow {
			return 2.2
		}
		if kind == "quad" {
			return 1.4
		}
		return 1.2
	case segs >= 128: // mid
		if narrow {
			return 2.0
		}
		return 1.2
	default: // small maps
		if narrow {
			return 1.5
		}
		return 0.7
	}
}

// Check verifies every sweep point clears margin × KernelFloor — the
// `ossm-bench kernels -check` regression gate. margin 1 is the full
// gate; the smoke gate in `make test` passes a reduced margin so a
// loaded machine doesn't flake it.
func (r *KernelsResult) Check(margin float64) error {
	if margin <= 0 {
		margin = 1
	}
	var failed []string
	for _, p := range r.Points {
		floor := margin * KernelFloor(p.Kind, p.Segments)
		if p.BatchSpeedup < floor {
			failed = append(failed,
				fmt.Sprintf("%s@%d: batch speedup %.2fx below the %.2fx floor", p.Kind, p.Segments, p.BatchSpeedup, floor))
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("bench: %d of %d kernel sweep points under their speedup floor:\n  %s",
			len(failed), len(r.Points), joinLines(failed))
	}
	return nil
}

func joinLines(lines []string) string {
	out := ""
	for i, l := range lines {
		if i > 0 {
			out += "\n  "
		}
		out += l
	}
	return out
}

// Print renders the microbenchmark as a table.
func (r *KernelsResult) Print(w io.Writer) {
	fmt.Fprintln(w, "Bound kernels: ns per generation (scalar UpperBound vs decision kernels)")
	fmt.Fprintf(w, "%-7s %8s %7s %11s %11s %11s %8s %6s %6s\n",
		"kind", "segments", "cands", "scalar", "atleast", "batch", "speedup", "exit%", "abdn%")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%-7s %8d %7d %11.0f %11.0f %11.0f %7.2fx %5.1f%% %5.1f%%\n",
			p.Kind, p.Segments, p.Candidates, p.ScalarNsOp, p.AtLeastNsOp, p.BatchNsOp,
			p.BatchSpeedup, 100*p.EarlyExitRate, 100*p.AbandonRate)
	}
}
