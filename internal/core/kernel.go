package core

import (
	"sync"

	"github.com/ossm-mining/ossm/internal/dataset"
)

// Bound kernels (DESIGN.md §7). The scalar UpperBound walk answers "what
// is ubsup(X)?", but every caller on the mining hot path only asks the
// cheaper decision question "is ubsup(X) ≥ minsup?". These kernels answer
// it while scanning as few segments as possible, with two symmetric
// shortcuts that both preserve bit-identical decisions with the exact
// bound:
//
//   - early exit: the bound is a sum of non-negative per-segment terms,
//     so once the accumulated partial sum reaches minsup the full bound
//     cannot be smaller — admit without scanning further.
//   - early abandon: the remaining contribution of segments t ≥ s is at
//     most min_{x∈X} suffix[x][s] (the precomputed per-item suffix
//     remainders, see Map), so when acc + remainder < minsup the full
//     bound cannot reach minsup — reject without scanning further.
//
// The batch kernels are size-dispatched across four lanes (KernelLane):
// small maps take per-candidate column kernels; mid-depth maps stream
// the segment-major rows block by block, amortizing each cache-warm row
// across every candidate still undecided (uniform-length generations
// ride flat per-k lanes with no slice-header indirection); deep maps —
// where the matrix outgrows cache and memory traffic dominates — take
// per-candidate flat column lanes over the quantized uint16 mirror
// (quant.go), halving the bytes streamed per decision. Every lane is
// generic over the cell type (uint16 mirror or uint32 store) and widens
// into the same int64 accumulation, so every decision is bit-identical
// to the reference bound regardless of lane. Per-call scratch lives in
// a sync.Pool so the batch loops are allocation-free at steady state.
//
// The candidate-2 wall (BoundPairsAmong) takes neither shortcut and no
// dispatch: it runs one segment-by-segment accumulation over the
// uint32 rows, touching only the pairs both of whose items are present
// in a segment. On the sparse rows of deep segmentations that is far
// less work than a per-pair scan; on fully dense rows it is about the
// same.

// boundOutcome records how a decision-mode bound call terminated.
type boundOutcome uint8

const (
	boundFull      boundOutcome = iota // scanned every segment (or decided from totals)
	boundEarlyExit                     // admitted before the final segment
	boundAbandoned                     // rejected before the final segment
)

// cells constrains the kernel element type: the uint32 backing store or
// its quantized uint16 mirror. Generic kernels widen every cell into
// int64 accumulation, so both instantiations produce bit-identical
// bounds and decisions.
type cells interface{ uint16 | uint32 }

// KernelLane identifies the data path that settled a bound decision.
// The batch front-end dispatches every generation across these lanes by
// segment count, candidate width and mirror availability; the counts
// surface through Pruner.Lanes → mining → telemetry → /v1/metrics as
// the lane hit rates (ossm_mine_kernel_total{outcome,lane}).
type KernelLane uint8

const (
	// LaneScalar is the generic fallback: the blocked row loop over
	// mixed-width generations, whose inner loop pays per-candidate
	// slice-header indirection. Uniform generations never land here.
	LaneScalar KernelLane = iota
	// LaneSmall is the per-candidate width-specialized uint32 column
	// kernels: the ≤crossover small-map dispatch, single decision
	// calls, and deep maps whose cells overflow the uint16 mirror.
	LaneSmall
	// LaneFlat32 is any lane over the uint32 segment-major rows: the
	// blocked uniform-k flat lane on maps without a uint16 mirror, the
	// extension loop likewise, and every decision of the pair wall
	// (BoundPairsAmong), which always scans every segment.
	LaneFlat32
	// LaneFlat16 is any lane over the quantized uint16 mirror: the
	// blocked flat lane at mid depth and the per-candidate deep lane.
	LaneFlat16

	numKernelLanes
)

// NumKernelLanes is the number of dispatch lanes (len of BatchStats.Lanes).
const NumKernelLanes = int(numKernelLanes)

// String returns the lane's metric label.
func (l KernelLane) String() string {
	switch l {
	case LaneScalar:
		return "scalar"
	case LaneSmall:
		return "small"
	case LaneFlat32:
		return "flat32"
	case LaneFlat16:
		return "flat16"
	}
	return "unknown"
}

// LaneStats counts the decisions one lane produced: Decided is every
// candidate the lane settled, EarlyExit/Abandoned the subset settled
// before the final segment (the remainder paid for a full scan).
type LaneStats struct {
	Decided   int64
	EarlyExit int64
	Abandoned int64
}

// BatchStats reports how a batch kernel call decided its candidates:
// EarlyExit candidates were admitted and Abandoned rejected before the
// final segment block; Lanes breaks every decision down by the dispatch
// lane that produced it.
type BatchStats struct {
	EarlyExit int64
	Abandoned int64
	Lanes     [NumKernelLanes]LaneStats
}

func (s *BatchStats) add(o BatchStats) {
	s.EarlyExit += o.EarlyExit
	s.Abandoned += o.Abandoned
	for i := range s.Lanes {
		s.Lanes[i].Decided += o.Lanes[i].Decided
		s.Lanes[i].EarlyExit += o.Lanes[i].EarlyExit
		s.Lanes[i].Abandoned += o.Lanes[i].Abandoned
	}
}

// note folds one decision outcome into the batch accounting.
func (s *BatchStats) note(o boundOutcome, lane KernelLane) {
	ls := &s.Lanes[lane]
	ls.Decided++
	switch o {
	case boundEarlyExit:
		s.EarlyExit++
		ls.EarlyExit++
	case boundAbandoned:
		s.Abandoned++
		ls.Abandoned++
	}
}

// Dispatch schedule. All three functions encode crossovers measured on
// the BENCH_5.json fixture shape (512 items, 1024-candidate
// generations, power-law cells, median-bound threshold) swept over
// 16→4096 segments × k∈{2..5}; EXPERIMENTS.md records the sweeps.

// blockSegsFor is the number of segments the blocked lanes stream
// between alive-list compactions. One block must be small enough that
// early decisions are caught promptly, but when the segment loop is
// long the compaction bookkeeping itself becomes the overhead: deep
// segmentations therefore run wider blocks (alive candidates thin out
// more slowly relative to the loop length, so fewer compaction points
// lose little early-abandon value while halving/quartering the
// bookkeeping passes). Measured: 16 wins through 256 segments, 32 at
// 512, 64 from 1024 up (128 is ~5% better for quads at 4096 but ~18%
// worse for quints — 64 is the safe deep plateau).
func blockSegsFor(ns int) int {
	switch {
	case ns >= 1024:
		return 64
	case ns >= 512:
		return 32
	}
	return 16
}

// smallCrossoverSegs is the segment count at or below which a
// generation of width-k candidates routes to the per-candidate small
// lane (per-segment abandon checks, no striding). Past it the strided
// deep column lanes win: the per-segment suffix load the small lane
// pays stops being cache-resident. The crossover shifts later as k
// grows — wider candidates amortize each abandon check over more
// column loads, so the small lane's eager checking stays profitable
// longer. Measured: pairs and triples flip at 32 segments, quads at
// ~36, quints at ~40.
func smallCrossoverSegs(k int) int {
	switch {
	case k <= 3:
		return 32
	case k == 4:
		return 36
	}
	return 40
}

// flatCrossoverSegs is the segment count at or above which a uniform
// generation of width ≥ flatCrossoverMinK routes to the blocked flat
// row lane instead of the per-candidate deep column lanes. Narrow
// candidates never benefit — a pair or triple touches 2–3 contiguous
// columns and the deep lane's register accumulator beats the row
// loop's acc-array traffic at every depth measured — but from k=4 up
// each cache-warm row feeds k column touches and the row loop pulls
// ahead once the matrix is far out of cache (measured: flat wins from
// 2048 segments for quads and quints, deep wins at 1024 and below).
const (
	flatCrossoverSegs = 2048
	flatCrossoverMinK = 4
)

// batchMixedCrossoverSegs is the small-map crossover of the mixed-width
// fallback loop, kept at the pre-dispatch constant.
const batchMixedCrossoverSegs = 64

// abandonStride is how many segments the deep per-candidate lanes
// accumulate between suffix-remainder checks. The early-exit compare is
// a register test and stays per-segment, but each abandon check streams
// one extra int64 suffix cell per member — on a 4096-segment map that
// is 8 bytes per member against 2 bytes of quantized column — so the
// deep lanes pay it every stride segments instead. Decisions are
// unchanged (the check is pure early termination); only the stop point
// moves by at most a stride.
const abandonStride = 16

// itemBases resolves each member's column base offset (item × stride)
// into buf, growing it only when too small.
func itemBases(x dataset.Itemset, stride int, buf []int) []int {
	if cap(buf) < len(x) {
		buf = make([]int, len(x))
	}
	buf = buf[:len(x)]
	for j, it := range x {
		buf[j] = int(it) * stride
	}
	return buf
}

// BoundAtLeast reports whether ubsup(x) ≥ minsup, returning exactly
// UpperBound(x) >= minsup while scanning only as many segments as the
// decision requires. Like UpperBound it panics on the empty itemset.
func (m *Map) BoundAtLeast(x dataset.Itemset, minsup int64) bool {
	ok, _, _ := m.boundAtLeast(x, minsup)
	return ok
}

// boundAtLeast is the single-candidate dispatch: width-specialized
// uint32 column kernels for small maps, the quantized deep lanes once
// the map is past the crossover and mirrors cleanly.
func (m *Map) boundAtLeast(x dataset.Itemset, minsup int64) (bool, boundOutcome, KernelLane) {
	switch len(x) {
	case 0:
		panic("core: BoundAtLeast of the empty itemset is not defined by the OSSM")
	case 1:
		return m.totals[x[0]] >= minsup, boundFull, LaneSmall
	case 2:
		return m.boundPairAtLeast(x[0], x[1], minsup)
	}
	if m.numSegs > smallCrossoverSegs(len(x)) {
		if q := m.quantized(); q != nil {
			if len(x) == 3 {
				ok, o := boundTripleDeep(m, q.itemMajor, x[0], x[1], x[2], minsup)
				return ok, o, LaneFlat16
			}
			var bb [16]int
			ok, o := boundKDeep(m, q.itemMajor, x, minsup, itemBases(x, m.numSegs, bb[:0]))
			return ok, o, LaneFlat16
		}
		if len(x) == 3 {
			ok, o := boundTripleDeep(m, m.itemMajor, x[0], x[1], x[2], minsup)
			return ok, o, LaneSmall
		}
		var bb [16]int
		ok, o := boundKDeep(m, m.itemMajor, x, minsup, itemBases(x, m.numSegs, bb[:0]))
		return ok, o, LaneSmall
	}
	if len(x) == 3 {
		ok, o := m.boundTripleSmall(x[0], x[1], x[2], minsup)
		return ok, o, LaneSmall
	}
	ok, o := m.boundKSmall(x, minsup)
	return ok, o, LaneSmall
}

// BoundPairAtLeast is BoundAtLeast for the 2-itemset {a, b}.
func (m *Map) BoundPairAtLeast(a, b dataset.Item, minsup int64) bool {
	ok, _, _ := m.boundPairAtLeast(a, b, minsup)
	return ok
}

func (m *Map) boundPairAtLeast(a, b dataset.Item, minsup int64) (bool, boundOutcome, KernelLane) {
	if m.numSegs > smallCrossoverSegs(2) {
		if q := m.quantized(); q != nil {
			ok, o := boundPairDeep(m, q.itemMajor, a, b, minsup)
			return ok, o, LaneFlat16
		}
		ok, o := boundPairDeep(m, m.itemMajor, a, b, minsup)
		return ok, o, LaneSmall
	}
	ok, o := m.boundPairSmall(a, b, minsup)
	return ok, o, LaneSmall
}

// boundPairSmall is the small-map pair kernel: direct uint32 column
// slices, both shortcuts checked every segment (on a short segment loop
// the suffix column is cache-resident, so the per-segment abandon check
// is nearly free and catches rejections at the earliest possible
// point).
func (m *Map) boundPairSmall(a, b dataset.Item, minsup int64) (bool, boundOutcome) {
	ns := m.numSegs
	colA := m.itemMajor[int(a)*ns : int(a)*ns+ns]
	colB := m.itemMajor[int(b)*ns : int(b)*ns+ns]
	sufA := m.suffix[int(a)*(ns+1) : int(a)*(ns+1)+ns+1]
	sufB := m.suffix[int(b)*(ns+1) : int(b)*(ns+1)+ns+1]
	last := ns - 1
	var acc int64
	for s := 0; s < ns; s++ {
		ca := colA[s]
		if cb := colB[s]; cb < ca {
			ca = cb
		}
		acc += int64(ca)
		if acc >= minsup {
			if s < last {
				return true, boundEarlyExit
			}
			return true, boundFull
		}
		rem := sufA[s+1]
		if r := sufB[s+1]; r < rem {
			rem = r
		}
		if acc+rem < minsup {
			if s < last {
				return false, boundAbandoned
			}
			return false, boundFull
		}
	}
	return acc >= minsup, boundFull
}

// boundTripleSmall is boundPairSmall for the 3-itemset {a, b, c}.
func (m *Map) boundTripleSmall(a, b, c dataset.Item, minsup int64) (bool, boundOutcome) {
	ns := m.numSegs
	colA := m.itemMajor[int(a)*ns : int(a)*ns+ns]
	colB := m.itemMajor[int(b)*ns : int(b)*ns+ns]
	colC := m.itemMajor[int(c)*ns : int(c)*ns+ns]
	sufA := m.suffix[int(a)*(ns+1) : int(a)*(ns+1)+ns+1]
	sufB := m.suffix[int(b)*(ns+1) : int(b)*(ns+1)+ns+1]
	sufC := m.suffix[int(c)*(ns+1) : int(c)*(ns+1)+ns+1]
	last := ns - 1
	var acc int64
	for s := 0; s < ns; s++ {
		ca := colA[s]
		if cb := colB[s]; cb < ca {
			ca = cb
		}
		if cc := colC[s]; cc < ca {
			ca = cc
		}
		acc += int64(ca)
		if acc >= minsup {
			if s < last {
				return true, boundEarlyExit
			}
			return true, boundFull
		}
		rem := sufA[s+1]
		if r := sufB[s+1]; r < rem {
			rem = r
		}
		if r := sufC[s+1]; r < rem {
			rem = r
		}
		if acc+rem < minsup {
			if s < last {
				return false, boundAbandoned
			}
			return false, boundFull
		}
	}
	return acc >= minsup, boundFull
}

// boundKSmall generalizes the small per-candidate lane to arbitrary
// width: member column bases are resolved once, so the inner loop is
// flat array indexing with no per-member slice headers or offset
// multiplies — the lane that keeps k≥4 pass pruning off the generic
// row path on small maps.
func (m *Map) boundKSmall(x dataset.Itemset, minsup int64) (bool, boundOutcome) {
	ns := m.numSegs
	var bb [16]int
	bases := itemBases(x, ns, bb[:0])
	im, suf := m.itemMajor, m.suffix
	last := ns - 1
	var acc int64
	for s := 0; s < ns; s++ {
		minC := im[bases[0]+s]
		for _, b := range bases[1:] {
			if c := im[b+s]; c < minC {
				minC = c
			}
		}
		acc += int64(minC)
		if acc >= minsup {
			if s < last {
				return true, boundEarlyExit
			}
			return true, boundFull
		}
		// suffix rows are (ns+1)-strided: member j's base is its column
		// base plus j's item index.
		rem := suf[bases[0]+int(x[0])+s+1]
		for j := 1; j < len(x); j++ {
			if r := suf[bases[j]+int(x[j])+s+1]; r < rem {
				rem = r
			}
		}
		if acc+rem < minsup {
			if s < last {
				return false, boundAbandoned
			}
			return false, boundFull
		}
	}
	return acc >= minsup, boundFull
}

// boundPairDeep is the deep per-candidate pair lane: contiguous column
// streams of cell type C (the uint16 mirror in the common case), the
// early-exit compare per segment, the abandon check per stride.
func boundPairDeep[C cells](m *Map, im []C, a, b dataset.Item, minsup int64) (bool, boundOutcome) {
	ns := m.numSegs
	colA := im[int(a)*ns : int(a)*ns+ns]
	colB := im[int(b)*ns : int(b)*ns+ns]
	sufA := m.suffix[int(a)*(ns+1) : int(a)*(ns+1)+ns+1]
	sufB := m.suffix[int(b)*(ns+1) : int(b)*(ns+1)+ns+1]
	last := ns - 1
	var acc int64
	for start := 0; start < ns; start += abandonStride {
		end := min(start+abandonStride, ns)
		for s := start; s < end; s++ {
			ca := colA[s]
			if cb := colB[s]; cb < ca {
				ca = cb
			}
			acc += int64(ca)
			if acc >= minsup {
				if s < last {
					return true, boundEarlyExit
				}
				return true, boundFull
			}
		}
		if end < ns {
			rem := sufA[end]
			if r := sufB[end]; r < rem {
				rem = r
			}
			if acc+rem < minsup {
				return false, boundAbandoned
			}
		}
	}
	return false, boundFull
}

// boundTripleDeep is boundPairDeep for 3-itemsets.
func boundTripleDeep[C cells](m *Map, im []C, a, b, c dataset.Item, minsup int64) (bool, boundOutcome) {
	ns := m.numSegs
	colA := im[int(a)*ns : int(a)*ns+ns]
	colB := im[int(b)*ns : int(b)*ns+ns]
	colC := im[int(c)*ns : int(c)*ns+ns]
	sufA := m.suffix[int(a)*(ns+1) : int(a)*(ns+1)+ns+1]
	sufB := m.suffix[int(b)*(ns+1) : int(b)*(ns+1)+ns+1]
	sufC := m.suffix[int(c)*(ns+1) : int(c)*(ns+1)+ns+1]
	last := ns - 1
	var acc int64
	for start := 0; start < ns; start += abandonStride {
		end := min(start+abandonStride, ns)
		for s := start; s < end; s++ {
			ca := colA[s]
			if cb := colB[s]; cb < ca {
				ca = cb
			}
			if cc := colC[s]; cc < ca {
				ca = cc
			}
			acc += int64(ca)
			if acc >= minsup {
				if s < last {
					return true, boundEarlyExit
				}
				return true, boundFull
			}
		}
		if end < ns {
			rem := sufA[end]
			if r := sufB[end]; r < rem {
				rem = r
			}
			if r := sufC[end]; r < rem {
				rem = r
			}
			if acc+rem < minsup {
				return false, boundAbandoned
			}
		}
	}
	return false, boundFull
}

// boundKDeep is the deep per-candidate lane for arbitrary width; bases
// must hold the members' column base offsets (itemBases with stride
// ns).
func boundKDeep[C cells](m *Map, im []C, x dataset.Itemset, minsup int64, bases []int) (bool, boundOutcome) {
	ns := m.numSegs
	suf := m.suffix
	last := ns - 1
	var acc int64
	for start := 0; start < ns; start += abandonStride {
		end := min(start+abandonStride, ns)
		for s := start; s < end; s++ {
			minC := im[bases[0]+s]
			for _, b := range bases[1:] {
				if c := im[b+s]; c < minC {
					minC = c
				}
			}
			acc += int64(minC)
			if acc >= minsup {
				if s < last {
					return true, boundEarlyExit
				}
				return true, boundFull
			}
		}
		if end < ns {
			rem := suf[bases[0]+int(x[0])+end]
			for j := 1; j < len(x); j++ {
				if r := suf[bases[j]+int(x[j])+end]; r < rem {
					rem = r
				}
			}
			if acc+rem < minsup {
				return false, boundAbandoned
			}
		}
	}
	return false, boundFull
}

// boundBatchSmall is the small-map lane of the batch front-end: one
// width-specialized decision-kernel call per candidate, no scratch, no
// blocking.
func (m *Map) boundBatchSmall(cands []dataset.Itemset, minsup int64, decisions []bool) BatchStats {
	var st BatchStats
	for ci, x := range cands {
		var ok bool
		var o boundOutcome
		switch len(x) {
		case 1:
			ok, o = m.totals[x[0]] >= minsup, boundFull
		case 2:
			ok, o = m.boundPairSmall(x[0], x[1], minsup)
		case 3:
			ok, o = m.boundTripleSmall(x[0], x[1], x[2], minsup)
		default:
			ok, o = m.boundKSmall(x, minsup)
		}
		decisions[ci] = ok
		st.note(o, LaneSmall)
	}
	return st
}

// boundBatchDeep drives the per-candidate deep lanes over one uniform-k
// generation.
func boundBatchDeep[C cells](m *Map, im []C, cands []dataset.Itemset, k int, minsup int64, decisions []bool, lane KernelLane) BatchStats {
	var st BatchStats
	var bb [16]int
	for ci, x := range cands {
		var ok bool
		var o boundOutcome
		switch k {
		case 2:
			ok, o = boundPairDeep(m, im, x[0], x[1], minsup)
		case 3:
			ok, o = boundTripleDeep(m, im, x[0], x[1], x[2], minsup)
		default:
			ok, o = boundKDeep(m, im, x, minsup, itemBases(x, m.numSegs, bb[:0]))
		}
		decisions[ci] = ok
		st.note(o, lane)
	}
	return st
}

// batchScratch is the pooled per-call working set of the batch kernels.
type batchScratch struct {
	acc     []int64
	alive   []int32
	flat    []dataset.Item
	prefMin []uint32
	prefSuf []int64
	pos     []int32
	cnt     []uint32
}

var batchPool = sync.Pool{New: func() any { return new(batchScratch) }}

func (sc *batchScratch) accFor(n int) []int64 {
	if cap(sc.acc) < n {
		sc.acc = make([]int64, n)
	}
	acc := sc.acc[:n]
	for i := range acc {
		acc[i] = 0
	}
	return acc
}

func (sc *batchScratch) aliveFor(n int) []int32 {
	if cap(sc.alive) < n {
		sc.alive = make([]int32, 0, n)
	}
	return sc.alive[:0]
}

// flatFor returns the candidate-major member lane: slot ci·k+j holds
// candidate ci's j-th member.
func (sc *batchScratch) flatFor(n int) []dataset.Item {
	if cap(sc.flat) < n {
		sc.flat = make([]dataset.Item, n)
	}
	return sc.flat[:n]
}

// BoundBatch decides a whole generation of candidates at once, writing
// decisions[i] = (ubsup(cands[i]) ≥ minsup). Uniform-length generations
// — the shape every level-wise pass produces, at any k — dispatch
// across the size-scheduled lanes (per-candidate column kernels under
// the per-kind crossover, blocked flat row lanes at mid depth, deep
// quantized column lanes past the deep crossover); mixed-width
// generations take the generic blocked fallback. decisions must have
// len(cands) entries; every decision is bit-identical to
// UpperBound(cands[i]) >= minsup.
func (m *Map) BoundBatch(cands []dataset.Itemset, minsup int64, decisions []bool) BatchStats {
	var st BatchStats
	if len(cands) == 0 {
		return st
	}
	if len(decisions) < len(cands) {
		panic("core: BoundBatch needs one decision slot per candidate")
	}
	uni := len(cands[0])
	for _, x := range cands {
		if len(x) == 0 {
			panic("core: BoundBatch of the empty itemset is not defined by the OSSM")
		}
		if len(x) != uni {
			uni = -1
		}
	}
	ns := m.numSegs
	if uni == 1 {
		for ci, x := range cands {
			decisions[ci] = m.totals[x[0]] >= minsup
		}
		st.Lanes[LaneSmall].Decided = int64(len(cands))
		return st
	}
	if uni < 0 {
		if ns <= batchMixedCrossoverSegs {
			return m.boundBatchSmall(cands, minsup, decisions)
		}
		return m.boundBatchMixed(cands, minsup, decisions)
	}
	if ns <= smallCrossoverSegs(uni) {
		return m.boundBatchSmall(cands, minsup, decisions)
	}
	q := m.quantized()
	if uni >= flatCrossoverMinK && ns >= flatCrossoverSegs {
		sc := batchPool.Get().(*batchScratch)
		defer batchPool.Put(sc)
		flat := sc.flatFor(len(cands) * uni)
		for ci, x := range cands {
			copy(flat[ci*uni:ci*uni+uni], x)
		}
		if q != nil {
			return boundFlatBlocked(m, q.segMajor, sc, flat, uni, minsup, decisions, LaneFlat16)
		}
		return boundFlatBlocked(m, m.segMajor, sc, flat, uni, minsup, decisions, LaneFlat32)
	}
	if q != nil {
		return boundBatchDeep(m, q.itemMajor, cands, uni, minsup, decisions, LaneFlat16)
	}
	// Cells overflow the mirror: the strided per-candidate uint32
	// column lane (the per-index fallback) still beats the blocked row
	// loop at these depths.
	return boundBatchDeep(m, m.itemMajor, cands, uni, minsup, decisions, LaneSmall)
}

// boundFlatBlocked is BoundBatch's blocked uniform-k flat lane (k ≥
// flatCrossoverMinK): candidate ci's members are flat[ci·k : ci·k+k],
// every inner-loop load is a direct array index, and the block length
// follows the depth schedule.
func boundFlatBlocked[C cells](m *Map, rows []C, sc *batchScratch, flat []dataset.Item, k int, minsup int64, decisions []bool, lane KernelLane) BatchStats {
	var st BatchStats
	n := len(flat) / k
	acc := sc.accFor(n)
	alive := sc.aliveFor(n)
	for ci := 0; ci < n; ci++ {
		alive = append(alive, int32(ci))
	}
	ns, items := m.numSegs, m.numItems
	block := blockSegsFor(ns)
	for blockStart := 0; blockStart < ns && len(alive) > 0; blockStart += block {
		blockEnd := min(blockStart+block, ns)
		for s := blockStart; s < blockEnd; s++ {
			row := rows[s*items : (s+1)*items]
			for _, ci := range alive {
				members := flat[int(ci)*k : int(ci)*k+k]
				minC := row[members[0]]
				for _, it := range members[1:] {
					if c := row[it]; c < minC {
						minC = c
					}
				}
				acc[ci] += int64(minC)
			}
		}
		final := blockEnd == ns
		keep := alive[:0]
		for _, ci := range alive {
			a := acc[ci]
			if a >= minsup {
				decisions[ci] = true
				if final {
					st.note(boundFull, lane)
				} else {
					st.note(boundEarlyExit, lane)
				}
				continue
			}
			if final {
				decisions[ci] = false
				st.note(boundFull, lane)
				continue
			}
			members := flat[int(ci)*k : int(ci)*k+k]
			rem := m.suffix[int(members[0])*(ns+1)+blockEnd]
			for _, it := range members[1:] {
				if r := m.suffix[int(it)*(ns+1)+blockEnd]; r < rem {
					rem = r
				}
			}
			if a+rem < minsup {
				decisions[ci] = false
				st.note(boundAbandoned, lane)
				continue
			}
			keep = append(keep, ci)
		}
		alive = keep
	}
	sc.alive = alive
	return st
}

// boundBatchMixed is the generic fallback for mixed-width generations:
// the blocked row loop with per-candidate slice indirection (the scalar
// lane). Miners never produce this shape on the pass path; ad-hoc query
// batches can.
func (m *Map) boundBatchMixed(cands []dataset.Itemset, minsup int64, decisions []bool) BatchStats {
	var st BatchStats
	sc := batchPool.Get().(*batchScratch)
	defer batchPool.Put(sc)
	acc := sc.accFor(len(cands))
	alive := sc.aliveFor(len(cands))
	for ci, x := range cands {
		if len(x) == 1 {
			decisions[ci] = m.totals[x[0]] >= minsup
			st.Lanes[LaneSmall].Decided++
		} else {
			alive = append(alive, int32(ci))
		}
	}
	ns, k := m.numSegs, m.numItems
	block := blockSegsFor(ns)
	for blockStart := 0; blockStart < ns && len(alive) > 0; blockStart += block {
		blockEnd := min(blockStart+block, ns)
		for s := blockStart; s < blockEnd; s++ {
			row := m.segMajor[s*k : (s+1)*k]
			for _, ci := range alive {
				x := cands[ci]
				minC := row[x[0]]
				for _, it := range x[1:] {
					if c := row[it]; c < minC {
						minC = c
					}
				}
				acc[ci] += int64(minC)
			}
		}
		final := blockEnd == ns
		keep := alive[:0]
		for _, ci := range alive {
			a := acc[ci]
			if a >= minsup {
				decisions[ci] = true
				if final {
					st.note(boundFull, LaneScalar)
				} else {
					st.note(boundEarlyExit, LaneScalar)
				}
				continue
			}
			if final {
				decisions[ci] = false
				st.note(boundFull, LaneScalar)
				continue
			}
			x := cands[ci]
			rem := m.suffix[int(x[0])*(ns+1)+blockEnd]
			for _, it := range x[1:] {
				if r := m.suffix[int(it)*(ns+1)+blockEnd]; r < rem {
					rem = r
				}
			}
			if a+rem < minsup {
				decisions[ci] = false
				st.note(boundAbandoned, LaneScalar)
				continue
			}
			keep = append(keep, ci)
		}
		alive = keep
	}
	sc.alive = alive
	return st
}

// upperBoundStream is the exact-value row loop shared by both cell
// types: no early termination, every alive candidate accumulates until
// the final segment.
func upperBoundStream[C cells](m *Map, rows []C, cands []dataset.Itemset, alive []int32, out []int64) {
	ns, k := m.numSegs, m.numItems
	for s := 0; s < ns && len(alive) > 0; s++ {
		row := rows[s*k : (s+1)*k]
		for _, ci := range alive {
			x := cands[ci]
			minC := row[x[0]]
			for _, it := range x[1:] {
				if c := row[it]; c < minC {
					minC = c
				}
			}
			out[ci] += int64(minC)
		}
	}
}

// UpperBoundBatch computes the exact bound ubsup(cands[i]) for every
// candidate with the same row-amortized loop as the blocked lanes but
// no early termination (callers want the values, not a decision),
// streaming the quantized rows when the mirror is available. If out is
// too small a fresh slice is allocated; the filled slice is returned.
// Each value is bit-identical to UpperBound(cands[i]).
func (m *Map) UpperBoundBatch(cands []dataset.Itemset, out []int64) []int64 {
	if cap(out) < len(cands) {
		out = make([]int64, len(cands))
	}
	out = out[:len(cands)]
	// Size dispatch, as in BoundBatch: under the crossover the
	// column-major scalar scan beats the row loop, and shard sub-maps
	// (internal/shard) land here routinely.
	if m.numSegs <= batchMixedCrossoverSegs {
		for ci, x := range cands {
			out[ci] = m.UpperBound(x)
		}
		return out
	}
	sc := batchPool.Get().(*batchScratch)
	defer batchPool.Put(sc)
	alive := sc.aliveFor(len(cands))
	for ci, x := range cands {
		switch len(x) {
		case 0:
			panic("core: UpperBoundBatch of the empty itemset is not defined by the OSSM")
		case 1:
			out[ci] = m.totals[x[0]]
		default:
			out[ci] = 0
			alive = append(alive, int32(ci))
		}
	}
	if q := m.quantized(); q != nil {
		upperBoundStream(m, q.segMajor, cands, alive, out)
	} else {
		upperBoundStream(m, m.segMajor, cands, alive, out)
	}
	sc.alive = alive
	return out
}

// BoundPairsAmong decides every 2-subset {items[i], items[j]}, i < j, of
// a frequent-1 generation — the candidate-2 wall. Decisions are written
// in the same order a nested i-outer/j-inner loop visits the pairs
// (PairIndex gives the mapping); decisions must have
// len(items)·(len(items)−1)/2 entries.
//
// The wall is decided segment by segment rather than pair by pair: the
// triangular-array pass-2 count of Apriori, run over segments instead of
// transactions. Each segment-major row is read once; the generation's
// items present in it (non-zero cells) are gathered, and every present
// pair i < j adds min(c_i, c_j) into a triangular accumulator indexed
// like PairIndex. A pair absent from a segment contributes 0 there, so
// the accumulator ends at exactly ubsup and each decision is acc ≥
// minsup. The cost is Σ_s C(nz_s, 2), nz_s being the number of the
// generation's items present in segment s, instead of pairs × segments
// column loads — on sparse rows a small fraction of it. Every pair is
// scanned in full, so all decisions report boundFull under LaneFlat32.
func (m *Map) BoundPairsAmong(items []dataset.Item, minsup int64, decisions []bool) BatchStats {
	var st BatchStats
	n := len(items)
	numPairs := n * (n - 1) / 2
	if numPairs == 0 {
		return st
	}
	if len(decisions) < numPairs {
		panic("core: BoundPairsAmong needs one decision slot per pair")
	}
	sc := batchPool.Get().(*batchScratch)
	defer batchPool.Put(sc)
	acc := sc.accFor(numPairs)
	if cap(sc.pos) < n {
		sc.pos, sc.cnt = make([]int32, n), make([]uint32, n)
	}
	pos, cnt := sc.pos[:n], sc.cnt[:n]
	nk := m.numItems
	for s := 0; s < m.numSegs; s++ {
		row := m.segMajor[s*nk : (s+1)*nk]
		nz := 0
		for i, it := range items {
			if c := row[it]; c != 0 {
				pos[nz], cnt[nz] = int32(i), c
				nz++
			}
		}
		for a := 0; a < nz; a++ {
			// base + j is PairIndex(i, j, n) for every later position j.
			i := int(pos[a])
			ca, base := cnt[a], PairIndex(i, i+1, n)-i-1
			for b := a + 1; b < nz; b++ {
				c := cnt[b]
				if ca < c {
					c = ca
				}
				acc[base+int(pos[b])] += int64(c)
			}
		}
	}
	for p, a := range acc {
		decisions[p] = a >= minsup
	}
	st.Lanes[LaneFlat32].Decided = int64(numPairs)
	return st
}

// PairIndex maps the pair (items[i], items[j]), i < j, of an n-item
// generation to its position in BoundPairsAmong's decisions slice — the
// standard upper-triangular row-major index.
func PairIndex(i, j, n int) int {
	return i*(2*n-i-1)/2 + (j - i - 1)
}

// boundExtensionsStream is the blocked extension loop over either cell
// type: prefMin carries the prefix's per-segment minima (uint32 —
// widened comparison against the rows is free).
func boundExtensionsStream[C cells](m *Map, rows []C, sc *batchScratch, prefMin []uint32, prefSuf []int64, exts []dataset.Item, minsup int64, decisions []bool, lane KernelLane) BatchStats {
	var st BatchStats
	acc := sc.accFor(len(exts))
	alive := sc.aliveFor(len(exts))
	for e := range exts {
		alive = append(alive, int32(e))
	}
	ns, k := m.numSegs, m.numItems
	block := blockSegsFor(ns)
	for blockStart := 0; blockStart < ns && len(alive) > 0; blockStart += block {
		blockEnd := min(blockStart+block, ns)
		for s := blockStart; s < blockEnd; s++ {
			row := rows[s*k : (s+1)*k]
			pm := prefMin[s]
			for _, ei := range alive {
				c := uint32(row[exts[ei]])
				if pm < c {
					c = pm
				}
				acc[ei] += int64(c)
			}
		}
		final := blockEnd == ns
		keep := alive[:0]
		for _, ei := range alive {
			a := acc[ei]
			if a >= minsup {
				decisions[ei] = true
				if final {
					st.note(boundFull, lane)
				} else {
					st.note(boundEarlyExit, lane)
				}
				continue
			}
			if final {
				decisions[ei] = false
				st.note(boundFull, lane)
				continue
			}
			rem := prefSuf[blockEnd]
			if r := m.suffix[int(exts[ei])*(ns+1)+blockEnd]; r < rem {
				rem = r
			}
			if a+rem < minsup {
				decisions[ei] = false
				st.note(boundAbandoned, lane)
				continue
			}
			keep = append(keep, ei)
		}
		alive = keep
	}
	sc.alive = alive
	return st
}

// BoundExtensions decides every one-item extension prefix ∪ {exts[e]} of
// a shared prefix — the shape depth-first miners (Eclat, DepthProject)
// generate candidates in. The prefix's per-segment minima are computed
// once and shared across all extensions, so each extension costs one
// column touch per segment instead of a full itemset scan; decisions must
// have len(exts) entries. If the prefix is empty each extension is the
// singleton {exts[e]}, decided from the exact totals.
func (m *Map) BoundExtensions(prefix dataset.Itemset, exts []dataset.Item, minsup int64, decisions []bool) BatchStats {
	var st BatchStats
	if len(exts) == 0 {
		return st
	}
	if len(decisions) < len(exts) {
		panic("core: BoundExtensions needs one decision slot per extension")
	}
	if len(prefix) == 0 {
		for e, it := range exts {
			decisions[e] = m.totals[it] >= minsup
		}
		st.Lanes[LaneSmall].Decided = int64(len(exts))
		return st
	}
	sc := batchPool.Get().(*batchScratch)
	defer batchPool.Put(sc)
	ns := m.numSegs
	// Per-segment minimum over the prefix items, and its suffix sums:
	// prefSuf[s] = Σ_{t≥s} prefMin[t] caps the prefix side of any
	// extension's remaining contribution.
	if cap(sc.prefMin) < ns {
		sc.prefMin = make([]uint32, ns)
	}
	if cap(sc.prefSuf) < ns+1 {
		sc.prefSuf = make([]int64, ns+1)
	}
	prefMin, prefSuf := sc.prefMin[:ns], sc.prefSuf[:ns+1]
	copy(prefMin, m.Column(prefix[0]))
	for _, it := range prefix[1:] {
		col := m.itemMajor[int(it)*ns : int(it)*ns+ns]
		for s, c := range col {
			if c < prefMin[s] {
				prefMin[s] = c
			}
		}
	}
	prefSuf[ns] = 0
	for s := ns - 1; s >= 0; s-- {
		prefSuf[s] = prefSuf[s+1] + int64(prefMin[s])
	}
	if q := m.quantized(); q != nil {
		return boundExtensionsStream(m, q.segMajor, sc, prefMin, prefSuf, exts, minsup, decisions, LaneFlat16)
	}
	return boundExtensionsStream(m, m.segMajor, sc, prefMin, prefSuf, exts, minsup, decisions, LaneFlat32)
}
