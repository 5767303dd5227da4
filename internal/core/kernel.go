package core

import (
	"sync"

	"github.com/ossm-mining/ossm/internal/dataset"
)

// Bound kernels (DESIGN.md §7). The scalar UpperBound walk answers "what
// is ubsup(X)?", but every caller on the mining hot path only asks the
// cheaper decision question "is ubsup(X) ≥ minsup?". One per-candidate
// column kernel answers it while scanning as few segments as possible,
// with two symmetric shortcuts that both preserve bit-identical
// decisions with the exact bound:
//
//   - early exit: the bound is a sum of non-negative per-segment terms,
//     so once the accumulated partial sum reaches minsup the full bound
//     cannot be smaller — admit without scanning further. Checked every
//     segment: it is a register compare.
//   - early abandon: the remaining contribution of segments t ≥ s is at
//     most min_{x∈X} suffix[x][s] (the precomputed per-item suffix
//     remainders, see Map), so when acc + remainder < minsup the full
//     bound cannot reach minsup — reject without scanning further.
//     Checked every abandonStride segments: each check loads one suffix
//     cell per member.
//
// The kernel walks the members' contiguous uint32 item-major columns,
// with a pair unroll, a triple unroll and a generic-k loop. Single
// decisions, whole generations (BoundBatch, any mix of widths) and
// shared-prefix extensions (BoundExtensions) all run it.
//
// The candidate-2 wall (BoundPairsAmong) takes neither shortcut: it runs
// one segment-by-segment accumulation over the uint32 rows, touching only
// the pairs both of whose items are present in a segment. On the sparse
// rows of deep segmentations that is far less work than a per-pair scan;
// on fully dense rows it is about the same.

// boundOutcome records how a decision-mode bound call terminated.
type boundOutcome uint8

const (
	boundFull      boundOutcome = iota // scanned every segment (or decided from totals)
	boundEarlyExit                     // admitted before the final segment
	boundAbandoned                     // rejected before the final segment
)

// admitAt is the outcome of an admission at segment s of ns.
func admitAt(s, ns int) boundOutcome {
	if s < ns-1 {
		return boundEarlyExit
	}
	return boundFull
}

// BatchStats reports how a batch kernel call decided its candidates:
// EarlyExit candidates were admitted and Abandoned rejected before the
// final segment; the rest paid for a full scan.
type BatchStats struct {
	EarlyExit int64
	Abandoned int64
}

// note folds one decision outcome into the batch accounting.
func (s *BatchStats) note(o boundOutcome) {
	switch o {
	case boundEarlyExit:
		s.EarlyExit++
	case boundAbandoned:
		s.Abandoned++
	}
}

// abandonStride is how many segments the kernel accumulates between
// suffix-remainder checks. Decisions do not depend on it (the check is
// pure early termination); only the stop point moves, by at most a
// stride. Swept over 1, 4, 8 and 16 at 16→4096 segments, 8 was never
// worse than the others beyond noise, and unlike 16 it still abandons
// on 16-segment maps.
const abandonStride = 8

// suffixOf is item x's suffix-remainder row: ns+1 cells, the last 0.
func (m *Map) suffixOf(x dataset.Item) []int64 {
	lo, hi := int(x)*(m.numSegs+1), (int(x)+1)*(m.numSegs+1)
	return m.suffix[lo:hi:hi]
}

// BoundAtLeast reports whether ubsup(x) ≥ minsup, returning exactly
// UpperBound(x) >= minsup while scanning only as many segments as the
// decision requires. Like UpperBound it panics on the empty itemset.
func (m *Map) BoundAtLeast(x dataset.Itemset, minsup int64) bool {
	ok, _ := m.boundAtLeast(x, minsup)
	return ok
}

// boundAtLeast dispatches one decision by width.
func (m *Map) boundAtLeast(x dataset.Itemset, minsup int64) (bool, boundOutcome) {
	switch len(x) {
	case 0:
		panic("core: BoundAtLeast of the empty itemset is not defined by the OSSM")
	case 1:
		return m.totals[x[0]] >= minsup, boundFull
	case 2:
		return m.boundPairAtLeast(x[0], x[1], minsup)
	case 3:
		return m.boundTripleAtLeast(x[0], x[1], x[2], minsup)
	}
	return m.boundKAtLeast(x, minsup)
}

// BoundPairAtLeast is BoundAtLeast for the 2-itemset {a, b}.
func (m *Map) BoundPairAtLeast(a, b dataset.Item, minsup int64) bool {
	ok, _ := m.boundPairAtLeast(a, b, minsup)
	return ok
}

func (m *Map) boundPairAtLeast(a, b dataset.Item, minsup int64) (bool, boundOutcome) {
	return boundColumnPair(m.Column(a), m.Column(b), m.suffixOf(a), m.suffixOf(b), minsup)
}

// boundColumnPair is the pair kernel over two columns of per-segment
// counts and their suffix remainders (len(sufA) = len(sufB) =
// len(colA)+1). Pair decisions pass two item columns; BoundExtensions
// passes a prefix's per-segment minima and an extension's column.
func boundColumnPair(colA, colB []uint32, sufA, sufB []int64, minsup int64) (bool, boundOutcome) {
	ns := len(colA)
	colB = colB[:ns]
	var acc int64
	for start := 0; start < ns; start += abandonStride {
		end := min(start+abandonStride, ns)
		for s := start; s < end; s++ {
			c := colA[s]
			if cb := colB[s]; cb < c {
				c = cb
			}
			acc += int64(c)
			if acc >= minsup {
				return true, admitAt(s, ns)
			}
		}
		if end < ns && acc+min(sufA[end], sufB[end]) < minsup {
			return false, boundAbandoned
		}
	}
	return false, boundFull
}

// boundTripleAtLeast is the pair kernel unrolled for {a, b, c}.
func (m *Map) boundTripleAtLeast(a, b, c dataset.Item, minsup int64) (bool, boundOutcome) {
	ns := m.numSegs
	colA, colB, colC := m.Column(a), m.Column(b), m.Column(c)
	sufA, sufB, sufC := m.suffixOf(a), m.suffixOf(b), m.suffixOf(c)
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
				return true, admitAt(s, ns)
			}
		}
		if end < ns && acc+min(sufA[end], sufB[end], sufC[end]) < minsup {
			return false, boundAbandoned
		}
	}
	return false, boundFull
}

// boundKAtLeast is the kernel for any width: member column bases are
// resolved once, so the inner loop is flat array indexing with no
// per-member slice headers or offset multiplies.
func (m *Map) boundKAtLeast(x dataset.Itemset, minsup int64) (bool, boundOutcome) {
	ns := m.numSegs
	var bb [16]int
	bases := bb[:0]
	for _, it := range x {
		bases = append(bases, int(it)*ns)
	}
	im, suf := m.itemMajor, m.suffix
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
				return true, admitAt(s, ns)
			}
		}
		if end < ns {
			// suffix rows are (ns+1)-strided: member j's base is its
			// column base plus its item index.
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

// BoundBatch decides a whole generation of candidates, of any mix of
// widths, writing decisions[i] = (ubsup(cands[i]) ≥ minsup). decisions
// must have len(cands) entries; every decision is bit-identical to
// UpperBound(cands[i]) >= minsup.
func (m *Map) BoundBatch(cands []dataset.Itemset, minsup int64, decisions []bool) BatchStats {
	var st BatchStats
	if len(decisions) < len(cands) {
		panic("core: BoundBatch needs one decision slot per candidate")
	}
	for ci, x := range cands {
		ok, o := m.boundAtLeast(x, minsup)
		decisions[ci] = ok
		st.note(o)
	}
	return st
}

// UpperBoundBatch computes the exact bound ubsup(cands[i]) for every
// candidate — UpperBound per candidate, with no early termination
// (callers want the values, not a decision). If out is too small a fresh
// slice is allocated; the filled slice is returned.
func (m *Map) UpperBoundBatch(cands []dataset.Itemset, out []int64) []int64 {
	if cap(out) < len(cands) {
		out = make([]int64, len(cands))
	}
	out = out[:len(cands)]
	for ci, x := range cands {
		out[ci] = m.UpperBound(x)
	}
	return out
}

// batchScratch is the pooled per-call working set of the pair wall and
// the extension kernel.
type batchScratch struct {
	acc     []int64
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
// scanned in full, so the returned stats are always zero.
func (m *Map) BoundPairsAmong(items []dataset.Item, minsup int64, decisions []bool) BatchStats {
	n := len(items)
	numPairs := n * (n - 1) / 2
	if numPairs == 0 {
		return BatchStats{}
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
	return BatchStats{}
}

// PairIndex maps the pair (items[i], items[j]), i < j, of an n-item
// generation to its position in BoundPairsAmong's decisions slice — the
// standard upper-triangular row-major index.
func PairIndex(i, j, n int) int {
	return i*(2*n-i-1)/2 + (j - i - 1)
}

// BoundExtensions decides every one-item extension prefix ∪ {exts[e]} of
// a shared prefix — the shape depth-first miners (Eclat, DepthProject)
// generate candidates in. The prefix's per-segment minima and their
// suffix sums are computed once and shared, so each extension runs the
// pair kernel against one column instead of a full itemset scan;
// decisions must have len(exts) entries. If the prefix is empty each
// extension is the singleton {exts[e]}, decided from the exact totals.
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
		for s, c := range m.Column(it) {
			if c < prefMin[s] {
				prefMin[s] = c
			}
		}
	}
	prefSuf[ns] = 0
	for s := ns - 1; s >= 0; s-- {
		prefSuf[s] = prefSuf[s+1] + int64(prefMin[s])
	}
	for e, it := range exts {
		ok, o := boundColumnPair(prefMin, m.Column(it), prefSuf, m.suffixOf(it), minsup)
		decisions[e] = ok
		st.note(o)
	}
	return st
}
