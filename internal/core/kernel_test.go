package core

import (
	"math"
	"math/rand"
	"testing"

	"github.com/ossm-mining/ossm/internal/dataset"
)

// The kernel contract (DESIGN.md §7): every decision kernel and every
// batch kernel agrees bit-for-bit with the pre-flat-store reference walk
// referenceUpperBound. The tests below check that contract on randomized
// maps, itemsets and thresholds, and across all five segmentation
// algorithms.

// checkKernelsAgainstReference drives every kernel over random queries
// against m and fails the test on the first disagreement with the
// reference oracle.
func checkKernelsAgainstReference(t *testing.T, r *rand.Rand, m *Map, trials int) {
	t.Helper()
	k := m.NumItems()
	maxT := int64(1)
	for _, tot := range m.Totals() {
		if tot > maxT {
			maxT = tot
		}
	}

	// Scalar paths: UpperBound, UpperBoundPair, BoundAtLeast.
	for trial := 0; trial < trials; trial++ {
		x := randomNonEmptyItemset(r, k)
		ref := m.referenceUpperBound(x)
		if got := m.UpperBound(x); got != ref {
			t.Fatalf("UpperBound(%v) = %d, reference %d", x, got, ref)
		}
		if len(x) == 2 {
			if got := m.UpperBoundPair(x[0], x[1]); got != ref {
				t.Fatalf("UpperBoundPair(%v) = %d, reference %d", x, got, ref)
			}
		}
		// Thresholds straddling the bound, plus random ones.
		for _, minsup := range []int64{0, 1, ref - 1, ref, ref + 1, 1 + r.Int63n(maxT+1)} {
			if got, want := m.BoundAtLeast(x, minsup), ref >= minsup; got != want {
				t.Fatalf("BoundAtLeast(%v, %d) = %v, reference bound %d", x, minsup, got, ref)
			}
			if len(x) == 2 {
				if got, want := m.BoundPairAtLeast(x[0], x[1], minsup), ref >= minsup; got != want {
					t.Fatalf("BoundPairAtLeast(%v, %d) = %v, reference bound %d", x, minsup, got, ref)
				}
			}
		}
	}

	// Batch paths: one generation of random candidates per threshold.
	// Even trials force a uniform itemset length (up to 5, so the k-item
	// flat and deep lanes are exercised past the pair/triple unrolls),
	// odd trials mix lengths for the generic lane.
	for trial := 0; trial < trials; trial++ {
		n := 1 + r.Intn(40)
		cands := make([]dataset.Itemset, n)
		uniform := 0
		if trial%2 == 0 {
			uniform = 1 + r.Intn(minInt(5, k))
		}
		for i := range cands {
			if uniform > 0 {
				cands[i] = randomItemsetOfLen(r, k, uniform)
			} else {
				cands[i] = randomNonEmptyItemset(r, k)
			}
		}
		minsup := 1 + r.Int63n(maxT+1)
		dec := make([]bool, n)
		st := m.BoundBatch(cands, minsup, dec)
		if st.EarlyExit+st.Abandoned > int64(n) {
			t.Fatalf("BoundBatch shortcut counts %+v exceed %d candidates", st, n)
		}
		checkLaneAccounting(t, st, int64(n), "BoundBatch")
		bounds := m.UpperBoundBatch(cands, nil)
		for i, x := range cands {
			ref := m.referenceUpperBound(x)
			if bounds[i] != ref {
				t.Fatalf("UpperBoundBatch[%d] = %d for %v, reference %d", i, bounds[i], x, ref)
			}
			if dec[i] != (ref >= minsup) {
				t.Fatalf("BoundBatch[%d] = %v for %v at %d, reference bound %d", i, dec[i], x, minsup, ref)
			}
		}
	}

	// Pair wall: the whole domain in ascending order on even trials,
	// random subsets in shuffled order on odd ones (pairs follow the
	// generation's positions, not the item ids).
	all := make([]dataset.Item, k)
	for i := range all {
		all[i] = dataset.Item(i)
	}
	for trial := 0; trial < trials; trial++ {
		items := all
		if trial%2 == 1 {
			items = randomItemOrder(r, k)
		}
		checkPairWall(t, m, items, 1+r.Int63n(maxT+1))
	}

	// Extension kernel: shared prefix, the depth-first miners' shape.
	for trial := 0; trial < trials; trial++ {
		prefix := dataset.Itemset{}
		if r.Intn(4) > 0 {
			prefix = randomNonEmptyItemset(r, k)
		}
		var exts []dataset.Item
		for it := dataset.Item(0); int(it) < k; it++ {
			if !prefix.Contains(it) && r.Intn(2) == 0 {
				exts = append(exts, it)
			}
		}
		if len(exts) == 0 {
			continue
		}
		minsup := 1 + r.Int63n(maxT+1)
		extDec := make([]bool, len(exts))
		extSt := m.BoundExtensions(prefix, exts, minsup, extDec)
		checkLaneAccounting(t, extSt, int64(len(exts)), "BoundExtensions")
		for e, it := range exts {
			cand := dataset.NewItemset(append(append([]dataset.Item{}, prefix...), it)...)
			ref := m.referenceUpperBound(cand)
			if extDec[e] != (ref >= minsup) {
				t.Fatalf("BoundExtensions(%v + %d) = %v at %d, reference bound %d", prefix, it, extDec[e], minsup, ref)
			}
		}
	}
}

// randomItemsetOfLen draws a uniformly random itemset of exactly want
// distinct items from a k-item domain.
func randomItemsetOfLen(r *rand.Rand, k, want int) dataset.Itemset {
	perm := r.Perm(k)[:want]
	items := make([]dataset.Item, want)
	for i, p := range perm {
		items[i] = dataset.Item(p)
	}
	return dataset.NewItemset(items...)
}

// randomItemOrder draws a random subset of a k-item domain, possibly
// empty, in shuffled order.
func randomItemOrder(r *rand.Rand, k int) []dataset.Item {
	perm := r.Perm(k)[:r.Intn(k+1)]
	items := make([]dataset.Item, len(perm))
	for i, p := range perm {
		items[i] = dataset.Item(p)
	}
	return items
}

// checkPairWall runs BoundPairsAmong over items and checks every
// decision against the reference bound, plus the lane accounting.
func checkPairWall(t *testing.T, m *Map, items []dataset.Item, minsup int64) {
	t.Helper()
	n := len(items)
	numPairs := n * (n - 1) / 2
	dec := make([]bool, numPairs)
	st := m.BoundPairsAmong(items, minsup, dec)
	if st.EarlyExit+st.Abandoned > int64(numPairs) {
		t.Fatalf("BoundPairsAmong shortcut counts %+v exceed %d pairs", st, numPairs)
	}
	checkLaneAccounting(t, st, int64(numPairs), "BoundPairsAmong")
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			ref := m.referenceUpperBound(dataset.NewItemset(items[i], items[j]))
			if got := dec[PairIndex(i, j, n)]; got != (ref >= minsup) {
				t.Fatalf("BoundPairsAmong pair (%d,%d) of %v = %v at %d, reference bound %d", items[i], items[j], items, got, minsup, ref)
			}
		}
	}
}

// checkLaneAccounting verifies the per-lane breakdown of a batch call:
// every candidate was decided by exactly one lane, and the per-lane
// shortcut counts sum to the top-level counters.
func checkLaneAccounting(t *testing.T, st BatchStats, decided int64, ctx string) {
	t.Helper()
	var d, ee, ab int64
	for _, ls := range st.Lanes {
		d += ls.Decided
		ee += ls.EarlyExit
		ab += ls.Abandoned
	}
	if d != decided {
		t.Fatalf("%s: lanes decided %d of %d candidates", ctx, d, decided)
	}
	if ee != st.EarlyExit || ab != st.Abandoned {
		t.Fatalf("%s: lane shortcut sums (%d, %d) disagree with totals (%d, %d)", ctx, ee, ab, st.EarlyExit, st.Abandoned)
	}
}

// TestKernelDifferentialAcrossSegmenters proves the equivalence
// guarantee on maps produced by all five segmentation algorithms, not
// just hand-built ones: the segmenter cannot produce a row layout the
// kernels mis-handle.
func TestKernelDifferentialAcrossSegmenters(t *testing.T) {
	algs := []Algorithm{AlgRandom, AlgRC, AlgGreedy, AlgRandomRC, AlgRandomGreedy}
	for _, alg := range algs {
		t.Run(alg.String(), func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(alg) + 7))
			for rep := 0; rep < 4; rep++ {
				d := randomDataset(r)
				mPages := 1 + r.Intn(d.NumTx())
				pages := dataset.PaginateN(d, mPages)
				rows := dataset.PageCounts(d, pages)
				target := 1 + r.Intn(mPages)
				res, err := Segment(rows, Options{
					Algorithm:      alg,
					TargetSegments: target,
					MidSegments:    mPages,
					Seed:           r.Int63(),
				})
				if err != nil {
					t.Fatal(err)
				}
				checkKernelsAgainstReference(t, r, res.Map, 8)
			}
		})
	}
}

// TestKernelDifferentialProperty hits many more map shapes (including
// multi-block maps whose segment count exceeds one 16-segment block)
// through random page→segment assignments.
func TestKernelDifferentialProperty(t *testing.T) {
	for seed := int64(0); seed < 120; seed++ {
		r := rand.New(rand.NewSource(seed))
		_, m := buildRandomSegmentation(r)
		checkKernelsAgainstReference(t, r, m, 6)
	}
}

// TestKernelMultiBlockShortcuts pins the shortcut machinery on a map
// wide enough that decisions can happen before the final block: a
// 64-segment map where one itemset early-exits in block 0 and another
// abandons in block 0.
func TestKernelMultiBlockShortcuts(t *testing.T) {
	const segs, k = 64, 4
	rows := make([][]uint32, segs)
	for s := range rows {
		rows[s] = make([]uint32, k)
		rows[s][0] = 100 // item 0: plentiful everywhere
		rows[s][1] = 100
		// items 2, 3 are empty everywhere: their pair abandons immediately.
	}
	m, err := NewMap(rows)
	if err != nil {
		t.Fatal(err)
	}
	hot := dataset.NewItemset(0, 1)
	cold := dataset.NewItemset(2, 3)
	// 64 segments is past the pair crossover and every cell fits the
	// mirror, so single decisions ride the quantized deep lane.
	if ok, out, lane := m.boundAtLeast(hot, 200); !ok || out != boundEarlyExit || lane != LaneFlat16 {
		t.Errorf("hot pair: ok=%v outcome=%d lane=%v, want flat16-lane early exit", ok, out, lane)
	}
	if ok, out, lane := m.boundAtLeast(cold, 1); ok || out != boundAbandoned || lane != LaneFlat16 {
		t.Errorf("cold pair: ok=%v outcome=%d lane=%v, want flat16-lane abandon", ok, out, lane)
	}
	dec := make([]bool, 2)
	st := m.BoundBatch([]dataset.Itemset{hot, cold}, 200, dec)
	if !dec[0] || dec[1] {
		t.Errorf("BoundBatch decisions = %v, want [true false]", dec)
	}
	if st.EarlyExit != 1 || st.Abandoned != 1 {
		t.Errorf("BoundBatch stats = %+v, want one early exit and one abandon", st)
	}
}

// TestPairWallDifferential drives the segment-accumulation pair wall
// over the shapes its cost depends on: mostly-zero, half-full and fully
// dense cells, segment counts on both sides of the per-candidate pair
// kernels' 32-segment crossover, the SegmentRange views shards query,
// and item subsets in shuffled order. Thresholds include a pair's exact
// bound and the next integer, so decisions flip inside every call.
func TestPairWallDifferential(t *testing.T) {
	const items = 24
	r := rand.New(rand.NewSource(13))
	for _, segs := range []int{1, 2, 31, 32, 33, 64, 400} {
		for _, density := range []float64{0.05, 0.5, 1} {
			rows := make([][]uint32, segs)
			for s := range rows {
				rows[s] = make([]uint32, items)
				for i := range rows[s] {
					if r.Float64() < density {
						rows[s][i] = 1 + uint32(r.Intn(200))
					}
				}
			}
			m, err := NewMap(rows)
			if err != nil {
				t.Fatal(err)
			}
			views := []*Map{m}
			if segs > 1 {
				lo := r.Intn(segs - 1)
				v, err := m.SegmentRange(lo, lo+1+r.Intn(segs-lo-1))
				if err != nil {
					t.Fatal(err)
				}
				views = append(views, v)
			}
			for _, v := range views {
				for trial := 0; trial < 4; trial++ {
					order := randomItemOrder(r, items)
					thresholds := []int64{0, 1, 1 + r.Int63n(200*int64(v.NumSegments())+1)}
					if len(order) >= 2 {
						ref := v.referenceUpperBound(dataset.NewItemset(order[0], order[len(order)-1]))
						thresholds = append(thresholds, ref, ref+1)
					}
					for _, minsup := range thresholds {
						checkPairWall(t, v, order, minsup)
					}
				}
			}
		}
	}
}

// TestPairWallWideBounds pins the pair wall's accumulator width on a
// hand-built map whose pair bound, 2·MaxUint32, would wrap a 32-bit sum.
func TestPairWallWideBounds(t *testing.T) {
	const max32 = math.MaxUint32
	m, err := NewMap([][]uint32{{max32, max32, 7}, {max32, max32, 0}})
	if err != nil {
		t.Fatal(err)
	}
	const bound = 2 * max32
	if ref := m.referenceUpperBound(dataset.NewItemset(0, 1)); ref != bound {
		t.Fatalf("reference bound of {0,1} = %d, want %d", ref, int64(bound))
	}
	for _, order := range [][]dataset.Item{{0, 1, 2}, {2, 1, 0}, {1, 0}} {
		for _, minsup := range []int64{1, 7, 8, max32, bound - 1, bound, bound + 1} {
			checkPairWall(t, m, order, minsup)
		}
	}
}
