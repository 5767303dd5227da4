package core

import (
	"math/rand"
	"testing"

	"github.com/ossm-mining/ossm/internal/dataset"
)

// randMapFor builds a random support matrix with a skewed popularity law,
// the shape the kernel benchmarks use.
func randMapFor(t *testing.T, r *rand.Rand, segs, items int) *Map {
	t.Helper()
	rows := make([][]uint32, segs)
	for s := range rows {
		rows[s] = make([]uint32, items)
		for i := range rows[s] {
			rows[s][i] = uint32(r.Intn(1 + 120>>(i%6)))
		}
	}
	m, err := NewMap(rows)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// splitRanges partitions [0, n) into parts contiguous ranges the way
// internal/shard does: even sizes with the remainder spread over the
// leading ranges, so uneven segment counts produce uneven shards.
func splitRanges(n, parts int) [][2]int {
	if parts > n {
		parts = n
	}
	out := make([][2]int, 0, parts)
	base, rem := n/parts, n%parts
	lo := 0
	for i := 0; i < parts; i++ {
		size := base
		if i < rem {
			size++
		}
		out = append(out, [2]int{lo, lo + size})
		lo += size
	}
	return out
}

// TestSegmentRangeLossless is the partition identity behind sharded
// serving: for any contiguous partition of the segment axis, the sum of
// the views' bounds equals the full map's bound exactly — for scalar
// UpperBound, the batch kernel, and singleton totals.
func TestSegmentRangeLossless(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	for _, segs := range []int{1, 2, 3, 7, 16, 33, 40, 257} {
		m := randMapFor(t, r, segs, 24)
		for _, parts := range []int{1, 2, 3, 8} {
			ranges := splitRanges(segs, parts)
			views := make([]*Map, len(ranges))
			for i, rg := range ranges {
				v, err := m.SegmentRange(rg[0], rg[1])
				if err != nil {
					t.Fatalf("SegmentRange(%d, %d) over %d segments: %v", rg[0], rg[1], segs, err)
				}
				if v.NumSegments() != rg[1]-rg[0] {
					t.Fatalf("view [%d,%d) has %d segments", rg[0], rg[1], v.NumSegments())
				}
				views[i] = v
			}
			cands := make([]dataset.Itemset, 64)
			for i := range cands {
				cands[i] = randomNonEmptyItemset(r, m.NumItems())
			}
			full := m.UpperBoundBatch(cands, nil)
			merged := make([]int64, len(cands))
			for _, v := range views {
				part := v.UpperBoundBatch(cands, nil)
				for i, b := range part {
					merged[i] += b
				}
			}
			for i, x := range cands {
				if merged[i] != full[i] {
					t.Fatalf("%d segments / %d shards: merged bound %d != full bound %d for %v",
						segs, parts, merged[i], full[i], x)
				}
				var scalar int64
				for _, v := range views {
					scalar += v.UpperBound(x)
				}
				if scalar != full[i] {
					t.Fatalf("%d segments / %d shards: scalar-merged bound %d != %d for %v",
						segs, parts, scalar, full[i], x)
				}
			}
			for it := 0; it < m.NumItems(); it++ {
				var tot int64
				for _, v := range views {
					tot += v.ItemSupport(dataset.Item(it))
				}
				if tot != m.ItemSupport(dataset.Item(it)) {
					t.Fatalf("item %d: merged total %d != %d", it, tot, m.ItemSupport(dataset.Item(it)))
				}
			}
		}
	}
}

// TestSegmentRangeViewsSatisfyKernelContract runs the full kernel
// differential harness on segment-range views: a view is a first-class
// Map, so every kernel must agree with the reference walk on it.
func TestSegmentRangeViewsSatisfyKernelContract(t *testing.T) {
	r := rand.New(rand.NewSource(62))
	m := randMapFor(t, r, 48, 12)
	for _, rg := range [][2]int{{0, 48}, {0, 17}, {17, 48}, {5, 6}, {40, 48}} {
		v, err := m.SegmentRange(rg[0], rg[1])
		if err != nil {
			t.Fatal(err)
		}
		checkKernelsAgainstReference(t, r, v, 8)
	}
}

// TestSegmentRangeSharing pins the zero-copy contract: a view's rows are
// the parent's rows, and the full range returns the parent itself.
func TestSegmentRangeSharing(t *testing.T) {
	r := rand.New(rand.NewSource(63))
	m := randMapFor(t, r, 10, 8)
	v, err := m.SegmentRange(3, 9)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < v.NumSegments(); s++ {
		parent := m.SegmentRow(3 + s)
		view := v.SegmentRow(s)
		if &parent[0] != &view[0] {
			t.Fatalf("view row %d does not alias parent row %d", s, 3+s)
		}
	}
	if full, _ := m.SegmentRange(0, 10); full != m {
		t.Fatal("full-range view should be the parent map itself")
	}
}

// TestSegmentRangeErrors pins the bounds validation.
func TestSegmentRangeErrors(t *testing.T) {
	r := rand.New(rand.NewSource(64))
	m := randMapFor(t, r, 5, 4)
	for _, rg := range [][2]int{{-1, 3}, {0, 6}, {3, 3}, {4, 2}} {
		if _, err := m.SegmentRange(rg[0], rg[1]); err == nil {
			t.Fatalf("SegmentRange(%d, %d) over 5 segments should fail", rg[0], rg[1])
		}
	}
}

// TestBatchCrossoverDispatch pins the batch front-end across small and
// mid-sized segment counts: decisions and exact bounds stay
// bit-identical to the reference, including at a discriminative
// threshold that splits a generation of multi-item candidates.
func TestBatchCrossoverDispatch(t *testing.T) {
	r := rand.New(rand.NewSource(65))
	for _, segs := range []int{1, 2, 7, 8, 9, 16, 33} {
		m := randMapFor(t, r, segs, 16)
		checkKernelsAgainstReference(t, r, m, 10)

		cands := make([]dataset.Itemset, 256)
		for i := range cands {
			for {
				cands[i] = randomNonEmptyItemset(r, 16)
				if len(cands[i]) >= 2 {
					break
				}
			}
		}
		bounds := m.UpperBoundBatch(cands, nil)
		refs := make([]int64, len(cands))
		var maxB int64
		for i, x := range cands {
			refs[i] = m.referenceUpperBound(x)
			if bounds[i] != refs[i] {
				t.Fatalf("%d segments: UpperBoundBatch[%d] = %d, reference %d", segs, i, bounds[i], refs[i])
			}
			maxB = max(maxB, refs[i])
		}
		checkAdmitBatch(t, m, cands, refs, maxB/2+1)
	}
}
