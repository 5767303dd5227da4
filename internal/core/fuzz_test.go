package core

import (
	"bytes"
	"math/rand"
	"testing"

	"github.com/ossm-mining/ossm/internal/dataset"
)

// FuzzReadMap: arbitrary bytes must never panic or demand absurd
// allocations; valid parses round-trip.
func FuzzReadMap(f *testing.F) {
	var seed bytes.Buffer
	m, err := NewMap([][]uint32{{1, 2, 3}, {4, 5, 6}})
	if err != nil {
		f.Fatal(err)
	}
	if err := WriteMap(&seed, m); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte("OSSMMAP1"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, in []byte) {
		got, err := ReadMap(bytes.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteMap(&buf, got); err != nil {
			t.Fatalf("WriteMap of parsed map failed: %v", err)
		}
		re, err := ReadMap(&buf)
		if err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
		if re.NumItems() != got.NumItems() || re.NumSegments() != got.NumSegments() {
			t.Fatal("round trip changed shape")
		}
	})
}

// FuzzBoundKernels: on fuzzer-shaped random maps every decision and
// bound path must agree bit-for-bit with the reference bound walk, for
// any itemset and threshold (the DESIGN.md §7 equivalence guarantee).
func FuzzBoundKernels(f *testing.F) {
	f.Add(uint8(4), uint8(3), int64(1), uint32(50))
	f.Add(uint8(40), uint8(6), int64(7), uint32(3))
	f.Add(uint8(17), uint8(2), int64(-9), uint32(0))
	f.Fuzz(func(t *testing.T, segs, items uint8, seed int64, minsupRaw uint32) {
		ns := 1 + int(segs)%48
		k := 2 + int(items)%8
		r := rand.New(rand.NewSource(seed))
		rows := make([][]uint32, ns)
		for s := range rows {
			rows[s] = make([]uint32, k)
			for i := range rows[s] {
				rows[s][i] = uint32(r.Intn(200))
			}
		}
		m, err := NewMap(rows)
		if err != nil {
			t.Fatal(err)
		}
		checkBoundKernels(t, m, r, k, int64(minsupRaw%uint32(200*ns+2)))
	})
}

// FuzzBoundKernelsLargeCells is FuzzBoundKernels on deeper maps with
// large cells: 1 to 256 segments, and roughly a quarter of the cells
// are near 65536, so per-segment minima and bound sums run far past the
// small-cell range. Decisions must stay bit-identical to the reference.
func FuzzBoundKernelsLargeCells(f *testing.F) {
	f.Add(uint8(80), uint8(4), int64(3), uint32(100000))
	f.Add(uint8(40), uint8(6), int64(9), uint32(7))
	f.Add(uint8(200), uint8(2), int64(-5), uint32(1<<24))
	f.Fuzz(func(t *testing.T, segs, items uint8, seed int64, minsupRaw uint32) {
		ns := 1 + int(segs)
		k := 2 + int(items)%8
		r := rand.New(rand.NewSource(seed))
		rows := make([][]uint32, ns)
		for s := range rows {
			rows[s] = make([]uint32, k)
			for i := range rows[s] {
				if r.Intn(4) == 0 {
					rows[s][i] = uint32(65534 + r.Intn(4))
				} else {
					rows[s][i] = uint32(r.Intn(300))
				}
			}
		}
		m, err := NewMap(rows)
		if err != nil {
			t.Fatal(err)
		}
		checkBoundKernels(t, m, r, k, int64(minsupRaw)%(65537*int64(ns)+2))
	})
}

// checkBoundKernels compares every decision and bound path on random
// itemsets of m's k items against the reference bound walk, at minsup
// and at each candidate's exact bound and the next integer.
func checkBoundKernels(t *testing.T, m *Map, r *rand.Rand, k int, minsup int64) {
	t.Helper()
	cands := make([]dataset.Itemset, 1+r.Intn(12))
	refs := make([]int64, len(cands))
	for i := range cands {
		cands[i] = randomNonEmptyItemset(r, k)
		refs[i] = m.referenceUpperBound(cands[i])
	}
	bounds := m.UpperBoundBatch(cands, nil)
	for i, x := range cands {
		if m.UpperBound(x) != refs[i] {
			t.Fatalf("UpperBound(%v) ≠ reference %d", x, refs[i])
		}
		if bounds[i] != refs[i] {
			t.Fatalf("UpperBoundBatch[%d] = %d ≠ reference %d", i, bounds[i], refs[i])
		}
		for _, th := range []int64{minsup, refs[i], refs[i] + 1} {
			checkAllow(t, m, x, refs[i], th)
		}
	}
	checkAllowEach(t, m, cands, refs, minsup)

	// Extensions of a shared prefix against the same oracle.
	prefix := randomNonEmptyItemset(r, k)
	var exts []dataset.Item
	for it := dataset.Item(0); int(it) < k; it++ {
		if !prefix.Contains(it) {
			exts = append(exts, it)
		}
	}
	if len(exts) > 0 {
		extRefs := make([]int64, len(exts))
		for e, it := range exts {
			extRefs[e] = m.referenceUpperBound(dataset.NewItemset(append(append([]dataset.Item{}, prefix...), it)...))
		}
		checkAllowEach(t, m, extensionsOf(prefix, exts), extRefs, minsup)
	}

	// Pair wall over a fuzzed subset of the items in shuffled order.
	checkPairWall(t, m, randomItemOrder(r, k), minsup)
}
