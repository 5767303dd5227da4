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

// FuzzBoundKernels: on fuzzer-shaped random maps every decision kernel
// must agree bit-for-bit with the reference bound walk, for any itemset
// and threshold (the DESIGN.md §7 equivalence guarantee).
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

// FuzzBoundKernelsQuantized is FuzzBoundKernels on deep maps with large
// cells: 1 to 256 segments, so every abandon-stride remainder occurs,
// and roughly a quarter of the cells land in 65534..65537, so the
// fuzzer keeps crossing the 16-bit boundary. Decisions must stay
// bit-identical to the reference on either side of it.
func FuzzBoundKernelsQuantized(f *testing.F) {
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

// checkBoundKernels compares every decision kernel on random itemsets
// of m's k items against the reference bound walk at minsup.
func checkBoundKernels(t *testing.T, m *Map, r *rand.Rand, k int, minsup int64) {
	t.Helper()
	cands := make([]dataset.Itemset, 1+r.Intn(12))
	for i := range cands {
		cands[i] = randomNonEmptyItemset(r, k)
	}
	dec := make([]bool, len(cands))
	m.BoundBatch(cands, minsup, dec)
	bounds := m.UpperBoundBatch(cands, nil)
	for i, x := range cands {
		ref := m.referenceUpperBound(x)
		if m.UpperBound(x) != ref {
			t.Fatalf("UpperBound(%v) ≠ reference %d", x, ref)
		}
		if bounds[i] != ref {
			t.Fatalf("UpperBoundBatch[%d] = %d ≠ reference %d", i, bounds[i], ref)
		}
		if got, want := m.BoundAtLeast(x, minsup), ref >= minsup; got != want {
			t.Fatalf("BoundAtLeast(%v, %d) = %v, reference %d", x, minsup, got, ref)
		}
		if dec[i] != (ref >= minsup) {
			t.Fatalf("BoundBatch[%d] = %v for %v at %d, reference %d", i, dec[i], x, minsup, ref)
		}
		if len(x) == 2 {
			if got, want := m.BoundPairAtLeast(x[0], x[1], minsup), ref >= minsup; got != want {
				t.Fatalf("BoundPairAtLeast(%v, %d) = %v, reference %d", x, minsup, got, ref)
			}
		}
	}

	// Extension kernel against the same oracle.
	prefix := randomNonEmptyItemset(r, k)
	var exts []dataset.Item
	for it := dataset.Item(0); int(it) < k; it++ {
		if !prefix.Contains(it) {
			exts = append(exts, it)
		}
	}
	if len(exts) > 0 {
		extDec := make([]bool, len(exts))
		m.BoundExtensions(prefix, exts, minsup, extDec)
		for e, it := range exts {
			cand := dataset.NewItemset(append(append([]dataset.Item{}, prefix...), it)...)
			ref := m.referenceUpperBound(cand)
			if extDec[e] != (ref >= minsup) {
				t.Fatalf("BoundExtensions(%v + %d) = %v at %d, reference %d", prefix, it, extDec[e], minsup, ref)
			}
		}
	}

	// Pair wall over a fuzzed subset of the items in shuffled order.
	checkPairWall(t, m, randomItemOrder(r, k), minsup)
}
