package core

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/ossm-mining/ossm/internal/dataset"
)

func randomRow(r *rand.Rand, k, maxVal int) []uint32 {
	row := make([]uint32, k)
	for i := range row {
		row[i] = uint32(r.Intn(maxVal))
	}
	return row
}

// quadSumDiffPair is equation (2) for two rows as the direct O(k²) loop
// over item pairs: the oracle the sorted-prefix evaluation must match.
func quadSumDiffPair(a, b []uint32, items []dataset.Item) int64 {
	var total int64
	for i := 0; i < len(items); i++ {
		x := items[i]
		ax, bx := a[x], b[x]
		for j := i + 1; j < len(items); j++ {
			y := items[j]
			ay, by := a[y], b[y]
			mc := min(uint64(ax)+uint64(bx), uint64(ay)+uint64(by))
			total += int64(mc) - int64(min(ax, ay)) - int64(min(bx, by))
		}
	}
	return total
}

// quadSumDiffSet is the O(k²) loop for an arbitrary set of rows.
func quadSumDiffSet(rows [][]uint32, items []dataset.Item) int64 {
	if len(rows) == 0 {
		return 0
	}
	merged := make([]uint64, len(rows[0]))
	for _, row := range rows {
		for i, c := range row {
			merged[i] += uint64(c)
		}
	}
	var total int64
	for i := 0; i < len(items); i++ {
		x := items[i]
		for j := i + 1; j < len(items); j++ {
			y := items[j]
			var sep int64
			for _, row := range rows {
				sep += int64(min(row[x], row[y]))
			}
			total += int64(min(merged[x], merged[y])) - sep
		}
	}
	return total
}

// checkSumDiffOracle compares both public forms against the quadratic
// oracle on one input.
func checkSumDiffOracle(t *testing.T, rows [][]uint32, items []dataset.Item) {
	t.Helper()
	if got, want := SumDiffSet(rows, items), quadSumDiffSet(rows, items); got != want {
		t.Fatalf("SumDiffSet(%v, %v) = %d, oracle %d", rows, items, got, want)
	}
	if len(rows) == 2 {
		if got, want := SumDiffPair(rows[0], rows[1], items), quadSumDiffPair(rows[0], rows[1], items); got != want {
			t.Fatalf("SumDiffPair(%v, %v) = %d, oracle %d", rows, items, got, want)
		}
	}
}

// TestSumDiffMatchesQuadraticOracle: the sorted-prefix identity equals
// the pair loop on random rows (small and full-range cells), on bubble
// subsets, on an empty item list and on the wide cells of
// TestSumDiffWideCells.
func TestSumDiffMatchesQuadraticOracle(t *testing.T) {
	const top = math.MaxUint32
	wide := []uint32{0, 1, 1 << 31, 1<<31 + 1, top - 1, top}
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 600; trial++ {
		k := 1 + r.Intn(40)
		rows := make([][]uint32, 1+r.Intn(4))
		for s := range rows {
			rows[s] = make([]uint32, k)
			for i := range rows[s] {
				switch trial % 3 {
				case 0:
					rows[s][i] = uint32(r.Intn(50))
				case 1:
					rows[s][i] = r.Uint32()
				default:
					rows[s][i] = wide[r.Intn(len(wide))]
				}
			}
		}
		checkSumDiffOracle(t, rows, AllItems(k))
		checkSumDiffOracle(t, rows, nil)
		var bubble []dataset.Item
		for _, x := range r.Perm(k)[:r.Intn(k+1)] {
			bubble = append(bubble, dataset.Item(x))
		}
		checkSumDiffOracle(t, rows, bubble)
	}
}

func TestSumDiffPairMatchesSet(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 2 + r.Intn(6)
		a, b := randomRow(r, k, 40), randomRow(r, k, 40)
		items := AllItems(k)
		return SumDiffPair(a, b, items) == SumDiffSet([][]uint32{a, b}, items)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSumDiffNonNegativeAndSymmetric(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 2 + r.Intn(6)
		a, b := randomRow(r, k, 40), randomRow(r, k, 40)
		items := AllItems(k)
		d := SumDiffPair(a, b, items)
		return d >= 0 && d == SumDiffPair(b, a, items)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestLemma2a: segments of the same configuration have sumdiff 0.
func TestLemma2a(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 2 + r.Intn(5)
		cfg := ConfigurationOf(randomRow(r, k, 100))
		mk := func() []uint32 {
			row := make([]uint32, k)
			v := uint32(1000)
			for _, it := range cfg {
				row[it] = v
				v -= uint32(1 + r.Intn(9))
			}
			return row
		}
		rows := [][]uint32{mk(), mk(), mk()}
		return SumDiffSet(rows, AllItems(k)) == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestLemma2b: segments whose configurations differ by a *strict*
// support inversion have positive sumdiff. (With ties, two rows can have
// formally different configurations yet identical bounds — e.g. rows
// [1,3] and [2,2] — so the strictness hypothesis matters.)
func TestLemma2b(t *testing.T) {
	a := []uint32{5, 1} // a ≥ b strictly
	b := []uint32{1, 5} // b ≥ a strictly
	if got := SumDiffPair(a, b, AllItems(2)); got <= 0 {
		t.Errorf("sumdiff of strictly inverted rows = %d, want > 0", got)
	}
	// The worked numbers: merged row [6,6] → pair bound 6; separate
	// bounds 1 + 1 = 2; sumdiff = 4.
	if got := SumDiffPair(a, b, AllItems(2)); got != 4 {
		t.Errorf("sumdiff = %d, want 4", got)
	}
}

func TestSumDiffTieCaveat(t *testing.T) {
	// Documents the boundary case: configurations differ (only via the
	// canonical tie-break), yet no bound is lost and sumdiff is 0.
	a := []uint32{1, 3}
	b := []uint32{2, 2}
	if SameConfiguration(a, b) {
		t.Fatal("test premise broken: configurations should differ")
	}
	if got := SumDiffPair(a, b, AllItems(2)); got != 0 {
		t.Errorf("sumdiff = %d, want 0 for tie-only configuration difference", got)
	}
}

// TestLemma2c: sumdiff is monotone under adding segments to the set.
func TestLemma2c(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 2 + r.Intn(5)
		n := 2 + r.Intn(4)
		rows := make([][]uint32, n+1)
		for i := range rows {
			rows[i] = randomRow(r, k, 30)
		}
		items := AllItems(k)
		return SumDiffSet(rows[:n], items) <= SumDiffSet(rows, items)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestSumDiffIsBoundLoss ties equation (2) to its meaning: the sumdiff of
// two rows equals the total loosening of pairwise upper bounds caused by
// the merge.
func TestSumDiffIsBoundLoss(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 2 + r.Intn(5)
		a, b := randomRow(r, k, 40), randomRow(r, k, 40)
		sep, err := NewMap([][]uint32{a, b})
		if err != nil {
			return false
		}
		sum := make([]uint32, k)
		for i := range sum {
			sum[i] = a[i] + b[i]
		}
		mer, err := NewMap([][]uint32{sum})
		if err != nil {
			return false
		}
		var loss int64
		for x := 0; x < k; x++ {
			for y := x + 1; y < k; y++ {
				loss += mer.UpperBoundPair(dataset.Item(x), dataset.Item(y)) -
					sep.UpperBoundPair(dataset.Item(x), dataset.Item(y))
			}
		}
		return loss == SumDiffPair(a, b, AllItems(k))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSumDiffBubbleRestriction(t *testing.T) {
	// Restricting the summation to a subset of items can only reduce the
	// measured value (every pair contributes ≥ 0).
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 3 + r.Intn(5)
		a, b := randomRow(r, k, 40), randomRow(r, k, 40)
		all := AllItems(k)
		sub := all[:1+r.Intn(k-1)]
		return SumDiffPair(a, b, sub) <= SumDiffPair(a, b, all)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSumDiffSetEmpty(t *testing.T) {
	if got := SumDiffSet(nil, nil); got != 0 {
		t.Errorf("SumDiffSet(nil) = %d, want 0", got)
	}
}

func TestAllItems(t *testing.T) {
	items := AllItems(4)
	want := []dataset.Item{0, 1, 2, 3}
	if len(items) != len(want) {
		t.Fatalf("len = %d, want %d", len(items), len(want))
	}
	for i := range want {
		if items[i] != want[i] {
			t.Errorf("AllItems[%d] = %d, want %d", i, items[i], want[i])
		}
	}
}

// wideSumDiff is equation (2) in arbitrary precision: the reference for
// cells whose merged sums pass 2³²−1.
func wideSumDiff(rows [][]uint32, items []dataset.Item) *big.Int {
	total := new(big.Int)
	for i := 0; i < len(items); i++ {
		for j := i + 1; j < len(items); j++ {
			x, y := items[i], items[j]
			mx, my := new(big.Int), new(big.Int)
			sep := new(big.Int)
			for _, row := range rows {
				mx.Add(mx, big.NewInt(int64(row[x])))
				my.Add(my, big.NewInt(int64(row[y])))
				sep.Add(sep, big.NewInt(int64(min(row[x], row[y]))))
			}
			if my.Cmp(mx) < 0 {
				mx = my
			}
			total.Add(total, mx.Sub(mx, sep))
		}
	}
	return total
}

// TestSumDiffWideCells: cells near 2³¹ and 2³² sum past 2³²−1 when
// segments merge, and sumdiff must not wrap there.
func TestSumDiffWideCells(t *testing.T) {
	const top = math.MaxUint32
	cells := []uint32{0, 1, 1 << 31, 1<<31 + 1, top - 1, top}
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		k := 2 + r.Intn(4)
		rows := make([][]uint32, 2+r.Intn(2))
		for s := range rows {
			rows[s] = make([]uint32, k)
			for i := range rows[s] {
				rows[s][i] = cells[r.Intn(len(cells))]
			}
		}
		items := AllItems(k)
		want := wideSumDiff(rows, items)
		if got := SumDiffSet(rows, items); big.NewInt(got).Cmp(want) != 0 {
			t.Fatalf("SumDiffSet(%v) = %d, want %v", rows, got, want)
		}
		if len(rows) == 2 {
			if got := SumDiffPair(rows[0], rows[1], items); big.NewInt(got).Cmp(want) != 0 {
				t.Fatalf("SumDiffPair(%v) = %d, want %v", rows, got, want)
			}
		}
	}
}

// FuzzSumDiff: for arbitrary uint32 cells and item lists (subsets,
// repeats, empty) both sumdiff forms equal the quadratic oracle. cells
// holds the row count, the domain size, then little-endian cells; pick
// selects the summation items.
func FuzzSumDiff(f *testing.F) {
	f.Add([]byte{2, 3, 0xff, 0xff, 0xff, 0xff, 1, 0, 0, 0, 7, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0x80}, []byte{0, 1, 2})
	f.Add([]byte{3, 5, 9, 0, 0, 0, 4}, []byte{4, 2})
	f.Add([]byte{1, 1}, []byte{})
	f.Fuzz(func(t *testing.T, cells, pick []byte) {
		if len(cells) < 2 || len(pick) > 64 {
			return
		}
		rows := make([][]uint32, 1+int(cells[0])%4)
		k := 1 + int(cells[1])%16
		cells = cells[2:]
		for s := range rows {
			rows[s] = make([]uint32, k)
			for i := range rows[s] {
				if len(cells) >= 4 {
					rows[s][i] = binary.LittleEndian.Uint32(cells)
					cells = cells[4:]
				}
			}
		}
		items := make([]dataset.Item, len(pick))
		for i, b := range pick {
			items[i] = dataset.Item(int(b) % k)
		}
		checkSumDiffOracle(t, rows, items)
		if len(rows) > 2 {
			checkSumDiffOracle(t, rows[:2], items)
		}
	})
}

// SumDiffSet computes sumdiff(S) for an arbitrary set of segment rows,
// restricted to the given items — the general form of equation (2) the
// Lemma 2 tests check.
func SumDiffSet(rows [][]uint32, items []dataset.Item) int64 {
	p := newPairMins(items)
	var sep uint64
	for _, row := range rows {
		sep += p.row(row)
	}
	for i, x := range items {
		var c uint64
		for _, row := range rows {
			c += uint64(row[x])
		}
		p.buf[i] = c
	}
	return int64(p.sorted() - sep)
}
