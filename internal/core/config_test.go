package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/ossm-mining/ossm/internal/dataset"
)

func TestConfigurationOf(t *testing.T) {
	cases := []struct {
		counts []uint32
		want   Configuration
	}{
		{[]uint32{4, 1}, Configuration{0, 1}},             // a ≥ b
		{[]uint32{0, 2}, Configuration{1, 0}},             // b ≥ a
		{[]uint32{3, 3}, Configuration{0, 1}},             // tie → canonical order
		{[]uint32{1, 5, 5, 2}, Configuration{1, 2, 3, 0}}, // ties inside
	}
	for _, c := range cases {
		got := ConfigurationOf(c.counts)
		if !got.Equal(c.want) {
			t.Errorf("ConfigurationOf(%v) = %v, want %v", c.counts, got, c.want)
		}
	}
}

func TestConfigurationKeyInjective(t *testing.T) {
	a := ConfigurationOf([]uint32{4, 1, 2})
	b := ConfigurationOf([]uint32{1, 4, 2})
	if a.Key() == b.Key() {
		t.Error("distinct configurations share a key")
	}
	c := ConfigurationOf([]uint32{8, 2, 4}) // same order as a
	if a.Key() != c.Key() {
		t.Error("equal configurations have different keys")
	}
}

func TestSameConfiguration(t *testing.T) {
	if !SameConfiguration([]uint32{4, 1}, []uint32{9, 3}) {
		t.Error("both a≥b, want same configuration")
	}
	if SameConfiguration([]uint32{4, 1}, []uint32{1, 4}) {
		t.Error("opposite orders reported same")
	}
}

// TestExample2 reproduces Example 2 of the paper end to end: the
// configuration-respecting 2-segment OSSM is exact for {a,b}, while
// moving transaction t4 across segments loses exactness.
func TestExample2(t *testing.T) {
	a, b := dataset.Item(0), dataset.Item(1)
	// Segment T1 = {t1..t4} (all containing a): counts a=4, b=1.
	// Segment T2 = {t5,t6} (b but not a):        counts a=0, b=2.
	m2, err := NewMap([][]uint32{{4, 1}, {0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if got := m2.UpperBound(dataset.NewItemset(a, b)); got != 1 {
		t.Errorf("ubsup({a,b}) = %d, want exact support 1", got)
	}
	// Slightly different segmentation: t4 moved from T1 to T2.
	m2x, err := NewMap([][]uint32{{3, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if got := m2x.UpperBound(dataset.NewItemset(a, b)); got != 2 {
		t.Errorf("ubsup({a,b}) after moving t4 = %d, want 2 (no longer exact)", got)
	}
}

// TestLemma1 checks that merging two segments of the same configuration
// neither changes the configuration nor loosens any pairwise bound.
func TestLemma1(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 2 + r.Intn(5)
		// Draw one configuration and two rows consistent with it.
		base := make([]uint32, k)
		for i := range base {
			base[i] = uint32(r.Intn(50))
		}
		cfg := ConfigurationOf(base)
		mk := func() []uint32 {
			// Random row with the same rank order: strictly descending
			// values along cfg (ties avoided to keep the config stable).
			row := make([]uint32, k)
			v := uint32(1000)
			for _, it := range cfg {
				row[it] = v
				v -= uint32(1 + r.Intn(10))
			}
			return row
		}
		s1, s2 := mk(), mk()
		if !ConfigurationOf(s1).Equal(ConfigurationOf(s2)) {
			return false // construction bug
		}
		merged := mergeRows(s1, s2)
		if !ConfigurationOf(merged).Equal(ConfigurationOf(s1)) {
			return false // Lemma 1: merged segment keeps the configuration
		}
		// And for every pair {x,y}: bound from the two segments equals
		// bound from the merged one.
		for x := 0; x < k; x++ {
			for y := x + 1; y < k; y++ {
				sep := minU(s1[x], s1[y]) + minU(s2[x], s2[y])
				if minU(merged[x], merged[y]) != sep {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func minU(a, b uint32) uint32 {
	if a < b {
		return a
	}
	return b
}

func TestMergeSameConfigurationsPreservesBounds(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 2 + r.Intn(4)
		m := 1 + r.Intn(10)
		rows := make([][]uint32, m)
		for i := range rows {
			rows[i] = make([]uint32, k)
			for j := range rows[i] {
				rows[i][j] = uint32(r.Intn(4)) // small values force config collisions
			}
		}
		merged, groups := mergeSameConfigurations(rows)
		// Groups partition the inputs.
		seen := make([]bool, m)
		total := 0
		for _, g := range groups {
			for _, i := range g {
				if seen[i] {
					return false
				}
				seen[i] = true
				total++
			}
		}
		if total != m || len(merged) != len(groups) {
			return false
		}
		if len(merged) != MinSegments(rows) {
			return false
		}
		before, err := NewMap(rows)
		if err != nil {
			return false
		}
		after, err := NewMap(merged)
		if err != nil {
			return false
		}
		// Bounds for every pair are unchanged (Lemma 1, applied
		// repeatedly).
		for x := 0; x < k; x++ {
			for y := x + 1; y < k; y++ {
				if before.UpperBoundPair(dataset.Item(x), dataset.Item(y)) !=
					after.UpperBoundPair(dataset.Item(x), dataset.Item(y)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMinSegmentsBounded(t *testing.T) {
	// MinSegments counts distinct configurations, which are permutations:
	// at most min(m, k!). (The paper's Theorem 1 states min(m, 2^k − k),
	// which distinct strict orders can exceed for k ≥ 3 — see the
	// TheoreticalMinSegments doc comment and DESIGN.md.)
	factorial := func(k int) int {
		f := 1
		for i := 2; i <= k; i++ {
			f *= i
		}
		return f
	}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 2 + r.Intn(4)
		m := 1 + r.Intn(12)
		rows := make([][]uint32, m)
		for i := range rows {
			rows[i] = make([]uint32, k)
			for j := range rows[i] {
				rows[i][j] = uint32(r.Intn(6))
			}
		}
		nmin := MinSegments(rows)
		cap := m
		if f := factorial(k); f < cap {
			cap = f
		}
		return nmin >= 1 && nmin <= cap
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestTheoreticalMinSegments(t *testing.T) {
	cases := []struct{ k, m, want int }{
		{2, 10, 2},   // 2^2 − 2 = 2
		{3, 100, 5},  // 2^3 − 3 = 5
		{4, 100, 12}, // 2^4 − 4 = 12
		{10, 5, 5},   // m smaller than 2^10 − 10
		{10, 100000, 1014},
		{100, 7, 7}, // k > 62 ⇒ m
	}
	for _, c := range cases {
		if got := TheoreticalMinSegments(c.k, c.m); got != c.want {
			t.Errorf("TheoreticalMinSegments(%d, %d) = %d, want %d", c.k, c.m, got, c.want)
		}
	}
}

func TestNumDistinctConfigurations(t *testing.T) {
	cases := []struct{ k, want int }{
		{2, 2}, {3, 5}, {4, 12}, {5, 27},
	}
	for _, c := range cases {
		if got := NumDistinctConfigurations(c.k); got != c.want {
			t.Errorf("NumDistinctConfigurations(%d) = %d, want %d", c.k, got, c.want)
		}
	}
	if got := NumDistinctConfigurations(63); got != math.MaxInt {
		t.Errorf("NumDistinctConfigurations(63) = %d, want MaxInt", got)
	}
}

// TestMinSegmentsExactness verifies the substance of Theorem 1 /
// Corollary 1 on real data: building the OSSM from the
// configuration-merged pages gives exactly the same bound as the
// unmerged page-level OSSM, for every itemset (exhaustive over small k).
func TestMinSegmentsExactness(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 40; trial++ {
		d := randomDataset(r)
		mPages := 1 + r.Intn(d.NumTx())
		pages := dataset.PaginateN(d, mPages)
		rows := dataset.PageCounts(d, pages)
		merged, _ := mergeSameConfigurations(rows)
		full, err := NewMap(rows)
		if err != nil {
			t.Fatal(err)
		}
		min, err := NewMap(merged)
		if err != nil {
			t.Fatal(err)
		}
		k := d.NumItems()
		// Every non-empty subset of items (k ≤ 7 here).
		for mask := 1; mask < 1<<k; mask++ {
			var x dataset.Itemset
			for i := 0; i < k; i++ {
				if mask&(1<<i) != 0 {
					x = append(x, dataset.Item(i))
				}
			}
			if full.UpperBound(x) != min.UpperBound(x) {
				t.Fatalf("bound changed after config merge for %v: %d vs %d",
					x, full.UpperBound(x), min.UpperBound(x))
			}
		}
	}
}

// mergeRows adds row b into row a element-wise (the support row of the
// merged segment T_i ∪ T_j).
func mergeRows(a, b []uint32) []uint32 {
	out := make([]uint32, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}

// mergeSameConfigurations merges every group of input segments that
// share a configuration into one combined segment (the repeated
// application of Lemma 1). It returns the merged support rows together
// with, for each output segment, the indices of the input segments
// composing it.
func mergeSameConfigurations(rows [][]uint32) (merged [][]uint32, groups [][]int) {
	index := make(map[string]int, len(rows))
	for i, row := range rows {
		key := ConfigurationOf(row).Key()
		if gi, ok := index[key]; ok {
			merged[gi] = mergeRows(merged[gi], row)
			groups[gi] = append(groups[gi], i)
			continue
		}
		index[key] = len(merged)
		cp := make([]uint32, len(row))
		copy(cp, row)
		merged = append(merged, cp)
		groups = append(groups, []int{i})
	}
	return merged, groups
}
