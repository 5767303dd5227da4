package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/ossm-mining/ossm/internal/dataset"
)

func TestItemVariability(t *testing.T) {
	m := mustMap(t, [][]uint32{
		{10, 0, 5},
		{10, 20, 0},
	})
	// Item 0: perfectly even → 0.
	if got := m.ItemVariability(0); got != 0 {
		t.Errorf("even item variability = %g, want 0", got)
	}
	// Item 1: [0,20], mean 10, sd 10 → CV 1.
	if got := m.ItemVariability(1); math.Abs(got-1) > 1e-12 {
		t.Errorf("concentrated item variability = %g, want 1", got)
	}
	// Item 2: [5,0], mean 2.5, sd 2.5 → CV 1.
	if got := m.ItemVariability(2); math.Abs(got-1) > 1e-12 {
		t.Errorf("variability = %g, want 1", got)
	}
	// Single segment → 0 by definition.
	one := mustMap(t, [][]uint32{{7, 3}})
	if one.ItemVariability(0) != 0 {
		t.Error("single-segment variability should be 0")
	}
	// Absent item → 0.
	zero := mustMap(t, [][]uint32{{0, 1}, {0, 1}})
	if zero.ItemVariability(0) != 0 {
		t.Error("absent item variability should be 0")
	}
}

func TestHeterogeneityOrdersSkew(t *testing.T) {
	// Disjoint halves are maximally heterogeneous; identical segments are
	// not heterogeneous at all.
	flat := mustMap(t, [][]uint32{{10, 10}, {10, 10}})
	skewed := mustMap(t, [][]uint32{{20, 0}, {0, 20}})
	if flat.Heterogeneity() != 0 {
		t.Errorf("flat heterogeneity = %g, want 0", flat.Heterogeneity())
	}
	if skewed.Heterogeneity() <= flat.Heterogeneity() {
		t.Error("skewed map not more heterogeneous than flat")
	}
	if got := skewed.Heterogeneity(); math.Abs(got-1) > 1e-12 {
		t.Errorf("disjoint-halves heterogeneity = %g, want 1", got)
	}
	empty := mustMap(t, [][]uint32{{0, 0}, {0, 0}})
	if empty.Heterogeneity() != 0 {
		t.Error("empty map heterogeneity should be 0")
	}
}

func TestHeterogeneityTracksGeneratorSkew(t *testing.T) {
	// The seasonal generator must register as more heterogeneous than the
	// vanilla one under the same contiguous segmentation.
	mk := func(seasonal bool) *Map {
		d := seasonalOrRegular(t, seasonal)
		rows := dataset.PageCounts(d, dataset.PaginateN(d, 20))
		res, err := Segment(rows, Options{Algorithm: AlgRandom, TargetSegments: 10})
		if err != nil {
			t.Fatal(err)
		}
		return res.Map
	}
	if mk(true).Heterogeneity() <= mk(false).Heterogeneity() {
		t.Error("seasonal data not more heterogeneous than regular")
	}
}

// seasonalOrRegular builds a small two-phase or uniform dataset without
// importing gen (which would cycle).
func seasonalOrRegular(t *testing.T, seasonal bool) *dataset.Dataset {
	t.Helper()
	r := rand.New(rand.NewSource(4))
	b := dataset.NewBuilder(20)
	for i := 0; i < 1000; i++ {
		lo, hi := 0, 20
		if seasonal {
			if i < 500 {
				lo, hi = 0, 10
			} else {
				lo, hi = 10, 20
			}
		}
		var tx []dataset.Item
		for j := 0; j < 4; j++ {
			tx = append(tx, dataset.Item(lo+r.Intn(hi-lo)))
		}
		if err := b.Append(tx); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

// HottestSegment returns the segment holding item x's largest support
// and that support. Ties resolve to the lowest segment index.
func (m *Map) HottestSegment(x dataset.Item) (segment int, support uint32) {
	for s, c := range m.Column(x) {
		if c > support {
			segment, support = s, c
		}
	}
	return segment, support
}

func TestHottestSegment(t *testing.T) {
	m := mustMap(t, [][]uint32{
		{1, 9},
		{5, 9},
		{3, 2},
	})
	if s, sup := m.HottestSegment(0); s != 1 || sup != 5 {
		t.Errorf("HottestSegment(0) = %d,%d; want 1,5", s, sup)
	}
	// Tie between segments 0 and 1 for item 1 → lowest index wins.
	if s, sup := m.HottestSegment(1); s != 0 || sup != 9 {
		t.Errorf("HottestSegment(1) = %d,%d; want 0,9", s, sup)
	}
}

func TestVariabilityNonNegativeProperty(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(6)
		k := 1 + r.Intn(6)
		rows := make([][]uint32, n)
		for i := range rows {
			rows[i] = randomRow(r, k, 30)
		}
		m, err := NewMap(rows)
		if err != nil {
			return false
		}
		for it := 0; it < k; it++ {
			if m.ItemVariability(dataset.Item(it)) < 0 {
				return false
			}
		}
		return m.Heterogeneity() >= 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSkewSignal(t *testing.T) {
	// Disjoint halves: heterogeneity 1 vs noise √(1/20) ≈ 0.224 → ≈ 4.5.
	skewed := mustMap(t, [][]uint32{{20, 0}, {0, 20}})
	if got := skewed.SkewSignal(); got < 3 {
		t.Errorf("disjoint halves SkewSignal = %g, want ≫ 1", got)
	}
	// Perfectly even: measured 0 → signal 0 (below noise).
	flat := mustMap(t, [][]uint32{{10, 10}, {10, 10}})
	if got := flat.SkewSignal(); got >= 1 {
		t.Errorf("flat SkewSignal = %g, want < 1", got)
	}
	// Single segment: defined as 1.
	one := mustMap(t, [][]uint32{{5, 5}})
	if one.SkewSignal() != 1 {
		t.Error("single-segment SkewSignal should be 1")
	}
	// Multinomially sampled uniform data should sit near 1.
	r := rand.New(rand.NewSource(2))
	rows := make([][]uint32, 10)
	for i := range rows {
		rows[i] = make([]uint32, 30)
	}
	for it := 0; it < 30; it++ {
		for c := 0; c < 2000; c++ {
			rows[r.Intn(10)][it]++
		}
	}
	m := mustMap(t, rows)
	if got := m.SkewSignal(); got < 0.7 || got > 1.4 {
		t.Errorf("uniform multinomial SkewSignal = %g, want ≈ 1", got)
	}
}
