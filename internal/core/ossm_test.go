package core

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/ossm-mining/ossm/internal/dataset"
)

// example1Map is the 4-segment OSSM of Example 1 of the paper, items
// a=0, b=1, c=2.
func example1Map(t *testing.T) *Map {
	t.Helper()
	m, err := NewMap([][]uint32{
		// segment rows: [a, b, c] per segment
		{20, 40, 40},
		{10, 40, 20},
		{40, 40, 20},
		{40, 10, 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestExample1Bounds(t *testing.T) {
	m := example1Map(t)
	a, b, c := dataset.Item(0), dataset.Item(1), dataset.Item(2)

	if got := m.ItemSupport(a); got != 110 {
		t.Errorf("sup(a) = %d, want 110", got)
	}
	if got := m.ItemSupport(b); got != 130 {
		t.Errorf("sup(b) = %d, want 130", got)
	}
	if got := m.ItemSupport(c); got != 100 {
		t.Errorf("sup(c) = %d, want 100", got)
	}

	// Equation (1): ubsup({a,b}) = 20+10+40+10 = 80.
	if got := m.UpperBound(dataset.NewItemset(a, b)); got != 80 {
		t.Errorf("ubsup({a,b}) = %d, want 80", got)
	}
	if got := m.UpperBoundPair(a, b); got != 80 {
		t.Errorf("UpperBoundPair(a,b) = %d, want 80", got)
	}
	// ubsup({a,b,c}) = 60.
	if got := m.UpperBound(dataset.NewItemset(a, b, c)); got != 60 {
		t.Errorf("ubsup({a,b,c}) = %d, want 60", got)
	}
	// Without the OSSM (last column only): min(110,130) = 110 and
	// min(110,130,100) = 100.
	if got := m.NaiveUpperBound(dataset.NewItemset(a, b)); got != 110 {
		t.Errorf("naive ubsup({a,b}) = %d, want 110", got)
	}
	if got := m.NaiveUpperBound(dataset.NewItemset(a, b, c)); got != 100 {
		t.Errorf("naive ubsup({a,b,c}) = %d, want 100", got)
	}
}

func TestNewMapErrors(t *testing.T) {
	if _, err := NewMap(nil); !errors.Is(err, ErrNoSegments) {
		t.Errorf("NewMap(nil) err = %v, want ErrNoSegments", err)
	}
	if _, err := NewMap([][]uint32{{1, 2}, {1}}); !errors.Is(err, ErrRaggedSegments) {
		t.Errorf("ragged err = %v, want ErrRaggedSegments", err)
	}
}

func TestUpperBoundPanicsOnEmpty(t *testing.T) {
	m := example1Map(t)
	for _, f := range []func(){
		func() { m.UpperBound(nil) },
		func() { m.NaiveUpperBound(nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic on empty itemset")
				}
			}()
			f()
		}()
	}
}

func TestSizeBytes(t *testing.T) {
	// The flat store holds one 4-byte cell matrix (item-major) and the
	// 8-byte totals: 4·k·n + 8·k bytes for k items, n segments.
	m := example1Map(t) // 3 items × 4 segments
	if got := m.SizeBytes(); got != 4*3*4+8*3 {
		t.Errorf("SizeBytes = %d, want 72", got)
	}
	// Paper claim check: 1000 items × 150 segments ≈ 0.6 MB of cells.
	rows := make([][]uint32, 150)
	for i := range rows {
		rows[i] = make([]uint32, 1000)
	}
	big, err := NewMap(rows)
	if err != nil {
		t.Fatal(err)
	}
	if got := big.CellBytes(); got != 600000 {
		t.Errorf("CellBytes = %d, want 600000", got)
	}
	if got := big.SizeBytes(); got != 4*1000*150+8*1000 {
		t.Errorf("SizeBytes = %d, want 608000", got)
	}
}

// NaiveUpperBound is the bound available *without* an OSSM: the minimum
// of the items' global supports (the "last column" bound of Example 1).
// It equals UpperBound on a single-segment map and is never tighter than
// a multi-segment bound.
func (m *Map) NaiveUpperBound(x dataset.Itemset) int64 {
	if len(x) == 0 {
		panic("core: NaiveUpperBound of the empty itemset is not defined")
	}
	minC := m.totals[x[0]]
	for _, it := range x[1:] {
		if c := m.totals[it]; c < minC {
			minC = c
		}
	}
	return minC
}

// Merged returns a single-segment Map carrying the same global supports —
// the degenerate M_1 whose bound is the naive bound.
func (m *Map) Merged() *Map {
	row := make([]uint32, m.numItems)
	for it, t := range m.totals {
		row[it] = uint32(t)
	}
	one, err := NewMap([][]uint32{row})
	if err != nil {
		panic(err)
	}
	return one
}

// Totals returns the per-item global supports. The returned slice is
// shared; callers must not mutate it.
func (m *Map) Totals() []int64 { return m.totals }

func TestMergedEqualsNaive(t *testing.T) {
	m := example1Map(t)
	one := m.Merged()
	if one.NumSegments() != 1 {
		t.Fatalf("Merged has %d segments, want 1", one.NumSegments())
	}
	sets := []dataset.Itemset{
		dataset.NewItemset(0, 1),
		dataset.NewItemset(0, 2),
		dataset.NewItemset(1, 2),
		dataset.NewItemset(0, 1, 2),
	}
	for _, x := range sets {
		if one.UpperBound(x) != m.NaiveUpperBound(x) {
			t.Errorf("Merged bound %d ≠ naive bound %d for %v", one.UpperBound(x), m.NaiveUpperBound(x), x)
		}
	}
}

// buildRandomSegmentation splits a random dataset into pages and a random
// page→segment assignment, returning the dataset and the resulting Map.
func buildRandomSegmentation(r *rand.Rand) (*dataset.Dataset, *Map) {
	d := randomDataset(r)
	m := 1 + r.Intn(d.NumTx())
	pages := dataset.PaginateN(d, m)
	nseg := 1 + r.Intn(m)
	assign := make([][]int, nseg)
	for pi := range pages {
		s := r.Intn(nseg)
		assign[s] = append(assign[s], pi)
	}
	// Drop empty segments (BuildFromPages would produce all-zero rows,
	// which are legal but pointless).
	var nonEmpty [][]int
	for _, a := range assign {
		if len(a) > 0 {
			nonEmpty = append(nonEmpty, a)
		}
	}
	mp, err := BuildFromPages(d, pages, nonEmpty)
	if err != nil {
		panic(err)
	}
	return d, mp
}

func randomDataset(r *rand.Rand) *dataset.Dataset {
	k := 2 + r.Intn(6)
	n := 2 + r.Intn(40)
	b := dataset.NewBuilder(k)
	for i := 0; i < n; i++ {
		sz := r.Intn(k + 1)
		tx := make([]dataset.Item, sz)
		for j := range tx {
			tx[j] = dataset.Item(r.Intn(k))
		}
		if err := b.Append(tx); err != nil {
			panic(err)
		}
	}
	return b.Build()
}

func randomNonEmptyItemset(r *rand.Rand, k int) dataset.Itemset {
	n := 1 + r.Intn(minInt(3, k))
	items := make([]dataset.Item, n)
	for i := range items {
		items[i] = dataset.Item(r.Intn(k))
	}
	return dataset.NewItemset(items...)
}

func TestUpperBoundSoundnessProperty(t *testing.T) {
	// The central invariant: for every itemset, ubsup(X, M) ≥ sup(X), and
	// for singletons the bound is exact. Also ubsup ≤ naive bound.
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d, m := buildRandomSegmentation(r)
		for trial := 0; trial < 20; trial++ {
			x := randomNonEmptyItemset(r, d.NumItems())
			ub := m.UpperBound(x)
			actual := int64(d.Support(x))
			if ub < actual {
				return false
			}
			if ub > m.NaiveUpperBound(x) {
				return false
			}
			if len(x) == 1 && ub != actual {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFinerSegmentationTightens(t *testing.T) {
	// Section 3: the bound can only get tighter as segments are split. We
	// compare one-page-per-segment against any coarser random grouping of
	// the same pages.
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := randomDataset(r)
		mPages := 1 + r.Intn(d.NumTx())
		pages := dataset.PaginateN(d, mPages)
		finestAssign := make([][]int, len(pages))
		for i := range pages {
			finestAssign[i] = []int{i}
		}
		finest, err := BuildFromPages(d, pages, finestAssign)
		if err != nil {
			return false
		}
		nseg := 1 + r.Intn(mPages)
		coarseAssign := make([][]int, 0, nseg)
		buckets := make([][]int, nseg)
		for pi := range pages {
			s := r.Intn(nseg)
			buckets[s] = append(buckets[s], pi)
		}
		for _, b := range buckets {
			if len(b) > 0 {
				coarseAssign = append(coarseAssign, b)
			}
		}
		coarse, err := BuildFromPages(d, pages, coarseAssign)
		if err != nil {
			return false
		}
		for trial := 0; trial < 20; trial++ {
			x := randomNonEmptyItemset(r, d.NumItems())
			if finest.UpperBound(x) > coarse.UpperBound(x) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestOnePagePerTransactionIsExact(t *testing.T) {
	// The "hypothetical extreme case" of Section 3: n = number of
	// transactions makes the bound exact for every itemset.
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		d := randomDataset(r)
		pages := dataset.PaginateN(d, d.NumTx())
		assign := make([][]int, len(pages))
		for i := range pages {
			assign[i] = []int{i}
		}
		m, err := BuildFromPages(d, pages, assign)
		if err != nil {
			t.Fatal(err)
		}
		for inner := 0; inner < 20; inner++ {
			x := randomNonEmptyItemset(r, d.NumItems())
			if got, want := m.UpperBound(x), int64(d.Support(x)); got != want {
				t.Fatalf("per-transaction OSSM bound %d ≠ support %d for %v", got, want, x)
			}
		}
	}
}

func TestBuildFromPagesErrors(t *testing.T) {
	d := dataset.MustFromTransactions(2, [][]dataset.Item{{0}, {1}})
	pages := dataset.Paginate(d, 1)
	if _, err := BuildFromPages(d, pages, nil); !errors.Is(err, ErrNoSegments) {
		t.Errorf("err = %v, want ErrNoSegments", err)
	}
	if _, err := BuildFromPages(d, pages, [][]int{{0, 7}}); err == nil {
		t.Error("out-of-range page accepted")
	}
}

func TestPruner(t *testing.T) {
	m := example1Map(t)
	p := &Pruner{Map: m, MinCount: 100}
	ab := dataset.NewItemset(0, 1)
	if p.Allow(ab) {
		t.Error("ubsup({a,b}) = 80 < 100 should be pruned")
	}
	if !p.Allow(dataset.NewItemset(1)) { // sup(b) = 130
		t.Error("singleton b with support 130 should pass")
	}
	if p.Checked != 2 || p.Pruned != 1 {
		t.Errorf("counters = (%d checked, %d pruned), want (2, 1)", p.Checked, p.Pruned)
	}
	if p.AllowPair(0, 1) {
		t.Error("AllowPair should prune {a,b} at threshold 100")
	}
	p.Reset()
	if p.Checked != 0 || p.Pruned != 0 {
		t.Error("Reset did not zero counters")
	}

	var nilP *Pruner
	if !nilP.Allow(ab) || !nilP.AllowPair(0, 1) {
		t.Error("nil pruner must admit everything")
	}
	nilP.Reset() // must not panic
	noMap := &Pruner{MinCount: 1 << 60}
	if !noMap.Allow(ab) {
		t.Error("pruner without a Map must admit everything")
	}
}

func TestPrunerSoundnessProperty(t *testing.T) {
	// A pruned candidate is never actually frequent: if Allow returns
	// false at threshold σ then sup(X) < σ.
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d, m := buildRandomSegmentation(r)
		minCount := int64(1 + r.Intn(d.NumTx()))
		p := &Pruner{Map: m, MinCount: minCount}
		for trial := 0; trial < 20; trial++ {
			x := randomNonEmptyItemset(r, d.NumItems())
			if !p.Allow(x) && int64(d.Support(x)) >= minCount {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTotalsShared(t *testing.T) {
	m := example1Map(t)
	totals := m.Totals()
	if len(totals) != 3 || totals[0] != 110 || totals[1] != 130 || totals[2] != 100 {
		t.Errorf("Totals = %v, want [110 130 100]", totals)
	}
}

func TestSegmentRowAccess(t *testing.T) {
	m := example1Map(t)
	prefix := []uint32{7}
	row := m.AppendSegmentRow(prefix, 2)
	if len(row) != 4 || row[0] != 7 || row[1] != 40 || row[2] != 40 || row[3] != 20 {
		t.Errorf("AppendSegmentRow([7], 2) = %v", row)
	}
	row[1] = 0
	if m.SegmentSupport(2, 0) != 40 {
		t.Error("AppendSegmentRow returned a row that aliases the map")
	}
	for _, s := range []int{-1, m.NumSegments()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AppendSegmentRow(nil, %d) did not panic", s)
				}
			}()
			m.AppendSegmentRow(nil, s)
		}()
	}
}
