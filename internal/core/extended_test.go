package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/ossm-mining/ossm/internal/dataset"
)

// buildExtendedRandom produces a random dataset, a random segmentation
// and an ExtendedMap tracking a random item subset.
func buildExtendedRandom(r *rand.Rand) (*dataset.Dataset, *ExtendedMap) {
	d := randomDataset(r)
	mPages := 1 + r.Intn(d.NumTx())
	pages := dataset.PaginateN(d, mPages)
	nseg := 1 + r.Intn(mPages)
	buckets := make([][]int, nseg)
	for pi := range pages {
		s := r.Intn(nseg)
		buckets[s] = append(buckets[s], pi)
	}
	var assign [][]int
	for _, b := range buckets {
		if len(b) > 0 {
			assign = append(assign, b)
		}
	}
	var tracked []dataset.Item
	for it := 0; it < d.NumItems(); it++ {
		if r.Intn(2) == 0 {
			tracked = append(tracked, dataset.Item(it))
		}
	}
	e, err := BuildExtended(d, pages, assign, tracked)
	if err != nil {
		panic(err)
	}
	return d, e
}

func TestExtendedPairSupportExact(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d, e := buildExtendedRandom(r)
		for _, a := range e.Tracked() {
			for _, b := range e.Tracked() {
				if a >= b {
					continue
				}
				sup, ok := e.PairSupport(a, b)
				if !ok {
					return false
				}
				if sup != int64(d.Support(dataset.NewItemset(a, b))) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestExtendedPairSupportUntracked(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for {
		d, e := buildExtendedRandom(r)
		if len(e.Tracked()) == d.NumItems() || len(e.Tracked()) == 0 {
			continue
		}
		var untracked dataset.Item
		found := false
		for it := 0; it < d.NumItems(); it++ {
			if _, ok := e.trIdx[dataset.Item(it)]; !ok {
				untracked = dataset.Item(it)
				found = true
				break
			}
		}
		if !found {
			continue
		}
		if _, ok := e.PairSupport(untracked, e.Tracked()[0]); ok {
			t.Error("untracked pair reported as tracked")
		}
		// Same-item degenerate query returns the singleton support.
		a := e.Tracked()[0]
		if sup, ok := e.PairSupport(a, a); !ok || sup != e.ItemSupport(a) {
			t.Errorf("PairSupport(a,a) = %d,%v; want %d,true", sup, ok, e.ItemSupport(a))
		}
		return
	}
}

func TestExtendedBoundSoundAndTighter(t *testing.T) {
	// The extended bound must stay sound (≥ support) and never be looser
	// than the base bound.
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d, e := buildExtendedRandom(r)
		for trial := 0; trial < 25; trial++ {
			x := randomNonEmptyItemset(r, d.NumItems())
			ext := e.UpperBound(x)
			base := e.Map.UpperBound(x)
			if ext > base {
				return false // looser than the base bound
			}
			if ext < int64(d.Support(x)) {
				return false // unsound
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestExtendedBoundExactForTrackedPairs(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d, e := buildExtendedRandom(r)
		tr := e.Tracked()
		if len(tr) < 2 {
			return true
		}
		a, b := tr[r.Intn(len(tr))], tr[r.Intn(len(tr))]
		if a == b {
			return true
		}
		x := dataset.NewItemset(a, b)
		return e.UpperBound(x) == int64(d.Support(x))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestExtendedPruner(t *testing.T) {
	d := dataset.MustFromTransactions(3, [][]dataset.Item{
		{0, 1}, {0, 1}, {0, 2}, {1, 2}, {2},
	})
	pages := dataset.PaginateN(d, 5)
	assign := [][]int{{0, 1}, {2, 3, 4}}
	e, err := BuildExtended(d, pages, assign, []dataset.Item{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	p := e.Pruner(2)
	// {0,1} is tracked with support 2 → exact, allowed.
	if !p.Allow(dataset.NewItemset(0, 1)) {
		t.Error("tracked frequent pair pruned")
	}
	if p.Exact != 1 {
		t.Errorf("Exact = %d, want 1", p.Exact)
	}
	// {0,2} is untracked (2 not tracked) → falls back to the bound.
	p.Allow(dataset.NewItemset(0, 2))
	if p.Exact != 1 {
		t.Error("untracked pair counted as exact")
	}
	var nilP *ExtendedPruner
	if !nilP.Allow(dataset.NewItemset(0)) {
		t.Error("nil pruner must admit everything")
	}
}

func TestExtendedSizeBytes(t *testing.T) {
	d := dataset.MustFromTransactions(4, [][]dataset.Item{{0, 1}, {2, 3}})
	pages := dataset.PaginateN(d, 2)
	e, err := BuildExtended(d, pages, [][]int{{0}, {1}}, []dataset.Item{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	// base flat store: 8·4·(2+1) = 96; pair cells: C(3,2)=3 × 2 seg × 4B
	// = 24; pair row headers: 2 × 24B = 48.
	if got := e.SizeBytes(); got != 96+24+48 {
		t.Errorf("SizeBytes = %d, want 168", got)
	}
}

func TestBuildExtendedValidation(t *testing.T) {
	d := dataset.MustFromTransactions(2, [][]dataset.Item{{0}, {1}})
	pages := dataset.PaginateN(d, 2)
	if _, err := BuildExtended(d, pages, [][]int{{0}, {1}}, []dataset.Item{5}); err == nil {
		t.Error("out-of-domain tracked item accepted")
	}
	if _, err := BuildExtended(d, pages, nil, nil); err == nil {
		t.Error("empty assignment accepted")
	}
	// Duplicate tracked items are deduplicated, not an error.
	e, err := BuildExtended(d, pages, [][]int{{0}, {1}}, []dataset.Item{1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Tracked()) != 2 {
		t.Errorf("Tracked = %v, want deduplicated [0 1]", e.Tracked())
	}
}

func TestPairIndexOf(t *testing.T) {
	// Triangular indexing is a bijection onto [0, C(n,2)).
	for n := 2; n <= 7; n++ {
		seen := make(map[int]bool)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				pi := pairIndexOf(i, j, n)
				if pi < 0 || pi >= n*(n-1)/2 || seen[pi] {
					t.Fatalf("pairIndexOf(%d,%d,%d) = %d invalid or duplicate", i, j, n, pi)
				}
				seen[pi] = true
			}
		}
	}
}
