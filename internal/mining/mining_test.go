package mining

import (
	"testing"

	"github.com/ossm-mining/ossm/internal/dataset"
)

func sampleResult() *Result {
	return FromMap(2, []Counted{
		{Items: dataset.NewItemset(0), Count: 5},
		{Items: dataset.NewItemset(1), Count: 4},
		{Items: dataset.NewItemset(0, 1), Count: 3},
		{Items: dataset.NewItemset(2), Count: 2},
	})
}

func TestResultAccessors(t *testing.T) {
	r := sampleResult()
	if got := r.NumFrequent(); got != 4 {
		t.Errorf("NumFrequent = %d, want 4", got)
	}
	if got := len(r.All()); got != 4 {
		t.Errorf("All = %d entries, want 4", got)
	}
	if sup, ok := r.Support(dataset.NewItemset(0, 1)); !ok || sup != 3 {
		t.Errorf("Support({0,1}) = %d,%v", sup, ok)
	}
	if _, ok := r.Support(dataset.NewItemset(5)); ok {
		t.Error("missing itemset reported supported")
	}
	if _, ok := r.Support(dataset.NewItemset(0, 2)); ok {
		t.Error("absent pair reported supported")
	}
	m := r.AsMap()
	if len(m) != 4 || m["0,1"] != 3 {
		t.Errorf("AsMap = %v", m)
	}
	if l := r.Level(1); l == nil || len(l.Frequent) != 3 {
		t.Errorf("Level(1) = %+v", l)
	}
	if r.Level(7) != nil {
		t.Error("Level(7) should be nil")
	}
}

func TestResultEqual(t *testing.T) {
	a, b := sampleResult(), sampleResult()
	if !a.Equal(b) {
		t.Error("identical results not equal")
	}
	c := FromMap(2, []Counted{{Items: dataset.NewItemset(0), Count: 5}})
	if a.Equal(c) {
		t.Error("different results equal")
	}
	d := FromMap(2, []Counted{
		{Items: dataset.NewItemset(0), Count: 5},
		{Items: dataset.NewItemset(1), Count: 9}, // different count
		{Items: dataset.NewItemset(0, 1), Count: 3},
		{Items: dataset.NewItemset(2), Count: 2},
	})
	if a.Equal(d) {
		t.Error("different supports equal")
	}
}

func TestFromMapGroupsAndSorts(t *testing.T) {
	r := FromMap(1, []Counted{
		{Items: dataset.NewItemset(2, 3), Count: 1},
		{Items: dataset.NewItemset(0, 1), Count: 1},
		{Items: dataset.NewItemset(4), Count: 1},
	})
	if len(r.Levels) != 2 {
		t.Fatalf("levels = %d, want 2", len(r.Levels))
	}
	if r.Levels[0].K != 1 || r.Levels[1].K != 2 {
		t.Errorf("level order wrong: %d, %d", r.Levels[0].K, r.Levels[1].K)
	}
	l2 := r.Levels[1].Frequent
	if !l2[0].Items.Equal(dataset.NewItemset(0, 1)) {
		t.Errorf("level 2 not sorted: %v", l2)
	}
	if r.Levels[1].Stats.Frequent != 2 {
		t.Errorf("stats.Frequent = %d", r.Levels[1].Stats.Frequent)
	}
}

func TestFromMapSkipsEmptyLevels(t *testing.T) {
	// Sizes 1 and 3 present, 2 absent — no empty level entry in between.
	r := FromMap(1, []Counted{
		{Items: dataset.NewItemset(0), Count: 2},
		{Items: dataset.NewItemset(0, 1, 2), Count: 1},
	})
	if len(r.Levels) != 2 {
		t.Fatalf("levels = %d, want 2", len(r.Levels))
	}
	if r.Levels[1].K != 3 {
		t.Errorf("second level K = %d, want 3", r.Levels[1].K)
	}
}

func TestMinCountForAndValidate(t *testing.T) {
	d := dataset.MustFromTransactions(2, [][]dataset.Item{{0}, {1}, {0}, {1}, {0}})
	cases := []struct {
		frac float64
		want int64
	}{
		{0, 1}, {0.2, 1}, {0.21, 2}, {1, 5},
	}
	for _, c := range cases {
		if got := MinCountFor(d, c.frac); got != c.want {
			t.Errorf("MinCountFor(%g) = %d, want %d", c.frac, got, c.want)
		}
	}
	if err := ValidateMinCount(0); err == nil {
		t.Error("minCount 0 accepted")
	}
	if err := ValidateMinCount(1); err != nil {
		t.Errorf("minCount 1 rejected: %v", err)
	}
}

func TestCountStateSharedTree(t *testing.T) {
	// Two workers over disjoint transaction shards must reproduce the
	// serial counts exactly.
	cands := []*Candidate{
		{Items: dataset.NewItemset(0, 1)},
		{Items: dataset.NewItemset(1, 2)},
		{Items: dataset.NewItemset(0, 2)},
	}
	tree := NewHashTree(cands, 2)
	txs := []dataset.Itemset{
		dataset.NewItemset(0, 1, 2),
		dataset.NewItemset(0, 1),
		dataset.NewItemset(1, 2),
		dataset.NewItemset(0, 2),
		dataset.NewItemset(0, 1, 2),
	}
	st1, st2 := tree.NewState(), tree.NewState()
	for _, tx := range txs[:3] {
		tree.CountTransactionInto(st1, tx)
	}
	for _, tx := range txs[3:] {
		tree.CountTransactionInto(st2, tx)
	}
	tree.Merge(cands, st1)
	tree.Merge(cands, st2)
	want := []int64{3, 3, 3}
	for i, c := range cands {
		if c.Count != want[i] {
			t.Errorf("candidate %v count = %d, want %d", c.Items, c.Count, want[i])
		}
	}
}

func TestCountStateShortTransaction(t *testing.T) {
	cands := []*Candidate{{Items: dataset.NewItemset(0, 1, 2)}}
	tree := NewHashTree(cands, 3)
	st := tree.NewState()
	tree.CountTransactionInto(st, dataset.NewItemset(0, 1))
	tree.Merge(cands, st)
	if cands[0].Count != 0 {
		t.Error("short transaction counted")
	}
}
