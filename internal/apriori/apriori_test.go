package apriori

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/ossm-mining/ossm/internal/core"
	"github.com/ossm-mining/ossm/internal/dataset"
	"github.com/ossm-mining/ossm/internal/mining"
	"github.com/ossm-mining/ossm/internal/oracle"
)

// tinyDataset has hand-computable frequent itemsets at minCount 2:
// items: 0,1,2,3
// tx: {0,1,2}, {0,1}, {0,2}, {1,2}, {0,1,2,3}
// supports: 0:4 1:4 2:4 3:1
// pairs: {0,1}:3 {0,2}:3 {1,2}:3 {0,3}:1 {1,3}:1 {2,3}:1
// triple {0,1,2}: 2
func tinyDataset() *dataset.Dataset {
	return dataset.MustFromTransactions(4, [][]dataset.Item{
		{0, 1, 2},
		{0, 1},
		{0, 2},
		{1, 2},
		{0, 1, 2, 3},
	})
}

func TestMineTiny(t *testing.T) {
	res, err := Mine(tinyDataset(), 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.NumFrequent(); got != 7 {
		t.Fatalf("NumFrequent = %d, want 7 (3 singletons + 3 pairs + 1 triple); levels %+v", got, res.Levels)
	}
	wantCounts := map[string]int64{
		"0": 4, "1": 4, "2": 4,
		"0,1": 3, "0,2": 3, "1,2": 3,
		"0,1,2": 2,
	}
	for _, c := range res.All() {
		want, ok := wantCounts[c.Items.Key()]
		if !ok {
			t.Errorf("unexpected frequent itemset %v", c.Items)
			continue
		}
		if c.Count != want {
			t.Errorf("support(%v) = %d, want %d", c.Items, c.Count, want)
		}
		delete(wantCounts, c.Items.Key())
	}
	for k := range wantCounts {
		t.Errorf("missing frequent itemset {%s}", k)
	}
	if got, ok := res.Support(dataset.NewItemset(0, 1)); !ok || got != 3 {
		t.Errorf("Support({0,1}) = %d,%v; want 3,true", got, ok)
	}
	if _, ok := res.Support(dataset.NewItemset(3)); ok {
		t.Error("item 3 (support 1) reported frequent")
	}
}

func TestMineMinCountValidation(t *testing.T) {
	if _, err := Mine(tinyDataset(), 0, Options{}); err == nil {
		t.Error("minCount 0 accepted")
	}
}

func TestMineMaxLen(t *testing.T) {
	res, err := Mine(tinyDataset(), 2, Options{Options: mining.Options{MaxLen: 2}})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range res.Levels {
		if l.K > 2 {
			t.Errorf("level %d produced despite MaxLen 2", l.K)
		}
	}
	res1, err := Mine(tinyDataset(), 2, Options{Options: mining.Options{MaxLen: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res1.Levels) != 1 {
		t.Errorf("MaxLen 1 produced %d levels", len(res1.Levels))
	}
}

func TestMinCountFor(t *testing.T) {
	d := tinyDataset() // 5 transactions
	cases := []struct {
		frac float64
		want int64
	}{
		{0.01, 1}, {0.2, 1}, {0.21, 2}, {0.4, 2}, {1.0, 5},
	}
	for _, c := range cases {
		if got := mining.MinCountFor(d, c.frac); got != c.want {
			t.Errorf("MinCountFor(%g) = %d, want %d", c.frac, got, c.want)
		}
	}
}

// bruteForce enumerates frequent itemsets by exhaustive subset counting
// (small domains only).
func bruteForce(d *dataset.Dataset, minCount int64) map[string]int64 {
	out := make(map[string]int64)
	k := d.NumItems()
	for mask := 1; mask < 1<<k; mask++ {
		var x dataset.Itemset
		for i := 0; i < k; i++ {
			if mask&(1<<i) != 0 {
				x = append(x, dataset.Item(i))
			}
		}
		if c := int64(d.Support(x)); c >= minCount {
			out[x.Key()] = c
		}
	}
	return out
}

func mapsEqual(a, b map[string]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
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

func TestMineMatchesBruteForce(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := randomDataset(r)
		minCount := int64(1 + r.Intn(d.NumTx()))
		res, err := Mine(d, minCount, Options{})
		if err != nil {
			return false
		}
		return mapsEqual(res.AsMap(), bruteForce(d, minCount))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestMineMatchesOracle compares Apriori with the brute-force oracle on
// random datasets, at 1, 2 and 4 workers and under every kind of filter
// (checkAgainstOracle).
func TestMineMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(18))
	for trial := 0; trial < 60; trial++ {
		d := oracle.RandomDataset(r, 2+r.Intn(22), 1+r.Intn(80), 0.05+0.3*r.Float64())
		minCount := int64(2 + r.Intn(1+d.NumTx()/8))
		checkAgainstOracle(t, fmt.Sprintf("trial %d", trial), r, d, minCount)
	}
}

// TestMineEdgeCasesMatchOracle runs the oracle comparison on the
// boundaries of pass 2: no, one or two frequent items, transactions left
// with fewer than two frequent items, and the highest item frequent.
func TestMineEdgeCasesMatchOracle(t *testing.T) {
	cases := []struct {
		name     string
		numItems int
		txs      [][]dataset.Item
	}{
		{"no frequent item", 3, [][]dataset.Item{{0}, {1}, {2}, {0, 1}}},
		{"one frequent item", 3, [][]dataset.Item{{0}, {0, 1}, {0, 2}, {}}},
		{"two frequent items", 3, [][]dataset.Item{{0, 1}, {0, 1}, {2}, {0}}},
		{"short transactions", 5, [][]dataset.Item{{0, 3}, {1, 4}, {0, 1}, {0, 1, 2}, {2}, {}}},
		{"highest item frequent", 40, [][]dataset.Item{{3, 39}, {3, 39}, {39}, {0, 39}, {0, 3, 39}}},
	}
	r := rand.New(rand.NewSource(7))
	for _, c := range cases {
		d := dataset.MustFromTransactions(c.numItems, c.txs)
		checkAgainstOracle(t, c.name, r, d, 2)
	}
}

// TestMineEveryPairPruned: when the filter rejects every pair, pass 2
// counts nothing and the result is the frequent singletons alone.
func TestMineEveryPairPruned(t *testing.T) {
	// Frequent items 0, 1 and 2 never share a transaction, so an OSSM
	// with one segment per transaction bounds every pair at 0.
	d := dataset.MustFromTransactions(3, [][]dataset.Item{{0}, {0}, {1}, {1}, {2}, {2}})
	seg, err := core.Segment(dataset.PageCounts(d, dataset.PaginateN(d, d.NumTx())),
		core.Options{Algorithm: core.AlgGreedy, TargetSegments: d.NumTx()})
	if err != nil {
		t.Fatal(err)
	}
	filters := map[string]core.Filter{
		"pruner": &core.Pruner{Map: seg.Map, MinCount: 2},
		"constraint": core.FilterFunc(func(x dataset.Itemset) bool {
			return len(x) < 2
		}),
	}
	want, err := oracle.Mine(d, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	for name, f := range filters {
		res, err := Mine(d, 2, Options{Options: mining.Options{Pruner: f}})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Equal(want) {
			t.Errorf("%s: got %v, want the singletons %v", name, res.AsMap(), want.AsMap())
		}
		st := res.Level(2).Stats
		if st.Generated != 3 || st.Pruned != 3 || st.Counted != 0 || st.TxScanned != 0 {
			t.Errorf("%s: pass-2 stats %+v, want 3 generated, 3 pruned, nothing counted", name, st)
		}
	}
}

// checkAgainstOracle mines d at 1, 2 and 4 workers three ways: with no
// filter, with an OSSM Pruner, and with a constraint that rejects every
// itemset holding one frequent pair. The constraint is anti-monotone, so
// the expected answer is the oracle's less the itemsets it rejects. A
// sound Pruner never rejects a frequent pair, so only the constraint
// shows whether pass 2 honours its admission decisions.
func checkAgainstOracle(t *testing.T, name string, r *rand.Rand, d *dataset.Dataset, minCount int64) {
	t.Helper()
	ref, err := oracle.Mine(d, minCount, 0)
	if err != nil {
		t.Fatal(err)
	}
	a, b := dataset.Item(0), dataset.Item(d.NumItems()-1)
	if l2 := ref.Level(2); l2 != nil {
		p := l2.Frequent[r.Intn(len(l2.Frequent))].Items
		a, b = p[0], p[1]
	}
	rejects := func(x dataset.Itemset) bool { return len(x) >= 2 && x.Contains(a) && x.Contains(b) }
	variants := []struct {
		name   string
		filter core.Filter
		drop   func(dataset.Itemset) bool
	}{
		{"plain", nil, nil},
		{"pruner", &core.Pruner{Map: buildOSSM(r, d), MinCount: minCount}, nil},
		{"constraint", core.FilterFunc(func(x dataset.Itemset) bool { return !rejects(x) }), rejects},
	}
	for _, v := range variants {
		want := map[string]int64{}
		for _, c := range ref.All() {
			if v.drop == nil || !v.drop(c.Items) {
				want[c.Items.Key()] = c.Count
			}
		}
		for _, workers := range []int{1, 2, 4} {
			res, err := Mine(d, minCount, Options{Options: mining.Options{Workers: workers, Pruner: v.filter}})
			if err != nil {
				t.Fatal(err)
			}
			if got := res.AsMap(); !mapsEqual(got, want) {
				t.Errorf("%s, %s, %d workers: got %v, want %v", name, v.name, workers, got, want)
			}
			for _, l := range res.Levels[1:] {
				if st := l.Stats; st.Generated != st.Pruned+st.Counted || st.Frequent != len(l.Frequent) {
					t.Errorf("%s, %s, %d workers: level %d stats %+v do not add up", name, v.name, workers, l.K, st)
				}
			}
		}
	}
}

// buildOSSM builds an OSSM over d with one of the segmentation
// algorithms, for pruning tests.
func buildOSSM(r *rand.Rand, d *dataset.Dataset) *core.Map {
	mPages := 1 + r.Intn(d.NumTx())
	pages := dataset.PaginateN(d, mPages)
	rows := dataset.PageCounts(d, pages)
	target := 1 + r.Intn(mPages)
	res, err := core.Segment(rows, core.Options{
		Algorithm:      core.AlgGreedy,
		TargetSegments: target,
		Seed:           r.Int63(),
	})
	if err != nil {
		panic(err)
	}
	return res.Map
}

// TestOSSMPruningIsLossless is the paper's core soundness claim applied
// to Apriori: mining with the OSSM filter produces exactly the same
// frequent itemsets and supports as mining without it.
func TestOSSMPruningIsLossless(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := randomDataset(r)
		minCount := int64(1 + r.Intn(d.NumTx()))
		plain, err := Mine(d, minCount, Options{})
		if err != nil {
			return false
		}
		pruner := &core.Pruner{Map: buildOSSM(r, d), MinCount: minCount}
		pruned, err := Mine(d, minCount, Options{Options: mining.Options{Pruner: pruner}})
		if err != nil {
			return false
		}
		return mapsEqual(plain.AsMap(), pruned.AsMap())
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestStatsAccounting(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	d := randomDataset(r)
	minCount := int64(2)
	pruner := &core.Pruner{Map: buildOSSM(r, d), MinCount: minCount}
	res, err := Mine(d, minCount, Options{Options: mining.Options{Pruner: pruner}})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range res.Levels {
		if l.K == 1 {
			continue
		}
		if l.Stats.Generated != l.Stats.Pruned+l.Stats.Counted {
			t.Errorf("level %d: generated %d ≠ pruned %d + counted %d",
				l.K, l.Stats.Generated, l.Stats.Pruned, l.Stats.Counted)
		}
		if l.Stats.Frequent != len(l.Frequent) {
			t.Errorf("level %d: stats.Frequent %d ≠ len(Frequent) %d",
				l.K, l.Stats.Frequent, len(l.Frequent))
		}
		if l.Stats.Frequent > l.Stats.Counted {
			t.Errorf("level %d: more frequent (%d) than counted (%d)",
				l.K, l.Stats.Frequent, l.Stats.Counted)
		}
	}
}

func TestOSSMPruningReducesCandidates(t *testing.T) {
	// On skew-structured data a fine OSSM must prune a meaningful share
	// of candidate pairs (this is Figure 4(b)'s phenomenon).
	b := dataset.NewBuilder(10)
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 400; i++ {
		var tx []dataset.Item
		if i < 200 { // first half: items 0-4 co-occur
			for j := 0; j < 5; j++ {
				if r.Float64() < 0.8 {
					tx = append(tx, dataset.Item(j))
				}
			}
		} else { // second half: items 5-9 co-occur
			for j := 5; j < 10; j++ {
				if r.Float64() < 0.8 {
					tx = append(tx, dataset.Item(j))
				}
			}
		}
		if err := b.Append(tx); err != nil {
			t.Fatal(err)
		}
	}
	d := b.Build()
	minCount := int64(40)
	pages := dataset.PaginateN(d, 8)
	rows := dataset.PageCounts(d, pages)
	seg, err := core.Segment(rows, core.Options{Algorithm: core.AlgGreedy, TargetSegments: 4})
	if err != nil {
		t.Fatal(err)
	}
	pruner := &core.Pruner{Map: seg.Map, MinCount: minCount}
	res, err := Mine(d, minCount, Options{Options: mining.Options{Pruner: pruner}})
	if err != nil {
		t.Fatal(err)
	}
	l2 := res.Levels[1]
	if l2.Stats.Pruned == 0 {
		t.Error("OSSM pruned no candidate pairs on strongly skewed data")
	}
	// Every cross-half pair (e.g. {0,7}) is infrequent and should be
	// pruned by a half-respecting segmentation.
	if float64(l2.Stats.Pruned) < 0.3*float64(l2.Stats.Generated) {
		t.Errorf("OSSM pruned only %d of %d candidate pairs", l2.Stats.Pruned, l2.Stats.Generated)
	}
}

func TestHashTreeDuplicatePathsDoNotDoubleCount(t *testing.T) {
	// Items 0 and 32 collide under the default fanout-32 hash. Build
	// candidates around the collision and verify exact counts.
	d := dataset.MustFromTransactions(64, [][]dataset.Item{
		{0, 32, 33},
		{0, 32, 33},
		{0, 33},
		{32, 33},
	})
	res, err := Mine(d, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{
		"0": 3, "32": 3, "33": 4,
		"0,32": 2, "0,33": 3, "32,33": 3,
		"0,32,33": 2,
	}
	if !mapsEqual(res.AsMap(), want) {
		t.Errorf("got %v, want %v", res.AsMap(), want)
	}
}
