package partition

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/ossm-mining/ossm/internal/apriori"
	"github.com/ossm-mining/ossm/internal/core"
	"github.com/ossm-mining/ossm/internal/dataset"
	"github.com/ossm-mining/ossm/internal/mining"
)

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

func TestPartitionMatchesApriori(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := randomDataset(r)
		minCount := int64(1 + r.Intn(d.NumTx()))
		np := 1 + r.Intn(minInt(d.NumTx(), 6))
		ap, err := apriori.Mine(d, minCount, apriori.Options{})
		if err != nil {
			return false
		}
		pt, err := Mine(d, minCount, Options{NumPartitions: np})
		if err != nil {
			return false
		}
		return ap.Equal(pt)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestPartitionWithGlobalOSSMIsLossless(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := randomDataset(r)
		minCount := int64(1 + r.Intn(d.NumTx()))
		np := 1 + r.Intn(minInt(d.NumTx(), 5))
		plain, err := Mine(d, minCount, Options{NumPartitions: np})
		if err != nil {
			return false
		}
		mPages := 1 + r.Intn(d.NumTx())
		pages := dataset.PaginateN(d, mPages)
		seg, err := core.Segment(dataset.PageCounts(d, pages), core.Options{
			Algorithm:      core.AlgGreedy,
			TargetSegments: 1 + r.Intn(mPages),
			Seed:           seed,
		})
		if err != nil {
			return false
		}
		pruner := &core.Pruner{Map: seg.Map, MinCount: minCount}
		withOSSM, err := Mine(d, minCount, Options{Options: mining.Options{Pruner: pruner}, NumPartitions: np})
		if err != nil {
			return false
		}
		return plain.Equal(withOSSM)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestGlobalOSSMPrunesLocallyFrequentGlobalCandidates(t *testing.T) {
	// Two disjoint halves: pairs within a half are locally frequent in
	// one partition but globally infrequent cross-half pairs never arise;
	// however half-pairs frequent in their partition may be globally
	// infrequent — the global OSSM should prune some before phase 2.
	b := dataset.NewBuilder(8)
	r := rand.New(rand.NewSource(6))
	for i := 0; i < 400; i++ {
		var tx []dataset.Item
		lo, hi := 0, 4
		if i >= 200 {
			lo, hi = 4, 8
		}
		for j := lo; j < hi; j++ {
			if r.Float64() < 0.6 {
				tx = append(tx, dataset.Item(j))
			}
		}
		if err := b.Append(tx); err != nil {
			t.Fatal(err)
		}
	}
	d := b.Build()
	minCount := int64(150) // frequent within a half (≈120 of 200) is infrequent globally

	pages := dataset.PaginateN(d, 8)
	seg, err := core.Segment(dataset.PageCounts(d, pages), core.Options{
		Algorithm: core.AlgGreedy, TargetSegments: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	pruner := &core.Pruner{Map: seg.Map, MinCount: minCount}
	res, err := Mine(d, minCount, Options{Options: mining.Options{Pruner: pruner}, NumPartitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	if StatsOf(res).GlobalPruned == 0 {
		t.Errorf("global OSSM pruned nothing; candidates=%d", StatsOf(res).GlobalCandidates)
	}
	// And the result still matches Apriori.
	ap, err := apriori.Mine(d, minCount, apriori.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !ap.Equal(res) {
		t.Error("pruned Partition result differs from Apriori")
	}
}

func TestLocalMinCount(t *testing.T) {
	cases := []struct {
		minCount int64
		partLen  int
		total    int
		want     int64
	}{
		{100, 50, 100, 50},
		{100, 33, 100, 33},
		{101, 33, 100, 34}, // ceil(33.33)
		{1, 10, 1000, 1},   // floor would be 0 → clamp to 1
		{5, 5, 5, 5},
	}
	for _, c := range cases {
		if got := localMinCount(c.minCount, c.partLen, c.total); got != c.want {
			t.Errorf("localMinCount(%d, %d, %d) = %d, want %d", c.minCount, c.partLen, c.total, got, c.want)
		}
	}
}

func TestPartitionValidation(t *testing.T) {
	d := dataset.MustFromTransactions(2, [][]dataset.Item{{0}, {1}})
	if _, err := Mine(d, 0, Options{}); err == nil {
		t.Error("minCount 0 accepted")
	}
	if _, err := Mine(d, 1, Options{NumPartitions: 3}); err == nil {
		t.Error("more partitions than transactions accepted")
	}
	if _, err := Mine(d, 1, Options{NumPartitions: -1}); err == nil {
		t.Error("negative partitions accepted")
	}
}

func TestIntersect(t *testing.T) {
	cases := []struct{ a, b, want tidlist }{
		{tidlist{1, 3, 5}, tidlist{3, 5, 7}, tidlist{3, 5}},
		{tidlist{1, 2}, tidlist{3, 4}, nil},
		{nil, tidlist{1}, nil},
		{tidlist{2, 4, 6}, tidlist{2, 4, 6}, tidlist{2, 4, 6}},
	}
	for _, c := range cases {
		got := intersect(c.a, c.b)
		if len(got) != len(c.want) {
			t.Errorf("intersect(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("intersect(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
			}
		}
	}
}

func TestStatsSanity(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	d := randomDataset(r)
	res, err := Mine(d, 2, Options{NumPartitions: minInt(3, d.NumTx())})
	if err != nil {
		t.Fatal(err)
	}
	if StatsOf(res).GlobalCandidates > StatsOf(res).LocalFrequent {
		t.Errorf("distinct global candidates (%d) exceed total local frequents (%d)",
			StatsOf(res).GlobalCandidates, StatsOf(res).LocalFrequent)
	}
	if res.NumFrequent() > StatsOf(res).GlobalCandidates {
		t.Errorf("more frequent itemsets (%d) than candidates (%d)",
			res.NumFrequent(), StatsOf(res).GlobalCandidates)
	}
}

// TestPartitionParallelMatchesSerial checks Mine end to end with the
// Workers knob, then drives countGlobal with real goroutine pools
// (bypassing the NumCPU cap so the fan-out runs on any host): identical
// counts slot for slot. Under -race this also proves the candidates
// share no mutable state.
func TestPartitionParallelMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	b := dataset.NewBuilder(20)
	for i := 0; i < 1000; i++ {
		var tx []dataset.Item
		for j := 0; j < 20; j++ {
			if r.Float64() < 0.3 {
				tx = append(tx, dataset.Item(j))
			}
		}
		if err := b.Append(tx); err != nil {
			t.Fatal(err)
		}
	}
	d := b.Build()
	minCount := int64(60)
	serial, err := Mine(d, minCount, Options{NumPartitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Mine(d, minCount, Options{Options: mining.Options{Workers: 4}, NumPartitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !serial.Equal(par) {
		t.Fatal("Workers=4 result differs from serial")
	}

	// Below Mine: the phase-2 scan itself, with forced pools.
	tids := buildTidlists(d, 0, d.NumTx(), nil)
	var toCount []dataset.Itemset
	for a := 0; a < 20; a++ {
		for b2 := a + 1; b2 < 20; b2++ {
			toCount = append(toCount, dataset.NewItemset(dataset.Item(a), dataset.Item(b2)))
			for c := b2 + 1; c < 20; c++ {
				toCount = append(toCount, dataset.NewItemset(dataset.Item(a), dataset.Item(b2), dataset.Item(c)))
			}
		}
	}
	want := countGlobal(tids, toCount, minCount, 1, nil)
	for _, pool := range []int{2, 4} {
		got := countGlobal(tids, toCount, minCount, pool, nil)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("pool=%d: count of %v is %d, serial %d", pool, toCount[i], got[i], want[i])
			}
		}
	}
}
