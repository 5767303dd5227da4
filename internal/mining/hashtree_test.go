package mining

import (
	"math/rand"
	"testing"

	"github.com/ossm-mining/ossm/internal/dataset"
)

// CountTransaction adds tx to the counts of every candidate it contains,
// calling onMatch, if non-nil, once per contained candidate.
func (t *HashTree) CountTransaction(tx dataset.Itemset, onMatch func(*Candidate)) {
	st := t.AcquireState()
	defer ReleaseState(st)
	t.walk(tx, st.counts, onMatch)
	t.Merge(t.cands, st)
}

// NewState allocates counting state sized to the tree.
func (t *HashTree) NewState() *CountState {
	return &CountState{counts: make([]int64, len(t.cands))}
}

func TestHashTreeLeafSplit(t *testing.T) {
	// More than maxLeaf candidates with a shared first item force leaf
	// splits several levels deep.
	var cands []*Candidate
	for j := 1; j <= 20; j++ {
		cands = append(cands, &Candidate{Items: dataset.NewItemset(0, dataset.Item(j))})
	}
	tree := NewHashTree(cands, 2)
	tx := dataset.NewItemset(0, 3, 7, 11)
	tree.CountTransaction(tx, nil)
	for _, c := range cands {
		want := int64(0)
		if c.Items.SubsetOf(tx) {
			want = 1
		}
		if c.Count != want {
			t.Errorf("candidate %v count = %d, want %d", c.Items, c.Count, want)
		}
	}
}

func TestHashTreeShortTransactionSkipped(t *testing.T) {
	cands := []*Candidate{{Items: dataset.NewItemset(1, 2, 3)}}
	tree := NewHashTree(cands, 3)
	tree.CountTransaction(dataset.NewItemset(1, 2), nil)
	if cands[0].Count != 0 {
		t.Error("transaction shorter than candidate size was counted")
	}
}

func TestHashTreeOnMatchOncePerTransaction(t *testing.T) {
	// Items 0 and 32 collide under fanout 32, creating duplicate hash
	// paths; onMatch must still fire exactly once per contained candidate
	// per transaction.
	cands := []*Candidate{
		{Items: dataset.NewItemset(0, 33)},
		{Items: dataset.NewItemset(32, 33)},
	}
	tree := NewHashTree(cands, 2)
	calls := map[string]int{}
	tx := dataset.NewItemset(0, 32, 33)
	tree.CountTransaction(tx, func(c *Candidate) { calls[c.Items.Key()]++ })
	for _, c := range cands {
		if calls[c.Items.Key()] != 1 {
			t.Errorf("onMatch for %v fired %d times, want 1", c.Items, calls[c.Items.Key()])
		}
		if c.Count != 1 {
			t.Errorf("count for %v = %d, want 1", c.Items, c.Count)
		}
	}
}

// scanCounts is the brute-force oracle for every counting entry point:
// a plain SubsetOf scan of every candidate against every transaction.
func scanCounts(cands []dataset.Itemset, txs []dataset.Itemset) []int64 {
	want := make([]int64, len(cands))
	for _, tx := range txs {
		for i, c := range cands {
			if c.SubsetOf(tx) {
				want[i]++
			}
		}
	}
	return want
}

func mkCandidates(items []dataset.Itemset) []*Candidate {
	cs := make([]*Candidate, len(items))
	for i, x := range items {
		cs[i] = &Candidate{Items: x}
	}
	return cs
}

// checkCountingEntryPoints runs CountTransaction, CountTransactionInto
// over shards then Merge, and CountTransactionIntoFunc against the scan
// oracle. Both callbacks must fire exactly once per contained candidate
// per transaction.
func checkCountingEntryPoints(t *testing.T, items []dataset.Itemset, size int, txs []dataset.Itemset, shards int) {
	t.Helper()
	want := scanCounts(items, txs)
	idx := make(map[*Candidate]int)

	// checkMatches compares one transaction's callback matches with the
	// candidates that transaction contains.
	checkMatches := func(path string, tx dataset.Itemset, got []*Candidate) {
		t.Helper()
		seen := make([]int, len(items))
		for _, c := range got {
			seen[idx[c]]++
		}
		for i, c := range items {
			exp := 0
			if c.SubsetOf(tx) {
				exp = 1
			}
			if seen[i] != exp {
				t.Fatalf("%s: tx %v: onMatch for %v fired %d times, want %d", path, tx, c, seen[i], exp)
			}
		}
	}

	direct := mkCandidates(items)
	for i, c := range direct {
		idx[c] = i
	}
	tree := NewHashTree(direct, size)
	var got []*Candidate
	for _, tx := range txs {
		got = got[:0]
		tree.CountTransaction(tx, func(c *Candidate) { got = append(got, c) })
		checkMatches("CountTransaction", tx, got)
	}
	for i, c := range direct {
		if c.Count != want[i] {
			t.Fatalf("CountTransaction: candidate %v count %d, scan %d", c.Items, c.Count, want[i])
		}
	}

	sharded := mkCandidates(items)
	tree = NewHashTree(sharded, size)
	states := make([]*CountState, shards)
	for w := range states {
		states[w] = tree.NewState()
	}
	for i, tx := range txs {
		tree.CountTransactionInto(states[i%shards], tx)
	}
	for _, st := range states {
		tree.Merge(sharded, st)
	}
	for i, c := range sharded {
		if c.Count != want[i] {
			t.Fatalf("CountTransactionInto over %d shards: candidate %v count %d, scan %d", shards, c.Items, c.Count, want[i])
		}
	}

	viaFunc := mkCandidates(items)
	for i, c := range viaFunc {
		idx[c] = i
	}
	tree = NewHashTree(viaFunc, size)
	st := tree.NewState()
	for _, tx := range txs {
		got = got[:0]
		tree.CountTransactionIntoFunc(st, tx, func(c *Candidate) { got = append(got, c) })
		checkMatches("CountTransactionIntoFunc", tx, got)
	}
	tree.Merge(viaFunc, st)
	for i, c := range viaFunc {
		if c.Count != want[i] {
			t.Fatalf("CountTransactionIntoFunc: candidate %v count %d, scan %d", c.Items, c.Count, want[i])
		}
	}
}

// randomCandidates draws n distinct itemsets of the given size over
// items 0..domain-1.
func randomCandidates(r *rand.Rand, n, size, domain int) []dataset.Itemset {
	seen := make(map[string]bool, n)
	out := make([]dataset.Itemset, 0, n)
	for len(out) < n {
		raw := make([]dataset.Item, size)
		for i := range raw {
			raw[i] = dataset.Item(r.Intn(domain))
		}
		c := dataset.NewItemset(raw...)
		if len(c) != size || seen[c.Key()] {
			continue
		}
		seen[c.Key()] = true
		out = append(out, c)
	}
	return out
}

// TestHashTreeMatchesSubsetScan is the differential gate for hash-tree
// counting, over candidate sizes 1–5 and the sizes at and past the
// path's stack buffer. Items 0..299 collide at the default fanout and
// at the fanout grown for ~20k pairs; one-candidate trees count from a
// root leaf (depth 0 < size); half the transactions extend a candidate
// so every size sees matches, and some are shorter than the candidate
// size.
// Cases with extra items draw transactions longer than the traversal's
// hashStack, so its heap buffer counts too.
func TestHashTreeMatchesSubsetScan(t *testing.T) {
	const domain = 300
	cases := []struct{ size, cands, txs, extra int }{
		{1, 1, 60, 20}, {1, 9, 60, 20}, {1, 300, 200, 20},
		{2, 1, 60, 20}, {2, 9, 100, 20}, {2, 600, 200, 20}, {2, 9000, 120, 20}, {2, 20000, 120, 20},
		{3, 1, 60, 20}, {3, 9, 100, 20}, {3, 2000, 200, 20},
		{4, 1, 60, 20}, {4, 400, 200, 20},
		{5, 1, 60, 20}, {5, 300, 200, 20},
		// A path holds size-1 items: size 9 fills the stack buffer, and
		// size 10 takes the heap branch.
		{9, 40, 100, 20}, {10, 40, 100, 20},
		// Transactions past hashStack items.
		{1, 300, 40, 3 * hashStack}, {2, 20000, 40, 3 * hashStack},
		{3, 2000, 40, 2 * hashStack}, {9, 40, 40, 2 * hashStack},
	}
	for _, tc := range cases {
		r := rand.New(rand.NewSource(int64(tc.size*100003 + tc.cands)))
		items := randomCandidates(r, tc.cands, tc.size, domain)
		txs := make([]dataset.Itemset, tc.txs)
		long := 0
		for i := range txs {
			var raw []dataset.Item
			if i%2 == 0 {
				raw = append(raw, items[r.Intn(len(items))]...)
			}
			for j, n := 0, r.Intn(tc.extra); j < n; j++ {
				raw = append(raw, dataset.Item(r.Intn(domain)))
			}
			if i%7 == 0 {
				raw = raw[:min(len(raw), tc.size-1)]
			}
			txs[i] = dataset.NewItemset(raw...)
			if len(txs[i]) > hashStack {
				long++
			}
		}
		if tc.extra > hashStack && long == 0 {
			t.Fatalf("size %d: no transaction exceeds %d items", tc.size, hashStack)
		}
		checkCountingEntryPoints(t, items, tc.size, txs, 3)
	}
}

// TestFanoutGrowsWithCandidates pins the fanout rule: full-depth trees
// average at most defaultMaxLeaf candidates per leaf, and small passes
// keep defaultFanout.
func TestFanoutGrowsWithCandidates(t *testing.T) {
	for _, tc := range []struct{ n, size, want int }{
		{0, 2, defaultFanout},
		{70, 2, defaultFanout},
		{8192, 2, defaultFanout},
		{30000, 2, 62},
		{20000, 2, 50},
		{300, 1, 38},
		{100000, 3, defaultFanout},
	} {
		if got := fanoutFor(tc.n, tc.size); got != tc.want {
			t.Errorf("fanoutFor(%d, %d) = %d, want %d", tc.n, tc.size, got, tc.want)
		}
	}
}
