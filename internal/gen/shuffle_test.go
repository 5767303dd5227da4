package gen

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/ossm-mining/ossm/internal/dataset"
)

func TestShuffleBlocksValidation(t *testing.T) {
	d := dataset.MustFromTransactions(2, [][]dataset.Item{{0}, {1}})
	if _, err := ShuffleBlocks(d, 0, 1); err == nil {
		t.Error("blockTx 0 accepted")
	}
	if _, err := ShuffleBlocks(d, -3, 1); err == nil {
		t.Error("negative blockTx accepted")
	}
}

func TestShuffleBlocksPreservesMultiset(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 2 + r.Intn(5)
		n := 1 + r.Intn(50)
		b := dataset.NewBuilder(k)
		for i := 0; i < n; i++ {
			sz := r.Intn(k + 1)
			tx := make([]dataset.Item, sz)
			for j := range tx {
				tx[j] = dataset.Item(r.Intn(k))
			}
			if err := b.Append(tx); err != nil {
				return false
			}
		}
		d := b.Build()
		blockTx := 1 + r.Intn(8)
		sh, err := ShuffleBlocks(d, blockTx, seed)
		if err != nil {
			return false
		}
		if sh.NumTx() != d.NumTx() {
			return false
		}
		// Global item counts unchanged.
		a, bb := d.ItemCounts(0, d.NumTx()), sh.ItemCounts(0, sh.NumTx())
		for it := range a {
			if a[it] != bb[it] {
				return false
			}
		}
		// Transaction multiset unchanged.
		count := map[string]int{}
		for i := 0; i < d.NumTx(); i++ {
			count[d.Tx(i).Key()]++
		}
		for i := 0; i < sh.NumTx(); i++ {
			count[sh.Tx(i).Key()]--
		}
		for _, c := range count {
			if c != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestShuffleBlocksKeepsBlockContiguity(t *testing.T) {
	// Transactions carry their original index as their only item; after a
	// block shuffle, every aligned block of the output must be a
	// contiguous ascending run of the input.
	const n, block = 30, 5
	b := dataset.NewBuilder(n)
	for i := 0; i < n; i++ {
		if err := b.Append([]dataset.Item{dataset.Item(i)}); err != nil {
			t.Fatal(err)
		}
	}
	sh, err := ShuffleBlocks(b.Build(), block, 3)
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < n; lo += block {
		first := sh.Tx(lo)[0]
		if int(first)%block != 0 {
			t.Fatalf("output block at %d starts mid-input-block (item %d)", lo, first)
		}
		for o := 1; o < block; o++ {
			if sh.Tx(lo + o)[0] != first+dataset.Item(o) {
				t.Fatalf("output block at %d not contiguous", lo)
			}
		}
	}
}

func TestShuffleBlocksDeterministic(t *testing.T) {
	d := mustQuest(DefaultQuest(200, 1))
	a, err := ShuffleBlocks(d, 10, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ShuffleBlocks(d, 10, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < a.NumTx(); i++ {
		if !a.Tx(i).Equal(b.Tx(i)) {
			t.Fatal("same seed produced different shuffles")
		}
	}
	c, err := ShuffleBlocks(d, 10, 43)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := 0; i < a.NumTx(); i++ {
		if !a.Tx(i).Equal(c.Tx(i)) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical shuffles")
	}
}

func TestShuffleBlocksOversizedBlock(t *testing.T) {
	d := dataset.MustFromTransactions(2, [][]dataset.Item{{0}, {1}, {0, 1}})
	sh, err := ShuffleBlocks(d, 100, 9)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < d.NumTx(); i++ {
		if !sh.Tx(i).Equal(d.Tx(i)) {
			t.Error("single-block shuffle should be the identity")
		}
	}
}
