package mining

import (
	"math/rand"
	"testing"

	"github.com/ossm-mining/ossm/internal/dataset"
)

// TestCountParallelLargeInput checks the serial count against the
// brute-force scan, the sharded scan (driven below conc.Resolve, so real
// goroutines run on any host) against the serial count, then
// CountParallel end to end.
func TestCountParallelLargeInput(t *testing.T) {
	r := rand.New(rand.NewSource(55))
	var txs []dataset.Itemset
	for i := 0; i < 4000; i++ {
		var tx []dataset.Item
		for j := 0; j < 6; j++ {
			tx = append(tx, dataset.Item(r.Intn(30)))
		}
		txs = append(txs, dataset.NewItemset(tx...))
	}
	mkCands := func() []*Candidate {
		var cs []*Candidate
		for a := 0; a < 30; a++ {
			for b := a + 1; b < 30; b++ {
				cs = append(cs, &Candidate{Items: dataset.NewItemset(dataset.Item(a), dataset.Item(b))})
			}
		}
		return cs
	}
	serial := mkCands()
	CountParallel(txs, serial, 2, 1, nil)
	items := make([]dataset.Itemset, len(serial))
	for i, c := range serial {
		items[i] = c.Items
	}
	for i, want := range scanCounts(items, txs) {
		if serial[i].Count != want {
			t.Fatalf("serial: candidate %v count %d ≠ scan %d", serial[i].Items, serial[i].Count, want)
		}
	}
	for _, workers := range []int{2, 4, 16} {
		par := mkCands()
		countSharded(txs, par, 2, workers, nil)
		for i := range serial {
			if serial[i].Count != par[i].Count {
				t.Fatalf("workers=%d: candidate %v count %d ≠ serial %d",
					workers, par[i].Items, par[i].Count, serial[i].Count)
			}
		}
	}
	viaKnob := mkCands()
	CountParallel(txs, viaKnob, 2, 4, nil)
	for i := range serial {
		if serial[i].Count != viaKnob[i].Count {
			t.Fatalf("CountParallel(workers=4): candidate %v count %d ≠ serial %d",
				viaKnob[i].Items, viaKnob[i].Count, serial[i].Count)
		}
	}
}

// TestCountTransactionIntoFuncMatchesCallback: the state-based counting
// path with a per-match callback sees exactly the matches the direct
// path reports.
func TestCountTransactionIntoFuncMatchesCallback(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	var txs []dataset.Itemset
	for i := 0; i < 300; i++ {
		var tx []dataset.Item
		for j := 0; j < 5; j++ {
			tx = append(tx, dataset.Item(r.Intn(12)))
		}
		txs = append(txs, dataset.NewItemset(tx...))
	}
	mkCands := func() []*Candidate {
		var cs []*Candidate
		for a := 0; a < 12; a++ {
			for b := a + 1; b < 12; b++ {
				cs = append(cs, &Candidate{Items: dataset.NewItemset(dataset.Item(a), dataset.Item(b))})
			}
		}
		return cs
	}
	direct := mkCands()
	directMatches := map[string]int{}
	treeA := NewHashTree(direct, 2)
	for _, tx := range txs {
		treeA.CountTransaction(tx, func(c *Candidate) { directMatches[c.Items.Key()]++ })
	}
	viaState := mkCands()
	stateMatches := map[string]int{}
	treeB := NewHashTree(viaState, 2)
	st := treeB.NewState()
	for _, tx := range txs {
		treeB.CountTransactionIntoFunc(st, tx, func(c *Candidate) { stateMatches[c.Items.Key()]++ })
	}
	treeB.Merge(viaState, st)
	for i := range direct {
		if direct[i].Count != viaState[i].Count {
			t.Fatalf("candidate %v: direct count %d ≠ state count %d",
				direct[i].Items, direct[i].Count, viaState[i].Count)
		}
	}
	if len(directMatches) != len(stateMatches) {
		t.Fatalf("callback match sets differ: %d vs %d keys", len(directMatches), len(stateMatches))
	}
	for k, v := range directMatches {
		if stateMatches[k] != v {
			t.Fatalf("callback matches for %s: direct %d ≠ state %d", k, v, stateMatches[k])
		}
	}
}
