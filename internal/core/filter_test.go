package core

import (
	"testing"

	"github.com/ossm-mining/ossm/internal/dataset"
)

func TestExtendedPrunerAllowPair(t *testing.T) {
	d := dataset.MustFromTransactions(3, [][]dataset.Item{
		{0, 1}, {0, 1}, {0, 2}, {1, 2},
	})
	pages := dataset.PaginateN(d, 4)
	assign := [][]int{{0, 1}, {2, 3}}
	e, err := BuildExtended(d, pages, assign, []dataset.Item{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	p := e.Pruner(2)
	// Tracked pair {0,1}: exact support 2 ≥ 2 → allowed, counted exact.
	if !p.AllowPair(0, 1) {
		t.Error("tracked frequent pair rejected")
	}
	if p.Exact != 1 {
		t.Errorf("Exact = %d, want 1", p.Exact)
	}
	// Untracked pair {0,2}: falls back to the pair bound.
	p.AllowPair(0, 2)
	if p.Exact != 1 {
		t.Error("untracked pair counted exact")
	}
	var nilP *ExtendedPruner
	if !nilP.AllowPair(0, 1) {
		t.Error("nil extended pruner must allow")
	}
}
