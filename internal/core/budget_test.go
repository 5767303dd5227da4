package core

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/ossm-mining/ossm/internal/dataset"
)

// budgetRows builds n synthetic page rows over k items.
func budgetRows(n, k int, seed int64) [][]uint32 {
	r := rand.New(rand.NewSource(seed))
	rows := make([][]uint32, n)
	for i := range rows {
		rows[i] = make([]uint32, k)
		for j := range rows[i] {
			rows[i][j] = uint32(r.Intn(50))
		}
	}
	return rows
}

// TestSegmentBudgetPaths drives every algorithm through the interesting
// n_user budgets: the minimum (1), the identity (== pages), and an
// over-ask (> pages, clamped). In every case the produced map must keep
// the exact per-item totals — merging only ever adds rows together.
func TestSegmentBudgetPaths(t *testing.T) {
	const pages, items = 12, 9
	rows := budgetRows(pages, items, 3)
	wantTotals := make([]int64, items)
	for _, row := range rows {
		for j, c := range row {
			wantTotals[j] += int64(c)
		}
	}
	budgets := []struct {
		name         string
		target       int
		wantSegments int
	}{
		{"one segment", 1, 1},
		{"half the pages", pages / 2, pages / 2},
		{"equal to pages", pages, pages},
		{"more than pages", pages + 25, pages},
	}
	for _, alg := range allAlgorithms() {
		for _, b := range budgets {
			t.Run(fmt.Sprintf("%s/%s", alg, b.name), func(t *testing.T) {
				// mid = pages keeps MidSegments ≥ target valid for every
				// budget, including the over-ask (target is clamped first).
				res, err := Segment(rows, optsFor(alg, b.target, pages, 7))
				if err != nil {
					t.Fatal(err)
				}
				m := res.Map
				if m.NumSegments() != b.wantSegments {
					t.Fatalf("segments = %d, want %d", m.NumSegments(), b.wantSegments)
				}
				for j, want := range wantTotals {
					if got := m.ItemSupport(dataset.Item(j)); got != want {
						t.Fatalf("item %d total = %d, want %d", j, got, want)
					}
				}
				// The segment rows must partition the totals exactly.
				for j := range wantTotals {
					var sum int64
					for i := 0; i < m.NumSegments(); i++ {
						sum += int64(m.SegmentSupport(i, dataset.Item(j)))
					}
					if sum != wantTotals[j] {
						t.Fatalf("item %d: segment rows sum to %d, want %d", j, sum, wantTotals[j])
					}
				}
			})
		}
	}
}

// TestSegmentBudgetRejections pins the invalid-budget error paths for
// every algorithm.
func TestSegmentBudgetRejections(t *testing.T) {
	rows := budgetRows(6, 4, 1)
	for _, alg := range allAlgorithms() {
		for _, target := range []int{0, -3} {
			if _, err := Segment(rows, optsFor(alg, target, 6, 0)); err == nil {
				t.Errorf("%s: TargetSegments %d accepted", alg, target)
			}
		}
	}
	for _, alg := range []Algorithm{AlgRandomRC, AlgRandomGreedy} {
		if _, err := Segment(rows, optsFor(alg, 4, 3, 0)); err == nil {
			t.Errorf("%s: MidSegments < TargetSegments accepted", alg)
		}
		// mid == target is the boundary: legal, the Random phase is a
		// no-op and the refinement phase does all the work.
		res, err := Segment(rows, optsFor(alg, 3, 3, 0))
		if err != nil {
			t.Errorf("%s: MidSegments == TargetSegments rejected: %v", alg, err)
		} else if res.Map.NumSegments() != 3 {
			t.Errorf("%s: got %d segments, want 3", alg, res.Map.NumSegments())
		}
	}
}

// TestSegmentSingleRow covers the degenerate one-page input: every
// algorithm must return it unchanged for any budget.
func TestSegmentSingleRow(t *testing.T) {
	rows := [][]uint32{{4, 0, 7}}
	for _, alg := range allAlgorithms() {
		for _, target := range []int{1, 2, 100} {
			res, err := Segment(rows, optsFor(alg, target, 100, 0))
			if err != nil {
				t.Fatalf("%s target %d: %v", alg, target, err)
			}
			if res.Map.NumSegments() != 1 {
				t.Fatalf("%s target %d: %d segments", alg, target, res.Map.NumSegments())
			}
			if got := res.Map.AppendSegmentRow(nil, 0); got[0] != 4 || got[1] != 0 || got[2] != 7 {
				t.Fatalf("%s: row mangled: %v", alg, got)
			}
		}
	}
}
