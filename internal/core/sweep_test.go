package core

import (
	"math/rand"
	"testing"

	"github.com/ossm-mining/ossm/internal/dataset"
)

func sweepRows(t *testing.T, m, k int, seed int64) [][]uint32 {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	rows := make([][]uint32, m)
	for i := range rows {
		rows[i] = randomRow(r, k, 50)
	}
	return rows
}

func TestSweepMatchesIndividualRuns(t *testing.T) {
	rows := sweepRows(t, 24, 6, 1)
	targets := []int{4, 8, 16}
	for _, alg := range []Algorithm{AlgRC, AlgGreedy, AlgRandomRC, AlgRandomGreedy, AlgRandom} {
		opts := Options{Algorithm: alg, MidSegments: 20, Seed: 5}
		points, err := SegmentSweep(rows, opts, targets)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if len(points) != len(targets) {
			t.Fatalf("%v: %d points, want %d", alg, len(points), len(targets))
		}
		for _, pt := range points {
			if pt.Map.NumSegments() != pt.Segments {
				t.Errorf("%v: point claims %d segments, Map has %d", alg, pt.Segments, pt.Map.NumSegments())
			}
			direct, err := Segment(rows, Options{
				Algorithm: alg, TargetSegments: pt.Segments, MidSegments: 20, Seed: 5,
			})
			if err != nil {
				t.Fatal(err)
			}
			// Same bound for every pair ⇒ same segmentation quality. (The
			// segment orderings may differ; bounds are what matters.)
			for x := dataset.Item(0); x < 6; x++ {
				for y := x + 1; y < 6; y++ {
					if pt.Map.UpperBoundPair(x, y) != direct.Map.UpperBoundPair(x, y) {
						t.Errorf("%v n=%d: sweep and direct bounds differ for (%d,%d): %d vs %d",
							alg, pt.Segments, x, y,
							pt.Map.UpperBoundPair(x, y), direct.Map.UpperBoundPair(x, y))
					}
				}
			}
		}
	}
}

func TestSweepDescendingOrder(t *testing.T) {
	rows := sweepRows(t, 12, 4, 2)
	points, err := SegmentSweep(rows, Options{Algorithm: AlgGreedy}, []int{2, 10, 6})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(points); i++ {
		if points[i].Segments >= points[i-1].Segments {
			t.Error("points not in descending segment order")
		}
	}
}

func TestSweepTargetAbovePageCount(t *testing.T) {
	rows := sweepRows(t, 5, 4, 3)
	points, err := SegmentSweep(rows, Options{Algorithm: AlgGreedy}, []int{100, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("%d points, want 2", len(points))
	}
	if points[0].Segments != 5 { // clamped to page count
		t.Errorf("first point has %d segments, want 5", points[0].Segments)
	}
}

func TestSweepErrors(t *testing.T) {
	rows := sweepRows(t, 6, 4, 4)
	if _, err := SegmentSweep(nil, Options{}, []int{2}); err == nil {
		t.Error("empty rows accepted")
	}
	if _, err := SegmentSweep(rows, Options{}, nil); err == nil {
		t.Error("no targets accepted")
	}
	if _, err := SegmentSweep(rows, Options{}, []int{0}); err == nil {
		t.Error("target 0 accepted")
	}
	if _, err := SegmentSweep(rows, Options{Algorithm: AlgRandomRC, MidSegments: 1}, []int{3}); err == nil {
		t.Error("MidSegments below smallest target accepted")
	}
	if _, err := SegmentSweep(rows, Options{Algorithm: Algorithm(77)}, []int{2}); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if _, err := SegmentSweep([][]uint32{{1}, {1, 2}}, Options{}, []int{1}); err == nil {
		t.Error("ragged rows accepted")
	}
}

func TestSweepElapsedMonotone(t *testing.T) {
	rows := sweepRows(t, 20, 5, 5)
	points, err := SegmentSweep(rows, Options{Algorithm: AlgRC, Seed: 1}, []int{4, 8, 16})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(points); i++ {
		if points[i].Elapsed < points[i-1].Elapsed {
			t.Error("cumulative elapsed time decreased along the sweep")
		}
	}
}

func TestSweepWithBubbleMatchesDirect(t *testing.T) {
	rows := sweepRows(t, 20, 8, 7)
	bubble := BubbleListFromCounts(rows, 50, 4)
	for _, alg := range []Algorithm{AlgRC, AlgGreedy} {
		points, err := SegmentSweep(rows, Options{
			Algorithm: alg, Bubble: bubble, Seed: 3,
		}, []int{5, 12})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		for _, pt := range points {
			direct, err := Segment(rows, Options{
				Algorithm: alg, TargetSegments: pt.Segments, Bubble: bubble, Seed: 3,
			})
			if err != nil {
				t.Fatal(err)
			}
			for x := dataset.Item(0); x < 8; x++ {
				for y := x + 1; y < 8; y++ {
					if pt.Map.UpperBoundPair(x, y) != direct.Map.UpperBoundPair(x, y) {
						t.Errorf("%v n=%d: bubble sweep and direct bounds differ", alg, pt.Segments)
					}
				}
			}
		}
	}
}
