package core

import (
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/ossm-mining/ossm/internal/dataset"
	"github.com/ossm-mining/ossm/internal/gen"
)

func allAlgorithms() []Algorithm {
	return []Algorithm{AlgRandom, AlgRC, AlgGreedy, AlgRandomRC, AlgRandomGreedy}
}

func optsFor(alg Algorithm, target, mid int, seed int64) Options {
	return Options{Algorithm: alg, TargetSegments: target, MidSegments: mid, Seed: seed}
}

func TestSegmentProducesTargetSegments(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	rows := make([][]uint32, 20)
	for i := range rows {
		rows[i] = randomRow(r, 6, 30)
	}
	for _, alg := range allAlgorithms() {
		res, err := Segment(rows, optsFor(alg, 5, 10, 1))
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if res.Map.NumSegments() != 5 {
			t.Errorf("%v: got %d segments, want 5", alg, res.Map.NumSegments())
		}
		// Assignment is a partition of the 20 pages.
		seen := make([]bool, len(rows))
		for _, pagesOfSeg := range res.Assignment {
			if len(pagesOfSeg) == 0 {
				t.Errorf("%v: empty segment in assignment", alg)
			}
			for _, p := range pagesOfSeg {
				if seen[p] {
					t.Errorf("%v: page %d assigned twice", alg, p)
				}
				seen[p] = true
			}
		}
		for p, ok := range seen {
			if !ok {
				t.Errorf("%v: page %d unassigned", alg, p)
			}
		}
		// Totals preserved: the Map's per-item totals equal the column
		// sums of the input rows.
		for it := 0; it < 6; it++ {
			var want int64
			for _, row := range rows {
				want += int64(row[it])
			}
			if got := res.Map.ItemSupport(dataset.Item(it)); got != want {
				t.Errorf("%v: item %d total = %d, want %d", alg, it, got, want)
			}
		}
		if res.Elapsed < 0 {
			t.Errorf("%v: negative elapsed", alg)
		}
	}
}

func TestSegmentDeterministicWithSeed(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	rows := make([][]uint32, 16)
	for i := range rows {
		rows[i] = randomRow(r, 5, 20)
	}
	for _, alg := range allAlgorithms() {
		a, err := Segment(rows, optsFor(alg, 4, 8, 77))
		if err != nil {
			t.Fatal(err)
		}
		b, err := Segment(rows, optsFor(alg, 4, 8, 77))
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Assignment) != len(b.Assignment) {
			t.Fatalf("%v: nondeterministic segment count", alg)
		}
		for s := range a.Assignment {
			if len(a.Assignment[s]) != len(b.Assignment[s]) {
				t.Errorf("%v: nondeterministic assignment", alg)
				break
			}
			for i := range a.Assignment[s] {
				if a.Assignment[s][i] != b.Assignment[s][i] {
					t.Errorf("%v: nondeterministic assignment", alg)
				}
			}
		}
	}
}

func TestSegmentTargetClampedToPages(t *testing.T) {
	rows := [][]uint32{{1, 2}, {3, 4}}
	res, err := Segment(rows, optsFor(AlgGreedy, 10, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Map.NumSegments() != 2 {
		t.Errorf("got %d segments, want 2 (clamped)", res.Map.NumSegments())
	}
}

func TestSegmentErrors(t *testing.T) {
	rows := [][]uint32{{1, 2}, {3, 4}, {5, 6}}
	if _, err := Segment(nil, optsFor(AlgRandom, 1, 0, 0)); err == nil {
		t.Error("empty rows accepted")
	}
	if _, err := Segment([][]uint32{{1}, {1, 2}}, optsFor(AlgRandom, 1, 0, 0)); err == nil {
		t.Error("ragged rows accepted")
	}
	if _, err := Segment(rows, optsFor(AlgRandom, 0, 0, 0)); err == nil {
		t.Error("TargetSegments = 0 accepted")
	}
	if _, err := Segment(rows, optsFor(AlgRandomRC, 2, 1, 0)); err == nil {
		t.Error("MidSegments < TargetSegments accepted")
	}
	if _, err := Segment(rows, Options{Algorithm: Algorithm(99), TargetSegments: 1}); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestGreedyMergesSameConfigFirst(t *testing.T) {
	// Two rows share a configuration (sumdiff 0); two have wildly
	// different ones. Greedy asked for 3 segments must merge the
	// same-config pair.
	rows := [][]uint32{
		{10, 5, 1}, // config (0,1,2)
		{20, 9, 3}, // config (0,1,2)  — same as row 0
		{1, 50, 2}, // config (1,2,0)… actually (1,2,0) by value 50,2,1
		{3, 1, 90}, // config (2,0,1)
	}
	res, err := Segment(rows, optsFor(AlgGreedy, 3, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	foundPair := false
	for _, seg := range res.Assignment {
		if len(seg) == 2 {
			if (seg[0] == 0 && seg[1] == 1) || (seg[0] == 1 && seg[1] == 0) {
				foundPair = true
			}
		}
	}
	if !foundPair {
		t.Errorf("Greedy did not merge the zero-cost same-configuration pair; assignment = %v", res.Assignment)
	}
}

// totalLoss measures the summed pairwise bound loosening of a
// segmentation relative to the page-level OSSM.
func totalLoss(rows [][]uint32, res *Result, items []dataset.Item) int64 {
	full, err := NewMap(rows)
	if err != nil {
		panic(err)
	}
	var loss int64
	for i := 0; i < len(items); i++ {
		for j := i + 1; j < len(items); j++ {
			loss += res.Map.UpperBoundPair(items[i], items[j]) -
				full.UpperBoundPair(items[i], items[j])
		}
	}
	return loss
}

func TestGreedyBeatsRandomOnStructuredRows(t *testing.T) {
	// Rows come in two clear families; a good segmentation keeps the
	// families apart. Greedy must incur no more loss than Random
	// (averaged over seeds to avoid flakiness).
	r := rand.New(rand.NewSource(10))
	rows := make([][]uint32, 24)
	for i := range rows {
		rows[i] = make([]uint32, 6)
		for j := range rows[i] {
			base := 5
			if (i < 12) == (j < 3) {
				base = 50
			}
			rows[i][j] = uint32(base + r.Intn(5))
		}
	}
	items := AllItems(6)
	var greedyLoss, randomLoss int64
	for seed := int64(0); seed < 5; seed++ {
		g, err := Segment(rows, optsFor(AlgGreedy, 2, 0, seed))
		if err != nil {
			t.Fatal(err)
		}
		rd, err := Segment(rows, optsFor(AlgRandom, 2, 0, seed))
		if err != nil {
			t.Fatal(err)
		}
		greedyLoss += totalLoss(rows, g, items)
		randomLoss += totalLoss(rows, rd, items)
	}
	if greedyLoss > randomLoss {
		t.Errorf("greedy loss %d > random loss %d on structured data", greedyLoss, randomLoss)
	}
}

func TestAlgorithmOrderingOnStructuredRows(t *testing.T) {
	// Quality ordering the paper reports (Fig. 4): Greedy ≥ RC ≥ Random.
	// Verified as average pairwise-bound loss over several seeds.
	r := rand.New(rand.NewSource(20))
	rows := make([][]uint32, 30)
	for i := range rows {
		rows[i] = make([]uint32, 8)
		family := i % 3
		for j := range rows[i] {
			base := 4
			if j%3 == family {
				base = 60
			}
			rows[i][j] = uint32(base + r.Intn(6))
		}
	}
	items := AllItems(8)
	avg := func(alg Algorithm) int64 {
		var sum int64
		for seed := int64(0); seed < 8; seed++ {
			res, err := Segment(rows, optsFor(alg, 3, 0, seed))
			if err != nil {
				t.Fatal(err)
			}
			sum += totalLoss(rows, res, items)
		}
		return sum
	}
	g, rc, rd := avg(AlgGreedy), avg(AlgRC), avg(AlgRandom)
	if g > rc {
		t.Errorf("greedy loss %d > rc loss %d", g, rc)
	}
	if rc > rd {
		t.Errorf("rc loss %d > random loss %d", rc, rd)
	}
}

func TestHybridMatchesPhases(t *testing.T) {
	// With MidSegments == number of pages the Random phase is a no-op, so
	// Random-Greedy must equal pure Greedy given the same seed.
	r := rand.New(rand.NewSource(30))
	rows := make([][]uint32, 12)
	for i := range rows {
		rows[i] = randomRow(r, 5, 25)
	}
	hyb, err := Segment(rows, optsFor(AlgRandomGreedy, 4, len(rows), 3))
	if err != nil {
		t.Fatal(err)
	}
	pure, err := Segment(rows, optsFor(AlgGreedy, 4, 0, 3))
	if err != nil {
		t.Fatal(err)
	}
	if totalLoss(rows, hyb, AllItems(5)) != totalLoss(rows, pure, AllItems(5)) {
		t.Error("Random-Greedy with a no-op Random phase differs from pure Greedy")
	}
}

func TestSegmentWithBubble(t *testing.T) {
	r := rand.New(rand.NewSource(40))
	rows := make([][]uint32, 15)
	for i := range rows {
		rows[i] = randomRow(r, 10, 30)
	}
	bubble := BubbleListFromCounts(rows, 100, 4)
	if len(bubble) != 4 {
		t.Fatalf("bubble size = %d, want 4", len(bubble))
	}
	res, err := Segment(rows, Options{
		Algorithm: AlgGreedy, TargetSegments: 5, Bubble: bubble, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Map.NumSegments() != 5 {
		t.Errorf("got %d segments, want 5", res.Map.NumSegments())
	}
}

func TestSegmentSoundEndToEnd(t *testing.T) {
	// Any segmentation of any dataset yields a Map whose bounds dominate
	// true supports.
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := randomDataset(r)
		mPages := 1 + r.Intn(d.NumTx())
		pages := dataset.PaginateN(d, mPages)
		rows := dataset.PageCounts(d, pages)
		alg := allAlgorithms()[r.Intn(5)]
		target := 1 + r.Intn(mPages)
		mid := target + r.Intn(mPages-target+1)
		res, err := Segment(rows, optsFor(alg, target, mid, seed))
		if err != nil {
			return false
		}
		for trial := 0; trial < 15; trial++ {
			x := randomNonEmptyItemset(r, d.NumItems())
			if res.Map.UpperBound(x) < int64(d.Support(x)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestAlgorithmString(t *testing.T) {
	cases := map[Algorithm]string{
		AlgRandom:       "Random",
		AlgRC:           "RC",
		AlgGreedy:       "Greedy",
		AlgRandomRC:     "Random-RC",
		AlgRandomGreedy: "Random-Greedy",
		Algorithm(42):   "Algorithm(42)",
	}
	for alg, want := range cases {
		if got := alg.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

// assignmentHash is FNV-64a over a segmentation's page assignment:
// segment count, then each segment's length and page ids in order.
func assignmentHash(assign [][]int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	put(len(assign))
	for _, seg := range assign {
		put(len(seg))
		for _, p := range seg {
			put(p)
		}
	}
	return h.Sum64()
}

// TestSegmentAssignmentsPinned pins the exact segmentations the
// sumdiff-driven algorithms produce on a fixed drifting Quest input, with
// and without a bubble list. The hashes were recorded with the direct
// O(k²) pair-loop sumdiff; any change to the merge-cost order (a stale
// cached P, a different tie-break, a rounding cost) changes them.
func TestSegmentAssignmentsPinned(t *testing.T) {
	cfg := gen.DefaultQuest(3000, 11)
	cfg.NumItems = 150
	cfg.NumPatterns = 300
	cfg.WeightDrift = 0.5
	d, err := gen.Quest(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows := dataset.PageCounts(d, dataset.PaginateN(d, 60))
	bubble := BubbleListFromCounts(rows, int64(d.NumTx())/100, 40)
	cases := []struct {
		alg    Algorithm
		bubble bool
		want   uint64
	}{
		{AlgRC, false, 0xd5fe28a2c6c3a1bf},
		{AlgGreedy, false, 0xbbf1ea1f79899f75},
		{AlgRandomRC, false, 0xe4fcf1c05b615cfd},
		{AlgRandomGreedy, false, 0xe02fb88b249a4ad},
		{AlgRC, true, 0xbfd1f62b62ceb14f},
		{AlgGreedy, true, 0x67642be46cfe4209},
		{AlgRandomRC, true, 0x8bc3ca04e4cfd3d},
		{AlgRandomGreedy, true, 0x34c9a12792c00629},
	}
	for _, c := range cases {
		opts := Options{Algorithm: c.alg, TargetSegments: 8, MidSegments: 30, Seed: 5}
		if c.bubble {
			opts.Bubble = bubble
		}
		res, err := Segment(rows, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := assignmentHash(res.Assignment); got != c.want {
			t.Errorf("%v bubble=%v: assignment hash %#x, want %#x", c.alg, c.bubble, got, c.want)
		}
	}
}

// TestSegmentCountOverflowBoundary: merging cells that sum to exactly
// 2³²−1 succeeds, one more refuses with ErrCountOverflow, for every
// algorithm and for the sweep.
func TestSegmentCountOverflowBoundary(t *testing.T) {
	rows := func(last uint32) [][]uint32 {
		return [][]uint32{{math.MaxUint32 - 4, 1}, {1, 2}, {1, 3}, {last, 4}}
	}
	for _, alg := range allAlgorithms() {
		opts := optsFor(alg, 1, 2, 1)
		res, err := Segment(rows(2), opts)
		if err != nil {
			t.Fatalf("%v at 2³²−1: %v", alg, err)
		}
		if got := res.Map.ItemSupport(0); got != math.MaxUint32 {
			t.Errorf("%v: merged cell %d, want 2³²−1", alg, got)
		}
		if got := res.Map.SegmentSupport(0, 0); got != math.MaxUint32 {
			t.Errorf("%v: segment cell %d, want 2³²−1", alg, got)
		}
		if _, err := Segment(rows(3), opts); !errors.Is(err, ErrCountOverflow) {
			t.Errorf("%v at 2³²: err = %v, want ErrCountOverflow", alg, err)
		}
		if _, err := SegmentSweep(rows(2), opts, []int{3, 1}); err != nil {
			t.Errorf("%v sweep at 2³²−1: %v", alg, err)
		}
		if _, err := SegmentSweep(rows(3), opts, []int{3, 1}); !errors.Is(err, ErrCountOverflow) {
			t.Errorf("%v sweep at 2³²: err = %v, want ErrCountOverflow", alg, err)
		}
	}
}
