package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/ossm-mining/ossm/internal/dataset"
)

func TestNewAppenderValidation(t *testing.T) {
	if _, err := NewAppender(0, AppenderOptions{}); err == nil {
		t.Error("numItems 0 accepted")
	}
	if _, err := NewAppender(5, AppenderOptions{PageSize: -1}); err == nil {
		t.Error("negative PageSize accepted")
	}
	if _, err := NewAppender(5, AppenderOptions{MaxSegments: -1}); err == nil {
		t.Error("negative MaxSegments accepted")
	}
	if _, err := NewAppender(5, AppenderOptions{MaxSegments: 10, CompactAt: 5}); err == nil {
		t.Error("CompactAt ≤ MaxSegments accepted")
	}
	if _, err := NewAppender(5, AppenderOptions{Algorithm: AlgRandomGreedy}); err == nil {
		t.Error("hybrid compaction algorithm accepted")
	}
}

func TestAppenderAddValidation(t *testing.T) {
	a, err := NewAppender(3, AppenderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Add(dataset.Itemset{2, 1}); err == nil {
		t.Error("unsorted transaction accepted")
	}
	if err := a.Add(dataset.Itemset{0, 7}); err == nil {
		t.Error("out-of-domain item accepted")
	}
	if a.NumTx() != 0 {
		t.Error("failed Add mutated the appender")
	}
}

func TestAppenderEmptySnapshot(t *testing.T) {
	a, err := NewAppender(3, AppenderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if m != nil {
		t.Error("empty appender yielded a map")
	}
}

// TestAppenderMatchesBatch streams a dataset through the appender and
// checks the streaming snapshot against ground truth: exact singleton
// totals, sound bounds for every itemset, and the segment budget.
func TestAppenderMatchesBatch(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := randomDataset(r)
		pageSize := 1 + r.Intn(5)
		maxSeg := 2 + r.Intn(4)
		alg := []Algorithm{AlgRandom, AlgRC, AlgGreedy}[r.Intn(3)]
		a, err := NewAppender(d.NumItems(), AppenderOptions{
			PageSize:    pageSize,
			MaxSegments: maxSeg,
			Algorithm:   alg,
			Seed:        seed,
		})
		if err != nil {
			return false
		}
		for i := 0; i < d.NumTx(); i++ {
			if err := a.Add(d.Tx(i)); err != nil {
				return false
			}
		}
		if a.NumTx() != int64(d.NumTx()) {
			return false
		}
		m, err := a.Snapshot()
		if err != nil || m == nil {
			return false
		}
		if m.NumSegments() > maxSeg+1 {
			return false
		}
		// Exact singleton totals.
		counts := d.ItemCounts(0, d.NumTx())
		for it := 0; it < d.NumItems(); it++ {
			if m.ItemSupport(dataset.Item(it)) != int64(counts[it]) {
				return false
			}
		}
		// Sound bounds.
		for trial := 0; trial < 15; trial++ {
			x := randomNonEmptyItemset(r, d.NumItems())
			if m.UpperBound(x) < int64(d.Support(x)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestAppenderCompactionTriggers(t *testing.T) {
	a, err := NewAppender(4, AppenderOptions{
		PageSize: 1, MaxSegments: 3, CompactAt: 6, Algorithm: AlgGreedy,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := a.Add(dataset.Itemset{dataset.Item(i % 4)}); err != nil {
			t.Fatal(err)
		}
		if a.Segments() >= 6 {
			t.Fatalf("working set reached CompactAt after %d adds without compaction", i+1)
		}
	}
	if a.Segments() > 5 {
		t.Errorf("working set = %d, want < CompactAt", a.Segments())
	}
}

func TestAppenderSnapshotIndependence(t *testing.T) {
	a, err := NewAppender(3, AppenderOptions{PageSize: 2, MaxSegments: 2, CompactAt: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		if err := a.Add(dataset.Itemset{dataset.Item(i % 3)}); err != nil {
			t.Fatal(err)
		}
	}
	m1, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	before := m1.ItemSupport(0)
	// Keep appending; the earlier snapshot must not change.
	for i := 0; i < 20; i++ {
		if err := a.Add(dataset.Itemset{0}); err != nil {
			t.Fatal(err)
		}
	}
	if m1.ItemSupport(0) != before {
		t.Error("snapshot changed after further appends")
	}
	m2, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if m2.ItemSupport(0) != before+20 {
		t.Errorf("second snapshot support = %d, want %d", m2.ItemSupport(0), before+20)
	}
}

func TestAppenderPartialPageVisible(t *testing.T) {
	a, err := NewAppender(2, AppenderOptions{PageSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Add(dataset.Itemset{1}); err != nil {
		t.Fatal(err)
	}
	m, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if m == nil || m.ItemSupport(1) != 1 {
		t.Error("transaction in the partial page not visible in the snapshot")
	}
}

// TestAppenderCountOverflow: an appender restored near the uint32 cell
// limit compacts to exactly 2³²−1, then refuses the compaction that
// would wrap, from Add and from Snapshot alike.
func TestAppenderCountOverflow(t *testing.T) {
	for _, alg := range []Algorithm{AlgRandom, AlgRC, AlgGreedy} {
		a, err := RestoreAppender(AppenderState{
			NumItems: 2, PageSize: 2, MaxSegments: 1, CompactAt: 3, Algorithm: alg,
			Rows: [][]uint32{{math.MaxUint32 - 3, 0}, {1, 1}},
			Cur:  []uint32{0, 0},
		})
		if err != nil {
			t.Fatal(err)
		}
		tx := dataset.NewItemset(0)
		for i := 0; i < 2; i++ {
			if err := a.Add(tx); err != nil {
				t.Fatalf("%v: compaction to 2³²−1: %v", alg, err)
			}
		}
		if a.Segments() != 1 || a.rows[0][0] != math.MaxUint32 {
			t.Fatalf("%v: after first compaction rows = %v", alg, a.rows)
		}
		for i := 0; i < 3; i++ {
			if err := a.Add(tx); err != nil {
				t.Fatalf("%v: add %d before the crossing: %v", alg, i, err)
			}
		}
		if err := a.Add(tx); !errors.Is(err, ErrCountOverflow) {
			t.Fatalf("%v: crossing 2³²: err = %v, want ErrCountOverflow", alg, err)
		}
		if _, err := a.Snapshot(); !errors.Is(err, ErrCountOverflow) {
			t.Errorf("%v: Snapshot after the crossing: err = %v, want ErrCountOverflow", alg, err)
		}
	}
}
