package core

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"testing"
	"testing/quick"

	"github.com/ossm-mining/ossm/internal/dataset"
)

func TestMapRoundTrip(t *testing.T) {
	m := example1Map(t)
	var buf bytes.Buffer
	if err := WriteMap(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMap(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumItems() != m.NumItems() || got.NumSegments() != m.NumSegments() {
		t.Fatalf("shape changed: %dx%d vs %dx%d",
			got.NumSegments(), got.NumItems(), m.NumSegments(), m.NumItems())
	}
	for s := 0; s < m.NumSegments(); s++ {
		for it := 0; it < m.NumItems(); it++ {
			if got.SegmentSupport(s, dataset.Item(it)) != m.SegmentSupport(s, dataset.Item(it)) {
				t.Fatalf("cell (%d,%d) changed", s, it)
			}
		}
	}
}

// goldenMap is the map behind testdata/map.golden: 3 segments × 5 items,
// every cell distinct, so any reordering of the cells shows.
var goldenMap = [][]uint32{
	{1, 2, 3, 4, 5},
	{16, 0, 7, 256, 65536},
	{9, 10, 70000, 12, 4294967295},
}

// TestMapGolden pins the .ossm file format: WriteMap reproduces a map file
// written when the map was stored segment-major byte for byte, and ReadMap
// of that file returns the same cells.
func TestMapGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/map.golden")
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMap(goldenMap)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteMap(&buf, m); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("WriteMap output differs from testdata/map.golden:\ngot  %x\nwant %x", buf.Bytes(), want)
	}
	got, err := ReadMap(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumSegments() != len(goldenMap) || got.NumItems() != len(goldenMap[0]) {
		t.Fatalf("ReadMap shape %d×%d, want %d×%d", got.NumSegments(), got.NumItems(), len(goldenMap), len(goldenMap[0]))
	}
	for s, row := range goldenMap {
		for it, c := range row {
			if g := got.SegmentSupport(s, dataset.Item(it)); g != c {
				t.Fatalf("ReadMap cell (%d, %d) = %d, want %d", s, it, g, c)
			}
		}
	}
}

func TestMapRoundTripProperty(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(6)
		k := 1 + r.Intn(8)
		rows := make([][]uint32, n)
		for i := range rows {
			rows[i] = randomRow(r, k, 1000)
		}
		m, err := NewMap(rows)
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := WriteMap(&buf, m); err != nil {
			return false
		}
		got, err := ReadMap(&buf)
		if err != nil {
			return false
		}
		// Same bounds for a few random itemsets ⇒ same map behaviorally.
		for trial := 0; trial < 10; trial++ {
			x := randomNonEmptyItemset(r, k)
			if got.UpperBound(x) != m.UpperBound(x) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestReadMapErrors(t *testing.T) {
	if _, err := ReadMap(bytes.NewReader([]byte("short"))); !errors.Is(err, ErrBadMapFormat) {
		t.Errorf("short: err = %v, want ErrBadMapFormat", err)
	}
	if _, err := ReadMap(bytes.NewReader([]byte("WRONGMAGICxxxxxx"))); !errors.Is(err, ErrBadMapFormat) {
		t.Errorf("magic: err = %v, want ErrBadMapFormat", err)
	}
	// Truncated payload.
	m := mustMap(t, [][]uint32{{1, 2, 3}, {4, 5, 6}})
	var buf bytes.Buffer
	if err := WriteMap(&buf, m); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-2]
	if _, err := ReadMap(bytes.NewReader(trunc)); !errors.Is(err, ErrBadMapFormat) {
		t.Errorf("truncated: err = %v, want ErrBadMapFormat", err)
	}
	// Zero segments in the header.
	bad := append([]byte{}, mapMagic[:]...)
	bad = append(bad, 3, 0, 0, 0, 0, 0, 0, 0)
	if _, err := ReadMap(bytes.NewReader(bad)); !errors.Is(err, ErrBadMapFormat) {
		t.Errorf("zero segments: err = %v, want ErrBadMapFormat", err)
	}
}

func mustMap(t *testing.T, rows [][]uint32) *Map {
	t.Helper()
	m, err := NewMap(rows)
	if err != nil {
		t.Fatal(err)
	}
	return m
}
