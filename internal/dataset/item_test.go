package dataset

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewItemsetSortsAndDedups(t *testing.T) {
	cases := []struct {
		in   []Item
		want Itemset
	}{
		{nil, nil},
		{[]Item{5}, Itemset{5}},
		{[]Item{3, 1, 2}, Itemset{1, 2, 3}},
		{[]Item{2, 2, 2}, Itemset{2}},
		{[]Item{9, 1, 9, 1, 4}, Itemset{1, 4, 9}},
	}
	for _, c := range cases {
		got := NewItemset(c.in...)
		if !got.Equal(c.want) {
			t.Errorf("NewItemset(%v) = %v, want %v", c.in, got, c.want)
		}
		if !got.Valid() {
			t.Errorf("NewItemset(%v) = %v is not valid", c.in, got)
		}
	}
}

func TestItemsetContains(t *testing.T) {
	s := NewItemset(1, 3, 5, 7)
	for _, x := range []Item{1, 3, 5, 7} {
		if !s.Contains(x) {
			t.Errorf("Contains(%d) = false, want true", x)
		}
	}
	for _, x := range []Item{0, 2, 4, 6, 8, 100} {
		if s.Contains(x) {
			t.Errorf("Contains(%d) = true, want false", x)
		}
	}
	if Itemset(nil).Contains(0) {
		t.Error("empty itemset claims to contain 0")
	}
}

func TestSubsetOf(t *testing.T) {
	cases := []struct {
		s, t Itemset
		want bool
	}{
		{nil, nil, true},
		{nil, NewItemset(1), true},
		{NewItemset(1), nil, false},
		{NewItemset(1, 3), NewItemset(1, 2, 3), true},
		{NewItemset(1, 4), NewItemset(1, 2, 3), false},
		{NewItemset(1, 2, 3), NewItemset(1, 2, 3), true},
		{NewItemset(0), NewItemset(1, 2), false},
		{NewItemset(3), NewItemset(1, 2), false},
	}
	for _, c := range cases {
		if got := c.s.SubsetOf(c.t); got != c.want {
			t.Errorf("%v.SubsetOf(%v) = %v, want %v", c.s, c.t, got, c.want)
		}
	}
}

func TestUnionIntersectMinus(t *testing.T) {
	a := NewItemset(1, 3, 5)
	b := NewItemset(2, 3, 4, 5)
	if got, want := a.Union(b), NewItemset(1, 2, 3, 4, 5); !got.Equal(want) {
		t.Errorf("Union = %v, want %v", got, want)
	}
	if got, want := a.Intersect(b), NewItemset(3, 5); !got.Equal(want) {
		t.Errorf("Intersect = %v, want %v", got, want)
	}
	if got, want := a.Minus(b), NewItemset(1); !got.Equal(want) {
		t.Errorf("Minus = %v, want %v", got, want)
	}
	if got, want := b.Minus(a), NewItemset(2, 4); !got.Equal(want) {
		t.Errorf("Minus = %v, want %v", got, want)
	}
}

func TestWithout(t *testing.T) {
	s := NewItemset(1, 2, 3)
	if got, want := s.Without(1), NewItemset(1, 3); !got.Equal(want) {
		t.Errorf("Without(1) = %v, want %v", got, want)
	}
	if got, want := s.Without(0), NewItemset(2, 3); !got.Equal(want) {
		t.Errorf("Without(0) = %v, want %v", got, want)
	}
	if got, want := s.Without(2), NewItemset(1, 2); !got.Equal(want) {
		t.Errorf("Without(2) = %v, want %v", got, want)
	}
	if !s.Equal(NewItemset(1, 2, 3)) {
		t.Error("Without mutated its receiver")
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Itemset
		want int
	}{
		{nil, nil, 0},
		{nil, NewItemset(0), -1},
		{NewItemset(0), nil, 1},
		{NewItemset(1, 2), NewItemset(1, 2), 0},
		{NewItemset(1, 2), NewItemset(1, 3), -1},
		{NewItemset(1, 3), NewItemset(1, 2), 1},
		{NewItemset(1), NewItemset(1, 2), -1},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("%v.Compare(%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestKeyAndString(t *testing.T) {
	s := NewItemset(3, 1, 2)
	if got, want := s.Key(), "1,2,3"; got != want {
		t.Errorf("Key = %q, want %q", got, want)
	}
	if got, want := s.String(), "{1, 2, 3}"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	if got := Itemset(nil).Key(); got != "" {
		t.Errorf("empty Key = %q, want empty", got)
	}
	if got, want := Itemset(nil).String(), "{}"; got != want {
		t.Errorf("empty String = %q, want %q", got, want)
	}
}

// TestKeyFormat pins the exact key text: decimal items joined by commas,
// "" for the empty set, and keys longer than Key's stack buffer intact.
func TestKeyFormat(t *testing.T) {
	var long Itemset
	var want []string
	for i := 0; i < 12; i++ {
		x := Item(4294967295 - 12 + i)
		long = append(long, x)
		want = append(want, fmt.Sprint(x))
	}
	cases := []struct {
		in   Itemset
		want string
	}{
		{nil, ""},
		{Itemset{}, ""},
		{Itemset{0}, "0"},
		{Itemset{3, 17, 42}, "3,17,42"},
		{Itemset{9, 10, 99, 100, 1000}, "9,10,99,100,1000"},
		{Itemset{4294967295}, "4294967295"},
		{long, strings.Join(want, ",")},
	}
	for _, c := range cases {
		if got := c.in.Key(); got != c.want {
			t.Errorf("Key(%v) = %q, want %q", []Item(c.in), got, c.want)
		}
	}
}

// randomItemset draws a small random itemset over a small domain so that
// set relations (subset, overlap) actually occur in property tests.
func randomItemset(r *rand.Rand) Itemset {
	n := r.Intn(6)
	items := make([]Item, n)
	for i := range items {
		items[i] = Item(r.Intn(10))
	}
	return NewItemset(items...)
}

func TestItemsetAlgebraProperties(t *testing.T) {
	cfg := &quick.Config{MaxCount: 500}

	// Union is commutative and yields a valid superset of both operands.
	union := func(seedA, seedB int64) bool {
		ra, rb := rand.New(rand.NewSource(seedA)), rand.New(rand.NewSource(seedB))
		a, b := randomItemset(ra), randomItemset(rb)
		u := a.Union(b)
		return u.Valid() && a.SubsetOf(u) && b.SubsetOf(u) && u.Equal(b.Union(a))
	}
	if err := quick.Check(union, cfg); err != nil {
		t.Errorf("union property: %v", err)
	}

	// Intersection is a subset of both operands; Minus is disjoint from t.
	interMinus := func(seedA, seedB int64) bool {
		ra, rb := rand.New(rand.NewSource(seedA)), rand.New(rand.NewSource(seedB))
		a, b := randomItemset(ra), randomItemset(rb)
		in := a.Intersect(b)
		mi := a.Minus(b)
		if !in.Valid() || !mi.Valid() {
			return false
		}
		if !in.SubsetOf(a) || !in.SubsetOf(b) || !mi.SubsetOf(a) {
			return false
		}
		for _, x := range mi {
			if b.Contains(x) {
				return false
			}
		}
		// a = (a ∩ b) ∪ (a \ b)
		return in.Union(mi).Equal(a)
	}
	if err := quick.Check(interMinus, cfg); err != nil {
		t.Errorf("intersect/minus property: %v", err)
	}

	// SubsetOf agrees with the naive definition via Contains.
	subset := func(seedA, seedB int64) bool {
		ra, rb := rand.New(rand.NewSource(seedA)), rand.New(rand.NewSource(seedB))
		a, b := randomItemset(ra), randomItemset(rb)
		naive := true
		for _, x := range a {
			if !b.Contains(x) {
				naive = false
				break
			}
		}
		return a.SubsetOf(b) == naive
	}
	if err := quick.Check(subset, cfg); err != nil {
		t.Errorf("subset property: %v", err)
	}

	// Compare is a total order consistent with Equal.
	order := func(seedA, seedB int64) bool {
		ra, rb := rand.New(rand.NewSource(seedA)), rand.New(rand.NewSource(seedB))
		a, b := randomItemset(ra), randomItemset(rb)
		c := a.Compare(b)
		if (c == 0) != a.Equal(b) {
			return false
		}
		return c == -b.Compare(a)
	}
	if err := quick.Check(order, cfg); err != nil {
		t.Errorf("compare property: %v", err)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := NewItemset(1, 2, 3)
	c := a.Clone()
	c[0] = 99
	if a[0] != 1 {
		t.Error("Clone shares backing storage with original")
	}
	if Itemset(nil).Clone() != nil {
		t.Error("Clone of nil should be nil")
	}
	if !reflect.DeepEqual(a, NewItemset(1, 2, 3)) {
		t.Error("original mutated")
	}
}
