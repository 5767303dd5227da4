// Package dataset provides the transaction-collection substrate that every
// other package in this repository is built on: items, itemsets,
// transactions, a compact columnar store for large collections, a page
// abstraction matching the paper's physical organization, and text/binary
// serialization.
//
// Terminology follows Leung, Ng and Mannila (ICDE 2002): a collection of
// transactions T = {t_1, …, t_D} over a domain of k individual items; the
// support of an itemset X is the number of transactions containing every
// item of X.
package dataset

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Item identifies a single domain item. Items are dense small integers
// 0 … k-1; the canonical enumeration the paper relies on for tie-breaking
// is simply the numeric order of Item values.
type Item uint32

// Itemset is a set of items represented as a strictly ascending slice.
// The zero value is the empty itemset.
type Itemset []Item

// NewItemset builds an Itemset from arbitrary items, sorting and
// de-duplicating them.
func NewItemset(items ...Item) Itemset {
	if len(items) == 0 {
		return nil
	}
	s := make(Itemset, len(items))
	copy(s, items)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	out := s[:1]
	for _, it := range s[1:] {
		if it != out[len(out)-1] {
			out = append(out, it)
		}
	}
	return out
}

// Valid reports whether s is strictly ascending (the representation
// invariant of Itemset).
func (s Itemset) Valid() bool {
	for i := 1; i < len(s); i++ {
		if s[i] <= s[i-1] {
			return false
		}
	}
	return true
}

// Contains reports whether s contains item x.
func (s Itemset) Contains(x Item) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= x })
	return i < len(s) && s[i] == x
}

// SubsetOf reports whether every item of s occurs in t. Both receivers
// must satisfy the Itemset invariant.
func (s Itemset) SubsetOf(t Itemset) bool {
	if len(s) > len(t) {
		return false
	}
	j := 0
	for _, x := range s {
		for j < len(t) && t[j] < x {
			j++
		}
		if j == len(t) || t[j] != x {
			return false
		}
		j++
	}
	return true
}

// Equal reports whether s and t contain exactly the same items.
func (s Itemset) Equal(t Itemset) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// Union returns a new Itemset holding every item of s or t.
func (s Itemset) Union(t Itemset) Itemset {
	out := make(Itemset, 0, len(s)+len(t))
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] < t[j]:
			out = append(out, s[i])
			i++
		case s[i] > t[j]:
			out = append(out, t[j])
			j++
		default:
			out = append(out, s[i])
			i++
			j++
		}
	}
	out = append(out, s[i:]...)
	out = append(out, t[j:]...)
	return out
}

// Intersect returns a new Itemset holding every item present in both s
// and t.
func (s Itemset) Intersect(t Itemset) Itemset {
	var out Itemset
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] < t[j]:
			i++
		case s[i] > t[j]:
			j++
		default:
			out = append(out, s[i])
			i++
			j++
		}
	}
	return out
}

// Minus returns a new Itemset holding the items of s that are not in t.
func (s Itemset) Minus(t Itemset) Itemset {
	var out Itemset
	j := 0
	for _, x := range s {
		for j < len(t) && t[j] < x {
			j++
		}
		if j < len(t) && t[j] == x {
			continue
		}
		out = append(out, x)
	}
	return out
}

// Without returns a new Itemset equal to s with the item at position i
// removed. It is the "(k-1)-subset" helper used by Apriori's prune step.
func (s Itemset) Without(i int) Itemset {
	out := make(Itemset, 0, len(s)-1)
	out = append(out, s[:i]...)
	out = append(out, s[i+1:]...)
	return out
}

// Clone returns an independent copy of s.
func (s Itemset) Clone() Itemset {
	if s == nil {
		return nil
	}
	out := make(Itemset, len(s))
	copy(out, s)
	return out
}

// Compare orders itemsets lexicographically, shorter-prefix first. It
// returns -1, 0 or +1.
func (s Itemset) Compare(t Itemset) int {
	n := len(s)
	if len(t) < n {
		n = len(t)
	}
	for i := 0; i < n; i++ {
		if s[i] != t[i] {
			if s[i] < t[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(s) < len(t):
		return -1
	case len(s) > len(t):
		return 1
	}
	return 0
}

// Key returns a canonical string key for use in maps. It is injective on
// valid itemsets.
func (s Itemset) Key() string {
	var buf [64]byte
	b := buf[:0]
	for i, x := range s {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendUint(b, uint64(x), 10)
	}
	return string(b)
}

// String renders the itemset as "{a, b, c}".
func (s Itemset) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, x := range s {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d", x)
	}
	b.WriteByte('}')
	return b.String()
}
