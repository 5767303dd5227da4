package mining

import (
	"math"
	"slices"
	"sync"

	"github.com/ossm-mining/ossm/internal/dataset"
)

// Candidate is a candidate itemset with its running support count,
// indexable by a HashTree.
type Candidate struct {
	Items dataset.Itemset
	Count int64
}

// candChunk is how many candidates CandidateAlloc allocates at once:
// 8 KB of Candidates and 2 KB of pair items, small enough that a pass's
// candidates cost no more memory than one object each.
const candChunk = 256

// CandidateAlloc hands out candidates from small chunks instead of one
// heap object each. The zero value is ready to use.
type CandidateAlloc struct {
	free  []Candidate
	items dataset.Itemset
}

// New returns a zero-count candidate over items.
func (a *CandidateAlloc) New(items dataset.Itemset) *Candidate {
	if len(a.free) == 0 {
		a.free = make([]Candidate, candChunk)
	}
	c := &a.free[0]
	a.free = a.free[1:]
	c.Items = items
	return c
}

// Pair returns a zero-count candidate over {x, y}, x < y, with its
// items chunk-allocated too.
func (a *CandidateAlloc) Pair(x, y dataset.Item) *Candidate {
	if len(a.items) < 2 {
		a.items = make(dataset.Itemset, 2*candChunk)
	}
	items := a.items[:2:2]
	a.items = a.items[2:]
	items[0], items[1] = x, y
	return a.New(items)
}

// HashTree indexes candidates of one cardinality for subset counting, as
// in the original Apriori paper: interior nodes hash an item to a child;
// leaves hold a bounded list of candidates and split when they overflow.
// Counting work scales with the number of candidates — the property that
// turns OSSM pruning into runtime savings.
//
// Counting carries the transaction items it hashed on down the tree as
// a path. A leaf at depth d matches a candidate only if the candidate's
// first d items equal that path and its remaining items occur after the
// path's last position in the transaction. Transactions and candidates
// are sorted and duplicate-free, so a contained candidate is reached
// along exactly one such path: it is counted once per transaction with
// no per-transaction dedupe state, even when colliding hashes lead
// several paths into its leaf.
//
// The tree is flat and pointer-free. Each interior node is a block of
// fanout slots in one slots array. A slot is either an interior child's
// block offset or a leaf's [lo, hi) range into keys, last and ids, which
// hold the candidates grouped leaf by leaf, each leaf in build order.
type HashTree struct {
	cands  []*Candidate
	size   int // cardinality of the candidates
	fanout int
	root   slot
	slots  []slot
	keys   dataset.Itemset // each candidate's items, size per candidate
	last   []dataset.Item  // each candidate's final item
	ids    []int32         // each candidate's index in cands
}

// slot is one child of an interior node (or the root). A leaf holds the
// candidates [lo, hi) of the flat arrays, lo == hi for an empty child;
// an interior child has hi == interior and its slots start at slots[lo].
type slot struct{ lo, hi int32 }

const interior = -1

const (
	defaultFanout  = 32
	defaultMaxLeaf = 8
	// pathStack and hashStack are the path and transaction lengths
	// counted without a heap buffer.
	pathStack = 8
	hashStack = 64
)

// NewHashTree builds a tree over the given candidates (all of
// cardinality size).
func NewHashTree(cands []*Candidate, size int) *HashTree {
	n := len(cands)
	t := &HashTree{cands: cands, size: size, fanout: fanoutFor(n, size)}
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	t.root = t.build(order, make([]int32, n), 0, n, 0)
	t.ids = order
	t.keys = make(dataset.Itemset, 0, n*size)
	t.last = make([]dataset.Item, n)
	for q, id := range order {
		items := cands[id].Items
		t.keys = append(t.keys, items...)
		t.last[q] = items[size-1]
	}
	return t
}

// build lays out the node over the candidates order[lo:hi] at depth. It
// is a leaf unless it holds more than defaultMaxLeaf candidates with
// items left to hash on. Otherwise a counting sort on the hash of each
// candidate's depth-th item groups order[lo:hi] by child, stably, and
// each group becomes a child one level down.
func (t *HashTree) build(order, tmp []int32, lo, hi, depth int) slot {
	if hi-lo <= defaultMaxLeaf || depth == t.size {
		return slot{int32(lo), int32(hi)}
	}
	off := len(t.slots)
	t.slots = append(t.slots, make([]slot, t.fanout)...)
	block := t.slots[off:]
	for _, id := range order[lo:hi] {
		block[t.hash(t.cands[id].Items[depth])].hi++
	}
	pos := int32(lo)
	for i, s := range block {
		block[i] = slot{pos, pos}
		pos += s.hi
	}
	for _, id := range order[lo:hi] {
		s := &block[t.hash(t.cands[id].Items[depth])]
		tmp[s.hi] = id
		s.hi++
	}
	copy(order[lo:hi], tmp[lo:hi])
	for i := off; i < off+t.fanout; i++ {
		s := t.slots[i]
		t.slots[i] = t.build(order, tmp, int(s.lo), int(s.hi), depth+1)
	}
	return slot{int32(off), interior}
}

// fanoutFor sizes the fanout so that a full-depth tree over n candidates
// of the given size averages at most defaultMaxLeaf candidates per leaf:
// a full-depth leaf cannot split further, and every path into it scans
// all of its candidates. Small passes keep defaultFanout.
func fanoutFor(n, size int) int {
	f := int(math.Ceil(math.Pow(float64(n)/defaultMaxLeaf, 1/float64(size))))
	return max(defaultFanout, f)
}

func (t *HashTree) hash(it dataset.Item) int { return int(it) % t.fanout }

// matches reports whether candidate items c, reached through a leaf
// along path, are contained in the transaction: c must start with path
// and its remaining items must occur in rest, the transaction after the
// path's last position.
func matches(c, path, rest dataset.Itemset) bool {
	for i, it := range path {
		if c[i] != it {
			return false
		}
	}
	return len(c) == len(path) || c[len(path):].SubsetOf(rest)
}

// walker is the state of one transaction's traversal.
type walker struct {
	t    *HashTree
	tx   dataset.Itemset
	h    []int32         // the fanout hash of each transaction item
	path dataset.Itemset // the items hashed on, size-1 long
	// counts receives the matches by candidate index.
	counts  []int64
	onMatch func(*Candidate)
}

// walk counts tx: at depth d, branch on each remaining transaction item,
// descending into the child it hashes to; at a leaf, check the
// candidates against the hashed path.
func (t *HashTree) walk(tx dataset.Itemset, counts []int64, onMatch func(*Candidate)) {
	if len(tx) < t.size {
		return
	}
	var hs [hashStack]int32
	var ps [pathStack]dataset.Item
	w := walker{t: t, tx: tx, counts: counts, onMatch: onMatch}
	if len(tx) <= hashStack {
		w.h = hs[:len(tx)]
	} else {
		w.h = make([]int32, len(tx))
	}
	for i, it := range tx {
		w.h[i] = int32(t.hash(it))
	}
	if t.size-1 <= pathStack {
		w.path = ps[:t.size-1]
	} else {
		w.path = make(dataset.Itemset, t.size-1)
	}
	if t.root.hi == interior {
		w.node(int(t.root.lo), 0, 0)
	} else {
		w.leaf(t.root, 0, 0)
	}
}

// node visits the interior node whose slots start at off, at depth,
// branching on the transaction items from start on.
func (w *walker) node(off, depth, start int) {
	t := w.t
	if depth == t.size-1 {
		w.lastLevel(t.slots[off:off+t.fanout], start)
		return
	}
	// Enough items must remain to complete a candidate of t.size items.
	for i := start; i <= len(w.tx)-(t.size-depth); i++ {
		s := t.slots[off+int(w.h[i])]
		if s.lo == s.hi {
			continue
		}
		w.path[depth] = w.tx[i]
		if s.hi == interior {
			w.node(int(s.lo), depth+1, i+1)
		} else {
			w.leaf(s, depth+1, i+1)
		}
	}
}

// leaf checks the candidates of a leaf at depth < size, reached along
// path[:depth] with the transaction's items from start still unused.
func (w *walker) leaf(s slot, depth, start int) {
	k := w.t.size
	path, rest := w.path[:depth], w.tx[start:]
	for q := int(s.lo); q < int(s.hi); q++ {
		if matches(w.t.keys[q*k:q*k+k], path, rest) {
			w.hit(q)
		}
	}
}

// lastLevel visits an interior node at depth size-1 inline. Every child
// is a full-depth leaf, and each remaining transaction item completes a
// path: the one candidate in its leaf that ends in that item and starts
// with the path, if any, is contained. Candidates are distinct, so the
// scan stops at the first hit.
func (w *walker) lastLevel(block []slot, start int) {
	t, k := w.t, w.t.size
	prefix := w.path
	for i := start; i < len(w.tx); i++ {
		s := block[w.h[i]]
		it := w.tx[i]
		for q := int(s.lo); q < int(s.hi); q++ {
			if t.last[q] == it && slices.Equal(t.keys[q*k:q*k+k-1], prefix) {
				w.hit(q)
				break
			}
		}
	}
}

// hit counts the candidate at flat position q.
func (w *walker) hit(q int) {
	id := w.t.ids[q]
	w.counts[id]++
	if w.onMatch != nil {
		w.onMatch(w.t.cands[id])
	}
}

// CountState is per-worker counting state for a shared, read-only
// HashTree: several goroutines can traverse one tree concurrently, each
// accumulating into its own state, and the states merge afterwards.
type CountState struct {
	counts []int64
}

// statePool recycles CountState scratch across passes (and across runs):
// a multi-pass miner would otherwise allocate workers × numCands counting
// slots on every pass.
var statePool = sync.Pool{New: func() any { return new(CountState) }}

// AcquireState returns counting state sized to the tree, reusing pooled
// scratch when available. Pair with ReleaseState once the state has been
// merged.
func (t *HashTree) AcquireState() *CountState {
	st := statePool.Get().(*CountState)
	n := len(t.cands)
	if cap(st.counts) < n {
		st.counts = make([]int64, n)
	}
	st.counts = st.counts[:n]
	clear(st.counts)
	return st
}

// ReleaseState returns st to the scratch pool. The caller must not use it
// afterwards.
func ReleaseState(st *CountState) {
	if st != nil {
		statePool.Put(st)
	}
}

// CountTransactionInto adds tx to st's count of every candidate it
// contains. The tree is not mutated, so concurrent calls with distinct
// states are safe.
func (t *HashTree) CountTransactionInto(st *CountState, tx dataset.Itemset) {
	t.walk(tx, st.counts, nil)
}

// CountTransactionIntoFunc is CountTransactionInto with a callback
// invoked once per contained candidate (DHP's trim pass uses it to track
// item participation per worker).
func (t *HashTree) CountTransactionIntoFunc(st *CountState, tx dataset.Itemset, onMatch func(*Candidate)) {
	t.walk(tx, st.counts, onMatch)
}

// Merge adds the state's counts into the candidates (in tree build
// order). Call once per state after all counting goroutines finish.
func (t *HashTree) Merge(cands []*Candidate, st *CountState) {
	for i, c := range cands {
		c.Count += st.counts[i]
	}
}
