package mining

import (
	"math"
	"sync"

	"github.com/ossm-mining/ossm/internal/dataset"
)

// Candidate is a candidate itemset with its running support count,
// indexable by a HashTree. id is the candidate's position in the tree's
// build order (used by the shared-tree parallel counting path).
type Candidate struct {
	Items dataset.Itemset
	Count int64
	id    int
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
type HashTree struct {
	root     *htNode
	size     int // cardinality of the candidates
	fanout   int
	maxLeaf  int
	numCands int
}

type htNode struct {
	children []*htNode    // non-nil ⇒ interior node
	leaf     []*Candidate // interior nodes keep leaf == nil
	// keys holds the leaf candidates' items back to back, size per
	// candidate, so the leaf check reads one contiguous array.
	keys dataset.Itemset
}

func (n *htNode) isLeaf() bool { return n.children == nil }

const (
	defaultFanout  = 32
	defaultMaxLeaf = 8
	// pathStack is the path length counted without a heap buffer.
	pathStack = 8
)

// NewHashTree builds a tree over the given candidates (all of
// cardinality size).
func NewHashTree(cands []*Candidate, size int) *HashTree {
	t := &HashTree{
		root:    &htNode{},
		size:    size,
		fanout:  fanoutFor(len(cands), size),
		maxLeaf: defaultMaxLeaf,
	}
	for i, c := range cands {
		c.id = i
		t.insert(t.root, c, 0)
	}
	t.numCands = len(cands)
	t.fillKeys(t.root)
	return t
}

// fillKeys lays out each leaf's candidate items in its keys array.
func (t *HashTree) fillKeys(n *htNode) {
	if n.isLeaf() {
		n.keys = make(dataset.Itemset, 0, len(n.leaf)*t.size)
		for _, c := range n.leaf {
			n.keys = append(n.keys, c.Items...)
		}
		return
	}
	for _, child := range n.children {
		if child != nil {
			t.fillKeys(child)
		}
	}
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

func (t *HashTree) insert(n *htNode, c *Candidate, depth int) {
	if n.isLeaf() {
		n.leaf = append(n.leaf, c)
		// Split overflowing leaves while there are still items left to
		// hash on.
		if len(n.leaf) > t.maxLeaf && depth < t.size {
			old := n.leaf
			n.leaf = nil
			n.children = make([]*htNode, t.fanout)
			for _, oc := range old {
				t.insertChild(n, oc, depth)
			}
		}
		return
	}
	t.insertChild(n, c, depth)
}

func (t *HashTree) insertChild(n *htNode, c *Candidate, depth int) {
	h := t.hash(c.Items[depth])
	if n.children[h] == nil {
		n.children[h] = &htNode{}
	}
	t.insert(n.children[h], c, depth+1)
}

// pathBuf returns an empty path with room for t.size items, backed by
// stack storage unless the candidates are longer than pathStack.
func (t *HashTree) pathBuf(stack *[pathStack]dataset.Item) dataset.Itemset {
	if t.size > pathStack {
		return make(dataset.Itemset, 0, t.size)
	}
	return stack[:0]
}

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

// CountTransaction adds tx to the counts of every candidate it contains.
// onMatch, if non-nil, is invoked once per contained candidate (DHP uses
// it to track item participation for transaction trimming). The
// traversal mirrors the classical algorithm: at depth d, branch on each
// remaining transaction item, descending into the child it hashes to;
// at a leaf, check the candidates against the hashed path.
func (t *HashTree) CountTransaction(tx dataset.Itemset, onMatch func(*Candidate)) {
	if len(tx) < t.size {
		return
	}
	var stack [pathStack]dataset.Item
	t.count(t.root, tx, t.pathBuf(&stack), 0, onMatch)
}

func (t *HashTree) count(n *htNode, tx, path dataset.Itemset, start int, onMatch func(*Candidate)) {
	if n.isLeaf() {
		rest, k := tx[start:], t.size
		for j, c := range n.leaf {
			if matches(n.keys[j*k:j*k+k], path, rest) {
				c.Count++
				if onMatch != nil {
					onMatch(c)
				}
			}
		}
		return
	}
	// Enough items must remain to complete a candidate of t.size items.
	for i := start; i <= len(tx)-(t.size-len(path)); i++ {
		if child := n.children[t.hash(tx[i])]; child != nil {
			t.count(child, tx, append(path, tx[i]), i+1, onMatch)
		}
	}
}

// CountState is per-worker counting state for a shared, read-only
// HashTree: several goroutines can traverse one tree concurrently, each
// accumulating into its own state, and the states merge afterwards.
type CountState struct {
	counts []int64
}

// NewState allocates counting state sized to the tree.
func (t *HashTree) NewState() *CountState {
	return &CountState{counts: make([]int64, t.numCands)}
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
	if cap(st.counts) < t.numCands {
		st.counts = make([]int64, t.numCands)
	}
	st.counts = st.counts[:t.numCands]
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

// CountTransactionInto is CountTransaction accumulating into st instead
// of the candidates themselves; the tree is not mutated, so concurrent
// calls with distinct states are safe.
func (t *HashTree) CountTransactionInto(st *CountState, tx dataset.Itemset) {
	t.CountTransactionIntoFunc(st, tx, nil)
}

// CountTransactionIntoFunc is CountTransactionInto with a per-match
// callback, the state-based counterpart of CountTransaction's onMatch
// (DHP's parallel trim pass uses it to track item participation per
// worker).
func (t *HashTree) CountTransactionIntoFunc(st *CountState, tx dataset.Itemset, onMatch func(*Candidate)) {
	if len(tx) < t.size {
		return
	}
	var stack [pathStack]dataset.Item
	t.countInto(st, t.root, tx, t.pathBuf(&stack), 0, onMatch)
}

func (t *HashTree) countInto(st *CountState, n *htNode, tx, path dataset.Itemset, start int, onMatch func(*Candidate)) {
	if n.isLeaf() {
		rest, k := tx[start:], t.size
		for j, c := range n.leaf {
			if matches(n.keys[j*k:j*k+k], path, rest) {
				st.counts[c.id]++
				if onMatch != nil {
					onMatch(c)
				}
			}
		}
		return
	}
	for i := start; i <= len(tx)-(t.size-len(path)); i++ {
		if child := n.children[t.hash(tx[i])]; child != nil {
			t.countInto(st, child, tx, append(path, tx[i]), i+1, onMatch)
		}
	}
}

// Merge adds the state's counts into the candidates (in tree build
// order). Call once per state after all counting goroutines finish.
func (t *HashTree) Merge(cands []*Candidate, st *CountState) {
	for i, c := range cands {
		c.Count += st.counts[i]
	}
}
