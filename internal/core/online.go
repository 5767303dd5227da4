package core

import (
	"fmt"

	"github.com/ossm-mining/ossm/internal/dataset"
)

// Appender maintains an OSSM incrementally as transactions stream in —
// the online setting of the precursor SSM case study (Lakshmanan, Leung
// & Ng, SIGKDD Explorations 2000), where the structure feeds an online
// miner such as Carma. Transactions accumulate into fixed-size pages;
// completed pages become candidate segments; whenever the working set
// exceeds CompactAt, the configured segmentation algorithm folds it back
// to MaxSegments. Snapshot yields a queryable Map over everything
// appended so far at any moment.
type Appender struct {
	numItems    int
	pageSize    int
	maxSegments int
	compactAt   int
	alg         Algorithm
	bubble      []dataset.Item
	seed        int64

	rows  [][]uint32 // completed-page / compacted segment rows
	cur   []uint32   // current partial page
	curN  int        // transactions in the partial page
	total int64      // transactions appended overall
}

// AppenderOptions configures NewAppender.
type AppenderOptions struct {
	// PageSize is the number of transactions per page (default 100, the
	// paper's 4 KB-page estimate).
	PageSize int
	// MaxSegments is the segment budget n_user (default 40).
	MaxSegments int
	// CompactAt triggers compaction when the working set reaches this
	// many rows (default 4 × MaxSegments).
	CompactAt int
	// Algorithm folds the working set during compaction (default
	// AlgGreedy; use AlgRandom for minimum latency).
	Algorithm Algorithm
	// Bubble restricts sumdiff during compaction (nil = all items).
	Bubble []dataset.Item
	// Seed drives randomized compaction.
	Seed int64
}

// NewAppender creates an empty online OSSM maintainer over a domain of
// numItems items.
func NewAppender(numItems int, opts AppenderOptions) (*Appender, error) {
	if numItems <= 0 {
		return nil, fmt.Errorf("core: numItems must be positive, got %d", numItems)
	}
	if opts.PageSize == 0 {
		opts.PageSize = 100
	}
	if opts.PageSize < 1 {
		return nil, fmt.Errorf("core: PageSize must be positive, got %d", opts.PageSize)
	}
	if opts.MaxSegments == 0 {
		opts.MaxSegments = 40
	}
	if opts.MaxSegments < 1 {
		return nil, fmt.Errorf("core: MaxSegments must be positive, got %d", opts.MaxSegments)
	}
	if opts.CompactAt == 0 {
		opts.CompactAt = 4 * opts.MaxSegments
	}
	if opts.CompactAt <= opts.MaxSegments {
		return nil, fmt.Errorf("core: CompactAt (%d) must exceed MaxSegments (%d)", opts.CompactAt, opts.MaxSegments)
	}
	if opts.Algorithm == AlgRandomRC || opts.Algorithm == AlgRandomGreedy {
		return nil, fmt.Errorf("core: hybrid algorithms are redundant for incremental compaction; use %v or %v",
			AlgRC, AlgGreedy)
	}
	return &Appender{
		numItems:    numItems,
		pageSize:    opts.PageSize,
		maxSegments: opts.MaxSegments,
		compactAt:   opts.CompactAt,
		alg:         opts.Algorithm,
		bubble:      opts.Bubble,
		seed:        opts.Seed,
		cur:         make([]uint32, numItems),
	}, nil
}

// Add appends one transaction. The input must be a valid Itemset over
// the appender's domain; Add returns an error otherwise and leaves the
// state unchanged.
func (a *Appender) Add(tx dataset.Itemset) error {
	if !tx.Valid() {
		return fmt.Errorf("core: Add requires a strictly ascending itemset, got %v", tx)
	}
	if len(tx) > 0 && int(tx[len(tx)-1]) >= a.numItems {
		return fmt.Errorf("core: item %d outside domain of %d items", tx[len(tx)-1], a.numItems)
	}
	for _, it := range tx {
		a.cur[it]++
	}
	a.curN++
	a.total++
	if a.curN == a.pageSize {
		a.rows = append(a.rows, a.cur)
		a.cur = make([]uint32, a.numItems)
		a.curN = 0
		if len(a.rows) >= a.compactAt {
			if err := a.compact(); err != nil {
				return err
			}
		}
	}
	return nil
}

// compact folds the working set down to MaxSegments rows.
func (a *Appender) compact() error {
	res, err := Segment(a.rows, Options{
		Algorithm:      a.alg,
		TargetSegments: a.maxSegments,
		Bubble:         a.bubble,
		Seed:           a.seed,
	})
	if err != nil {
		return err
	}
	rows := make([][]uint32, res.Map.NumSegments())
	for s := range rows {
		rows[s] = res.Map.AppendSegmentRow(make([]uint32, 0, a.numItems), s)
	}
	a.rows = rows
	a.seed++
	return nil
}

// NumTx returns the number of transactions appended so far.
func (a *Appender) NumTx() int64 { return a.total }

// AppenderState is the complete replayable state of an Appender: the
// configuration it was created with plus everything Add has accumulated.
// It is the unit of durability for write-ahead-logged ingestion
// (internal/wal): persist a State, replay the WAL tail through Add, and
// the appender is bit-identical to one that never stopped — Add and
// compact are deterministic given (state, transaction sequence).
type AppenderState struct {
	NumItems    int
	PageSize    int
	MaxSegments int
	CompactAt   int
	Algorithm   Algorithm
	Bubble      []dataset.Item
	Seed        int64 // the *current* seed (advanced by past compactions)

	Rows  [][]uint32 // completed-page / compacted segment rows
	Cur   []uint32   // partial-page singleton counts
	CurN  int        // transactions in the partial page
	Total int64      // transactions appended overall
}

// State returns a deep copy of the appender's complete state; the
// appender and the copy evolve independently afterwards.
func (a *Appender) State() AppenderState {
	st := AppenderState{
		NumItems:    a.numItems,
		PageSize:    a.pageSize,
		MaxSegments: a.maxSegments,
		CompactAt:   a.compactAt,
		Algorithm:   a.alg,
		Seed:        a.seed,
		CurN:        a.curN,
		Total:       a.total,
	}
	if a.bubble != nil {
		st.Bubble = append([]dataset.Item(nil), a.bubble...)
	}
	st.Rows = make([][]uint32, len(a.rows))
	for i, row := range a.rows {
		st.Rows[i] = append([]uint32(nil), row...)
	}
	st.Cur = append([]uint32(nil), a.cur...)
	return st
}

// RestoreAppender reconstructs an Appender from a State (deep-copying, so
// the state stays reusable). It validates the configuration exactly like
// NewAppender plus the state invariants a corrupted snapshot could break.
func RestoreAppender(st AppenderState) (*Appender, error) {
	a, err := NewAppender(st.NumItems, AppenderOptions{
		PageSize:    st.PageSize,
		MaxSegments: st.MaxSegments,
		CompactAt:   st.CompactAt,
		Algorithm:   st.Algorithm,
		Bubble:      st.Bubble,
		Seed:        st.Seed,
	})
	if err != nil {
		return nil, err
	}
	if len(st.Cur) != st.NumItems {
		return nil, fmt.Errorf("core: restore: partial page has %d cells, domain %d", len(st.Cur), st.NumItems)
	}
	if st.CurN < 0 || st.CurN >= a.pageSize {
		return nil, fmt.Errorf("core: restore: partial page holds %d transactions, page size %d", st.CurN, a.pageSize)
	}
	if st.Total < 0 {
		return nil, fmt.Errorf("core: restore: negative transaction total %d", st.Total)
	}
	if len(st.Rows) >= a.compactAt {
		return nil, fmt.Errorf("core: restore: %d rows exceed the compaction threshold %d", len(st.Rows), a.compactAt)
	}
	a.rows = make([][]uint32, len(st.Rows))
	for i, row := range st.Rows {
		if len(row) != st.NumItems {
			return nil, fmt.Errorf("core: restore: row %d has %d cells, domain %d", i, len(row), st.NumItems)
		}
		a.rows[i] = append([]uint32(nil), row...)
	}
	copy(a.cur, st.Cur)
	a.curN = st.CurN
	a.total = st.Total
	return a, nil
}

// Segments returns the current working-set size (completed rows, not
// counting the partial page).
func (a *Appender) Segments() int { return len(a.rows) }

// Snapshot returns a queryable OSSM over everything appended so far,
// with at most MaxSegments+1 segments (the partial page rides along as
// its own segment). The snapshot is independent of future appends.
// Snapshot on an empty appender returns nil.
func (a *Appender) Snapshot() (*Map, error) {
	rows := a.rows
	if len(rows) >= a.compactAt {
		// Can only happen if a compaction errored previously; retry.
		if err := a.compact(); err != nil {
			return nil, err
		}
		rows = a.rows
	}
	if len(rows) > a.maxSegments {
		res, err := Segment(rows, Options{
			Algorithm:      a.alg,
			TargetSegments: a.maxSegments,
			Bubble:         a.bubble,
			Seed:           a.seed,
		})
		if err != nil {
			return nil, err
		}
		snap := make([][]uint32, res.Map.NumSegments())
		for s := range snap {
			snap[s] = res.Map.AppendSegmentRow(make([]uint32, 0, a.numItems), s)
		}
		rows = snap
	} else {
		cp := make([][]uint32, len(rows))
		for i, row := range rows {
			c := make([]uint32, len(row))
			copy(c, row)
			cp[i] = c
		}
		rows = cp
	}
	if a.curN > 0 {
		partial := make([]uint32, a.numItems)
		copy(partial, a.cur)
		rows = append(rows, partial)
	}
	if len(rows) == 0 {
		return nil, nil
	}
	return NewMap(rows)
}
