package wal

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	ossm "github.com/ossm-mining/ossm"
	"github.com/ossm-mining/ossm/internal/core"
	"github.com/ossm-mining/ossm/internal/dataset"
)

// File naming. Sequence numbers are zero-padded hex so lexicographic
// order is numeric order:
//
//	snap-<seq>.snap   appender state as of record seq
//	wal-<seq>.log     records seq+1, seq+2, … (one file per snapshot epoch)
//	*.tmp             in-flight snapshot writes; ignored by recovery
//
// The snapshot/truncate protocol: write snap-S to a tmp name, sync it,
// rename into place, SyncDir; then create the empty wal-S for the next
// epoch, sync, SyncDir; only then remove the superseded snapshot and WAL.
// Every crash point leaves either the old (snapshot, WAL) pair intact or
// the new pair recoverable — rename is the commit point, and until the
// old WAL is removed it merely re-proves the records the new snapshot
// already contains (replay skips seq ≤ S).

const (
	snapPrefix = "snap-"
	snapSuffix = ".snap"
	walPrefix  = "wal-"
	walSuffix  = ".log"
	tmpSuffix  = ".tmp"
)

func snapName(seq uint64) string { return fmt.Sprintf("snap-%016x.snap", seq) }
func walName(seq uint64) string  { return fmt.Sprintf("wal-%016x.log", seq) }

// parseSeq extracts the sequence number from a store file name.
func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	hex := name[len(prefix) : len(name)-len(suffix)]
	if len(hex) != 16 {
		return 0, false
	}
	seq, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// ErrClosed reports an operation on a closed store.
var ErrClosed = errors.New("wal: store is closed")

// ErrFailed reports a store that went fail-stop after a write-path
// error; reopen it to recover. The original error is wrapped alongside.
var ErrFailed = errors.New("wal: store failed")

// ErrEmpty reports an Index request before any transaction has been
// ingested — an OSSM needs at least one segment.
var ErrEmpty = errors.New("wal: store holds no transactions yet")

// Options configures Open.
type Options struct {
	// NumItems is the item domain size (required).
	NumItems int
	// Appender configures the streaming maintainer behind the log.
	Appender ossm.AppenderOptions
	// SnapshotEvery triggers an automatic snapshot (and WAL truncation)
	// after this many appended records (default 256).
	SnapshotEvery int
	// PromoteSegments is the segment budget Index re-segments to
	// (default: the appender's MaxSegments).
	PromoteSegments int
	// PromoteAlgorithm is the segmentation heuristic Index re-runs at
	// promotion time. Unlike the appender's incremental compaction, this
	// may be any of the five paper algorithms, hybrids included (zero
	// value: Random).
	PromoteAlgorithm ossm.Algorithm
	// PromoteMidSegments is n_mid for hybrid promotion algorithms
	// (0 ⇒ min(rows, max(PromoteSegments, 200))).
	PromoteMidSegments int
	// OnSnapshot, when set, observes every snapshot attempt after Open
	// (nil error = success) — the serving layer's metrics hook.
	OnSnapshot func(err error)
	// OnAppend, when set, observes every successful durable append with
	// its phase timings — the serving layer's hook for reconstructing
	// write→fsync→apply spans on the ingest path.
	OnAppend func(AppendStats)
}

// AppendStats times one durable append's phases: framing and writing the
// record, the fsync that acknowledges it, and the in-memory apply.
type AppendStats struct {
	Seq      uint64
	Txs      int
	Bytes    int
	WriteDur time.Duration
	SyncDur  time.Duration
	ApplyDur time.Duration
}

// RecoveryInfo reports what Open found and did.
type RecoveryInfo struct {
	// Fresh is true when the directory held no usable state.
	Fresh bool
	// SnapshotSeq is the sequence number of the snapshot recovery
	// restored from (0 when Fresh or when replay started from scratch).
	SnapshotSeq uint64
	// BadSnapshots counts snapshot files that failed validation and were
	// skipped (recovery falls back to the next-newest).
	BadSnapshots int
	// Replayed counts WAL records applied on top of the snapshot;
	// ReplayedTxs the transactions inside them.
	Replayed    int
	ReplayedTxs int64
	// TornTail describes why WAL replay stopped before the end of the
	// final file ("" when it ended exactly on a record boundary).
	TornTail string
	// Seq is the recovered sequence number: the store resumes at Seq+1.
	Seq uint64
}

// Store is a durably-logged Appender: every Append is framed, written and
// fsynced to the active WAL file before it mutates the in-memory state,
// so an acknowledged batch survives any crash. Periodic snapshots bound
// the WAL; Index re-segments the current state into a servable OSSM.
type Store struct {
	fs   FS
	opts Options

	mu        sync.Mutex
	app       *ossm.Appender
	seq       uint64    // sequence number of the last applied record
	wal       File      // active WAL file (nil once closed/failed)
	walBytes  int64     // bytes appended to the active WAL file
	sinceSnap int       // records appended since the last snapshot attempt
	snapAt    time.Time // when the last successful snapshot committed
	failed    error     // sticky write-path failure; nil while healthy
	closed    bool
}

// Open recovers the durable state under fs and returns a ready store.
// Recovery loads the newest snapshot that validates, replays the WAL
// records after it in sequence order, stops cleanly at a torn or corrupt
// tail, then re-establishes the invariant "one snapshot + one fresh WAL"
// by snapshotting the recovered state. An empty directory initializes a
// fresh store the same way.
func Open(fs FS, opts Options) (*Store, RecoveryInfo, error) {
	var info RecoveryInfo
	if opts.NumItems <= 0 {
		return nil, info, fmt.Errorf("wal: NumItems must be positive, got %d", opts.NumItems)
	}
	if opts.SnapshotEvery == 0 {
		opts.SnapshotEvery = 256
	}
	if opts.SnapshotEvery < 1 {
		return nil, info, fmt.Errorf("wal: SnapshotEvery must be positive, got %d", opts.SnapshotEvery)
	}

	names, err := fs.List()
	if err != nil {
		return nil, info, fmt.Errorf("wal: listing store: %w", err)
	}
	var snapSeqs, walSeqs []uint64
	for _, name := range names {
		if seq, ok := parseSeq(name, snapPrefix, snapSuffix); ok {
			snapSeqs = append(snapSeqs, seq)
		} else if seq, ok := parseSeq(name, walPrefix, walSuffix); ok {
			walSeqs = append(walSeqs, seq)
		}
	}
	sort.Slice(snapSeqs, func(i, j int) bool { return snapSeqs[i] > snapSeqs[j] }) // newest first
	sort.Slice(walSeqs, func(i, j int) bool { return walSeqs[i] < walSeqs[j] })    // oldest first

	// Newest snapshot that validates end to end wins.
	var app *ossm.Appender
	for _, seq := range snapSeqs {
		f, err := fs.Open(snapName(seq))
		if err != nil {
			info.BadSnapshots++
			continue
		}
		data, err := readAll(f)
		if err != nil {
			info.BadSnapshots++
			continue
		}
		snapSeq, st, err := decodeSnapshot(data)
		if err != nil || snapSeq != seq {
			info.BadSnapshots++
			continue
		}
		if st.NumItems != opts.NumItems {
			return nil, info, fmt.Errorf("wal: %s holds a domain of %d items, store configured for %d",
				snapName(seq), st.NumItems, opts.NumItems)
		}
		a, err := ossm.RestoreAppender(st)
		if err != nil {
			info.BadSnapshots++
			continue
		}
		app = a
		info.SnapshotSeq = seq
		break
	}
	if app == nil {
		// No usable snapshot: start from the empty state. Any surviving
		// WAL files still replay — records ≤ seq 0 do not exist, so a
		// wal-0 tail rebuilds everything it holds.
		a, err := ossm.NewAppender(opts.NumItems, opts.Appender)
		if err != nil {
			return nil, info, err
		}
		app = a
		info.Fresh = len(snapSeqs) == 0 && len(walSeqs) == 0
	}
	seq := info.SnapshotSeq

	// Replay WAL files in epoch order, applying records seq+1, seq+2, …
	// Records at or below the snapshot's sequence are already reflected
	// in it; a gap means the file belongs to a stale epoch — stop, the
	// snapshot protocol guarantees nothing durable lives past a gap.
replay:
	for _, base := range walSeqs {
		f, err := fs.Open(walName(base))
		if err != nil {
			return nil, info, fmt.Errorf("wal: opening %s: %w", walName(base), err)
		}
		data, err := readAll(f)
		if err != nil {
			return nil, info, fmt.Errorf("wal: reading %s: %w", walName(base), err)
		}
		recs, _, derr := DecodeAll(data)
		for _, rec := range recs {
			if rec.Seq <= seq {
				continue
			}
			if rec.Seq != seq+1 {
				info.TornTail = fmt.Sprintf("%s: sequence gap: record %d after %d", walName(base), rec.Seq, seq)
				break replay
			}
			for _, tx := range rec.Txs {
				if err := app.Add(tx); err != nil {
					return nil, info, fmt.Errorf("wal: replaying record %d: %w", rec.Seq, err)
				}
			}
			seq = rec.Seq
			info.Replayed++
			info.ReplayedTxs += int64(len(rec.Txs))
		}
		if derr != nil {
			info.TornTail = fmt.Sprintf("%s: %v", walName(base), derr)
			break
		}
	}
	info.Seq = seq

	s := &Store{fs: fs, opts: opts, app: app, seq: seq}
	// Re-establish the steady-state invariant — exactly one snapshot, at
	// the recovered sequence, with a fresh empty WAL — so the torn tail
	// is truncated and the next crash recovers from here in O(1).
	if err := s.snapshotLocked(); err != nil {
		return nil, info, fmt.Errorf("wal: writing recovery snapshot: %w", err)
	}
	return s, info, nil
}

// Append durably logs one batch of transactions and applies it. The
// batch is atomic: after a crash, recovery sees either all of it or none
// of it. The returned sequence number acknowledges durability — the
// record was written and fsynced before Append returned. Itemsets are
// canonicalized (sorted, de-duplicated); items outside the domain reject
// the whole batch before anything is written.
func (s *Store) Append(txs []ossm.Itemset) (uint64, error) {
	seq, _, err := s.AppendWithStats(txs)
	return seq, err
}

// AppendWithStats is Append, additionally returning the append's phase
// timings so callers can reconstruct write→fsync→apply spans without a
// hook round-trip.
func (s *Store) AppendWithStats(txs []ossm.Itemset) (uint64, AppendStats, error) {
	var st AppendStats
	if len(txs) == 0 {
		return 0, st, fmt.Errorf("wal: empty batch")
	}
	canon := make([]dataset.Itemset, len(txs))
	for i, tx := range txs {
		c := dataset.NewItemset(tx...)
		if len(c) > 0 && int(c[len(c)-1]) >= s.opts.NumItems {
			return 0, st, fmt.Errorf("wal: transaction %d: item %d outside domain of %d items",
				i, c[len(c)-1], s.opts.NumItems)
		}
		canon[i] = c
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, st, ErrClosed
	}
	if s.failed != nil {
		return 0, st, fmt.Errorf("%w: %w", ErrFailed, s.failed)
	}

	frame := AppendRecord(nil, s.seq+1, canon)
	writeStart := time.Now()
	if _, err := s.wal.Write(frame); err != nil {
		return 0, st, s.fail(err)
	}
	syncStart := time.Now()
	if err := s.wal.Sync(); err != nil {
		return 0, st, s.fail(err)
	}
	applyStart := time.Now()
	// The record is durable; the in-memory apply cannot fail (the batch
	// was validated above) short of an internal compaction error, which
	// is fatal by the same rule as a write error.
	for _, tx := range canon {
		if err := s.app.Add(tx); err != nil {
			return 0, st, s.fail(err)
		}
	}
	s.seq++
	s.walBytes += int64(len(frame))
	s.sinceSnap++
	st = AppendStats{
		Seq:      s.seq,
		Txs:      len(canon),
		Bytes:    len(frame),
		WriteDur: syncStart.Sub(writeStart),
		SyncDur:  applyStart.Sub(syncStart),
		ApplyDur: time.Since(applyStart),
	}
	if s.opts.OnAppend != nil {
		s.opts.OnAppend(st)
	}
	if s.sinceSnap >= s.opts.SnapshotEvery {
		err := s.snapshotLocked()
		if s.opts.OnSnapshot != nil {
			s.opts.OnSnapshot(err)
		}
		// A failed snapshot is not data loss: the WAL keeps growing and
		// the next interval retries. Only the write path is fail-stop.
	}
	return s.seq, st, nil
}

// fail marks the store broken after a write-path error. Once a WAL write
// or sync fails the file's tail is in an unknown state; continuing would
// risk interleaving a later record after a partial one. Recovery at next
// open handles the tail.
func (s *Store) fail(err error) error {
	s.failed = err
	if s.wal != nil {
		s.wal.Close()
		s.wal = nil
	}
	return fmt.Errorf("%w: %w", ErrFailed, err)
}

// SetOnSnapshot installs (or replaces) the snapshot-outcome observer —
// for callers that wire metrics up after Open, like the serving layer.
func (s *Store) SetOnSnapshot(fn func(err error)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.opts.OnSnapshot = fn
}

// SinceSnapshot reports the replay debt the next crash would pay: how
// many records the active WAL holds beyond the last snapshot, and when
// that snapshot was taken (zero time before any snapshot).
func (s *Store) SinceSnapshot() (records int, at time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sinceSnap, s.snapAt
}

// snapshotLocked persists the current state as snap-<seq>, opens the
// fresh wal-<seq> for the next epoch, and removes the superseded files.
// Callers hold s.mu.
func (s *Store) snapshotLocked() error {
	s.sinceSnap = 0
	data, err := encodeSnapshot(s.seq, s.app.State())
	if err != nil {
		return err
	}
	tmp := snapName(s.seq) + tmpSuffix
	f, err := s.fs.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := s.fs.Rename(tmp, snapName(s.seq)); err != nil {
		return err
	}
	if err := s.fs.SyncDir(); err != nil {
		return err
	}
	// The snapshot is committed. Open the next epoch's WAL...
	w, err := s.fs.Create(walName(s.seq))
	if err != nil {
		return err
	}
	if err := w.Sync(); err != nil {
		w.Close()
		return err
	}
	if err := s.fs.SyncDir(); err != nil {
		w.Close()
		return err
	}
	if s.wal != nil {
		s.wal.Close()
	}
	s.wal = w
	s.walBytes = 0
	s.snapAt = time.Now()
	// ...and only now truncate. One full previous epoch (snapshot + its
	// WAL) is retained besides the active one: if the newest snapshot
	// ever fails validation (bit rot, a lying disk), recovery falls back
	// to the previous snapshot and replays both epochs' WALs — they are
	// contiguous, so nothing acknowledged is lost. Everything older is
	// redundant with that pair; losing these removes in a crash merely
	// leaves stale files for the next snapshot to clear.
	names, err := s.fs.List()
	if err != nil {
		return err
	}
	keep := map[uint64]bool{s.seq: true}
	prev, havePrev := uint64(0), false
	for _, name := range names {
		if seq, ok := parseSeq(name, snapPrefix, snapSuffix); ok && seq < s.seq && (!havePrev || seq > prev) {
			prev, havePrev = seq, true
		}
	}
	if havePrev {
		keep[prev] = true
	}
	for _, name := range names {
		if seq, ok := parseSeq(name, snapPrefix, snapSuffix); ok && !keep[seq] {
			if err := s.fs.Remove(name); err != nil {
				return err
			}
		} else if seq, ok := parseSeq(name, walPrefix, walSuffix); ok && !keep[seq] {
			if err := s.fs.Remove(name); err != nil {
				return err
			}
		} else if strings.HasSuffix(name, tmpSuffix) {
			if err := s.fs.Remove(name); err != nil {
				return err
			}
		}
	}
	return s.fs.SyncDir()
}

// Index re-segments the current state into a servable OSSM with
// PromoteSegments segments, returning it with the sequence number it
// reflects. The expensive segmentation runs outside the store lock, so
// ingestion continues while a promotion is being built.
func (s *Store) Index() (*ossm.Index, uint64, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, 0, ErrClosed
	}
	st := s.app.State()
	seq := s.seq
	s.mu.Unlock()

	ix, err := indexFromState(s.opts, st)
	if err != nil {
		return nil, seq, err
	}
	return ix, seq, nil
}

// indexFromState runs the promotion segmentation over a captured state —
// deterministic given (state, options), which is what lets the crash
// harness compare promoted indexes bit for bit.
func indexFromState(opts Options, st ossm.AppenderState) (*ossm.Index, error) {
	rows := st.Rows
	if st.CurN > 0 {
		rows = append(rows, st.Cur)
	}
	if len(rows) == 0 {
		return nil, ErrEmpty
	}
	target := opts.PromoteSegments
	if target == 0 {
		target = st.MaxSegments
	}
	var m *ossm.Map
	if len(rows) > target {
		mid := opts.PromoteMidSegments
		if mid == 0 {
			mid = 200
			if mid < target {
				mid = target
			}
			if mid > len(rows) {
				mid = len(rows)
			}
		}
		res, err := core.Segment(rows, core.Options{
			Algorithm:      opts.PromoteAlgorithm,
			TargetSegments: target,
			MidSegments:    mid,
			Bubble:         st.Bubble,
			Seed:           st.Seed,
		})
		if err != nil {
			return nil, err
		}
		m = res.Map
	} else {
		mm, err := ossm.NewMap(rows)
		if err != nil {
			return nil, err
		}
		m = mm
	}
	return ossm.IndexFromMap(m, int(st.Total))
}

// Seq returns the sequence number of the last applied record.
func (s *Store) Seq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// NumTx returns the number of transactions ingested overall.
func (s *Store) NumTx() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.app.NumTx()
}

// WALBytes returns the size of the active WAL file's appended records —
// the replay debt the next crash would pay.
func (s *Store) WALBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.walBytes
}

// Close closes the active WAL file. The store stays recoverable: Close
// does not snapshot, it just stops accepting appends.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.wal != nil {
		err := s.wal.Close()
		s.wal = nil
		return err
	}
	return nil
}
