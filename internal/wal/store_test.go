package wal

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	ossm "github.com/ossm-mining/ossm"
)

func testOptions() Options {
	return Options{
		NumItems: 16,
		Appender: ossm.AppenderOptions{
			PageSize:    3,
			MaxSegments: 4,
			CompactAt:   8,
			Algorithm:   ossm.Greedy,
		},
		SnapshotEvery: 5,
	}
}

// randBatches generates n canonical random batches over numItems items.
func randBatches(r *rand.Rand, numItems, n int) [][]ossm.Itemset {
	batches := make([][]ossm.Itemset, n)
	for i := range batches {
		batch := make([]ossm.Itemset, 1+r.Intn(4))
		for j := range batch {
			items := make([]ossm.Item, r.Intn(5))
			for k := range items {
				items[k] = ossm.Item(r.Intn(numItems))
			}
			batch[j] = ossm.NewItemset(items...)
		}
		batches[i] = batch
	}
	return batches
}

// oracleStates replays batches through a plain, never-interrupted
// Appender, capturing the state after every prefix: oracle[r] is the
// state once records 1..r have been applied.
func oracleStates(t *testing.T, opts Options, batches [][]ossm.Itemset) []ossm.AppenderState {
	t.Helper()
	app, err := ossm.NewAppender(opts.NumItems, opts.Appender)
	if err != nil {
		t.Fatalf("oracle appender: %v", err)
	}
	states := make([]ossm.AppenderState, 0, len(batches)+1)
	states = append(states, app.State())
	for _, batch := range batches {
		for _, tx := range batch {
			if err := app.Add(tx); err != nil {
				t.Fatalf("oracle add: %v", err)
			}
		}
		states = append(states, app.State())
	}
	return states
}

func TestFreshOpenReopen(t *testing.T) {
	fs := NewMemFS()
	opts := testOptions()
	s, info, err := Open(fs, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if !info.Fresh || info.Seq != 0 {
		t.Fatalf("fresh open: %+v", info)
	}
	names, _ := fs.List()
	if want := []string{snapName(0), walName(0)}; !reflect.DeepEqual(names, want) {
		t.Fatalf("fresh files %v, want %v", names, want)
	}

	batches := randBatches(rand.New(rand.NewSource(1)), opts.NumItems, 7)
	for i, b := range batches {
		seq, err := s.Append(b)
		if err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("Append %d: seq %d", i, seq)
		}
	}
	wantTx := s.NumTx()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := s.Append(batches[0]); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after Close: %v", err)
	}

	s2, info2, err := Open(fs, opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if info2.Fresh {
		t.Fatal("reopen reported Fresh")
	}
	if info2.Seq != uint64(len(batches)) {
		t.Fatalf("reopen Seq %d, want %d", info2.Seq, len(batches))
	}
	if s2.NumTx() != wantTx {
		t.Fatalf("reopen NumTx %d, want %d", s2.NumTx(), wantTx)
	}
	// SnapshotEvery=5 means a snapshot landed at seq 5; records 6 and 7
	// replay from the WAL tail.
	if info2.SnapshotSeq != 5 || info2.Replayed != 2 {
		t.Fatalf("reopen recovery %+v, want snapshot 5 + 2 replayed", info2)
	}
}

func TestSnapshotTruncatesWAL(t *testing.T) {
	fs := NewMemFS()
	opts := testOptions()
	opts.SnapshotEvery = 2
	s, _, err := Open(fs, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	batches := randBatches(rand.New(rand.NewSource(2)), opts.NumItems, 10)
	for _, b := range batches {
		if _, err := s.Append(b); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if got := s.WALBytes(); got != 0 {
		t.Fatalf("WALBytes %d after snapshot boundary, want 0", got)
	}
	// Steady state: the active epoch plus one fallback epoch.
	names, _ := fs.List()
	var snaps, wals int
	for _, name := range names {
		if strings.HasSuffix(name, snapSuffix) {
			snaps++
		}
		if strings.HasSuffix(name, walSuffix) {
			wals++
		}
	}
	if snaps != 2 || wals != 2 || len(names) != 4 {
		t.Fatalf("files after truncation: %v", names)
	}
}

func TestAppendValidation(t *testing.T) {
	s, _, err := Open(NewMemFS(), testOptions())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	if _, err := s.Append(nil); err == nil {
		t.Fatal("empty batch accepted")
	}
	if _, err := s.Append([]ossm.Itemset{{1, 99}}); err == nil {
		t.Fatal("out-of-domain item accepted")
	}
	if s.Seq() != 0 {
		t.Fatalf("rejected batches advanced seq to %d", s.Seq())
	}
	// Unsorted input is canonicalized, not rejected.
	if _, err := s.Append([]ossm.Itemset{{5, 1, 5}}); err != nil {
		t.Fatalf("canonicalizable batch rejected: %v", err)
	}
	if s.NumTx() != 1 {
		t.Fatalf("NumTx %d, want 1", s.NumTx())
	}
}

func TestWriteFailureIsFailStop(t *testing.T) {
	fs := NewMemFS()
	var snapErrs []error
	opts := testOptions()
	opts.OnSnapshot = func(err error) { snapErrs = append(snapErrs, err) }
	s, _, err := Open(fs, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	batch := []ossm.Itemset{{1, 2}}
	if _, err := s.Append(batch); err != nil {
		t.Fatalf("Append: %v", err)
	}
	fs.FailAfter(0)
	if _, err := s.Append(batch); !errors.Is(err, ErrInjected) {
		t.Fatalf("Append with failing disk: %v", err)
	}
	// The store is now fail-stop: even though the disk "recovers", no
	// further writes are accepted — nothing touches the torn WAL tail.
	fs.FailAfter(1 << 30)
	opsBefore := fs.NumOps()
	if _, err := s.Append(batch); !errors.Is(err, ErrFailed) {
		t.Fatalf("Append after failure: %v, want ErrFailed", err)
	}
	if fs.NumOps() != opsBefore {
		t.Fatal("failed store still wrote to disk")
	}
	if err := s.Snapshot(); err == nil {
		t.Fatal("Snapshot after failure succeeded")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if len(snapErrs) != 0 {
		t.Fatalf("snapshot hook fired %d times, want 0", len(snapErrs))
	}

	// The acknowledged record survives; the failed one was never acked.
	s2, info, err := Open(fs, testOptions())
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if info.Seq != 1 {
		t.Fatalf("recovered seq %d, want 1", info.Seq)
	}
}

func TestSnapshotFailureKeepsServing(t *testing.T) {
	fs := NewMemFS()
	var snapErrs []error
	opts := testOptions()
	opts.SnapshotEvery = 1 << 30
	opts.OnSnapshot = func(err error) { snapErrs = append(snapErrs, err) }
	s, _, err := Open(fs, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	batch := []ossm.Itemset{{1, 2}}
	if _, err := s.Append(batch); err != nil {
		t.Fatalf("Append: %v", err)
	}
	// Fail the snapshot's tmp-file create, then let the disk recover:
	// appends keep working and a later snapshot succeeds.
	fs.FailAfter(0)
	if err := s.Snapshot(); !errors.Is(err, ErrInjected) {
		t.Fatalf("Snapshot with failing disk: %v", err)
	}
	fs.FailAfter(1 << 30)
	if _, err := s.Append(batch); err != nil {
		t.Fatalf("Append after snapshot failure: %v", err)
	}
	if err := s.Snapshot(); err != nil {
		t.Fatalf("Snapshot retry: %v", err)
	}
	if len(snapErrs) != 2 || !errors.Is(snapErrs[0], ErrInjected) || snapErrs[1] != nil {
		t.Fatalf("snapshot hook saw %v", snapErrs)
	}
}

func TestRecoveryFallsBackPastBadSnapshot(t *testing.T) {
	fs := NewMemFS()
	opts := testOptions()
	opts.SnapshotEvery = 3
	s, _, err := Open(fs, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	batches := randBatches(rand.New(rand.NewSource(3)), opts.NumItems, 7)
	oracle := oracleStates(t, opts, batches)
	for _, b := range batches {
		if _, err := s.Append(b); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	s.Close()

	// Rot the newest snapshot (seq 6; the fallback pair is snap-3 +
	// wal-3 + wal-6). Recovery must skip it and still lose nothing.
	data, ok := fs.Bytes(snapName(6))
	if !ok {
		t.Fatalf("snap-6 missing; files: %v", listOf(t, fs))
	}
	data[len(data)/2] ^= 0x01
	f, err := fs.Create(snapName(6))
	if err != nil {
		t.Fatalf("rewrite snapshot: %v", err)
	}
	f.Write(data)
	f.Sync()
	f.Close()

	s2, info, err := Open(fs, opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if info.BadSnapshots != 1 || info.SnapshotSeq != 3 {
		t.Fatalf("recovery %+v, want 1 bad snapshot and fallback to 3", info)
	}
	if info.Seq != 7 {
		t.Fatalf("recovered seq %d, want 7", info.Seq)
	}
	if got := s2.app.State(); !reflect.DeepEqual(got, oracle[7]) {
		t.Fatal("fallback recovery diverged from the oracle state")
	}
}

func listOf(t *testing.T, fs FS) []string {
	t.Helper()
	names, err := fs.List()
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	return names
}

func TestTruncatedSnapshotIsTyped(t *testing.T) {
	// A snapshot cut short must classify as truncation (wrapping
	// ossm.ErrTruncated), distinct from structural corruption.
	st := mustState(t)
	data, err := encodeSnapshot(9, st)
	if err != nil {
		t.Fatalf("encodeSnapshot: %v", err)
	}
	for _, cut := range []int{4, 20, len(data) / 2, len(data) - 1} {
		_, _, err := decodeSnapshot(data[:cut])
		if !errors.Is(err, ErrBadSnapshot) || !errors.Is(err, ossm.ErrTruncated) {
			t.Errorf("cut %d: err %v, want ErrBadSnapshot wrapping ossm.ErrTruncated", cut, err)
		}
	}
	flip := append([]byte(nil), data...)
	flip[9] ^= 0xff
	if _, _, err := decodeSnapshot(flip); !errors.Is(err, ErrBadSnapshot) || errors.Is(err, ossm.ErrTruncated) {
		t.Errorf("bit flip: err %v, want ErrBadSnapshot without ErrTruncated", err)
	}
}

func mustState(t *testing.T) ossm.AppenderState {
	t.Helper()
	opts := testOptions()
	app, err := ossm.NewAppender(opts.NumItems, opts.Appender)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(4))
	for _, b := range randBatches(r, opts.NumItems, 9) {
		for _, tx := range b {
			if err := app.Add(tx); err != nil {
				t.Fatal(err)
			}
		}
	}
	return app.State()
}

func TestSnapshotRoundTrip(t *testing.T) {
	st := mustState(t)
	data, err := encodeSnapshot(42, st)
	if err != nil {
		t.Fatalf("encodeSnapshot: %v", err)
	}
	seq, got, err := decodeSnapshot(data)
	if err != nil {
		t.Fatalf("decodeSnapshot: %v", err)
	}
	if seq != 42 {
		t.Fatalf("seq %d", seq)
	}
	if !reflect.DeepEqual(got, st) {
		t.Fatalf("state round trip diverged:\n got %+v\nwant %+v", got, st)
	}
}

func TestIndexPromotion(t *testing.T) {
	algs := []ossm.Algorithm{ossm.Random, ossm.RC, ossm.Greedy, ossm.RandomRC, ossm.RandomGreedy}
	for _, alg := range algs {
		t.Run(alg.String(), func(t *testing.T) {
			opts := testOptions()
			opts.PromoteAlgorithm = alg
			opts.PromoteSegments = 3
			s, _, err := Open(NewMemFS(), opts)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			defer s.Close()
			if _, _, err := s.Index(); !errors.Is(err, ErrEmpty) {
				t.Fatalf("Index on empty store: %v, want ErrEmpty", err)
			}
			var total int64
			for _, b := range randBatches(rand.New(rand.NewSource(5)), opts.NumItems, 20) {
				if _, err := s.Append(b); err != nil {
					t.Fatalf("Append: %v", err)
				}
				total += int64(len(b))
			}
			ix, seq, err := s.Index()
			if err != nil {
				t.Fatalf("Index: %v", err)
			}
			if seq != 20 {
				t.Fatalf("Index seq %d, want 20", seq)
			}
			if ix.NumTx() != int(total) {
				t.Fatalf("Index NumTx %d, want %d", ix.NumTx(), total)
			}
			if got := ix.Map().NumSegments(); got > 4 {
				t.Fatalf("promotion produced %d segments, budget 3 (+1 partial)", got)
			}
			// The promoted index must stay a sound upper bound: singleton
			// supports are exact in any OSSM.
			st := s.app.State()
			for it := 0; it < opts.NumItems; it++ {
				var want int64
				for _, row := range st.Rows {
					want += int64(row[it])
				}
				want += int64(st.Cur[it])
				if got := ix.Map().ItemSupport(ossm.Item(it)); got != want {
					t.Fatalf("item %d support %d, want %d", it, got, want)
				}
			}
		})
	}
}

func TestDirFSRoundTrip(t *testing.T) {
	dir := t.TempDir()
	fs, err := DirFS(dir)
	if err != nil {
		t.Fatalf("DirFS: %v", err)
	}
	opts := testOptions()
	s, info, err := Open(fs, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if !info.Fresh {
		t.Fatalf("fresh dir not Fresh: %+v", info)
	}
	batches := randBatches(rand.New(rand.NewSource(6)), opts.NumItems, 12)
	oracle := oracleStates(t, opts, batches)
	for _, b := range batches {
		if _, err := s.Append(b); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s2, info2, err := Open(fs, opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if info2.Seq != 12 {
		t.Fatalf("recovered seq %d", info2.Seq)
	}
	if got := s2.app.State(); !reflect.DeepEqual(got, oracle[12]) {
		t.Fatal("DirFS recovery diverged from the oracle state")
	}
}

// TestReplayEquivalenceProperty is the randomized replay-equivalence
// property over many workloads: for every appender segmenter and every
// promotion segmenter (all five), a store that snapshots, truncates and
// recovers must be bit-identical — state and serialized index — to one
// uninterrupted Appender run over the same transactions.
func TestReplayEquivalenceProperty(t *testing.T) {
	appenderAlgs := []ossm.Algorithm{ossm.Random, ossm.RC, ossm.Greedy}
	promoteAlgs := []ossm.Algorithm{ossm.Random, ossm.RC, ossm.Greedy, ossm.RandomRC, ossm.RandomGreedy}
	const workloads = 50
	for w := 0; w < workloads; w++ {
		r := rand.New(rand.NewSource(int64(100 + w)))
		opts := Options{
			NumItems: 4 + r.Intn(20),
			Appender: ossm.AppenderOptions{
				PageSize:    1 + r.Intn(4),
				MaxSegments: 2 + r.Intn(4),
				Algorithm:   appenderAlgs[w%len(appenderAlgs)],
				Seed:        int64(w),
			},
			SnapshotEvery:    1 + r.Intn(6),
			PromoteAlgorithm: promoteAlgs[w%len(promoteAlgs)],
			PromoteSegments:  2 + r.Intn(3),
		}
		opts.Appender.CompactAt = opts.Appender.MaxSegments + 1 + r.Intn(6)
		batches := randBatches(r, opts.NumItems, 5+r.Intn(25))
		oracle := oracleStates(t, opts, batches)

		fs := NewMemFS()
		s, _, err := Open(fs, opts)
		if err != nil {
			t.Fatalf("workload %d: Open: %v", w, err)
		}
		for i, b := range batches {
			if _, err := s.Append(b); err != nil {
				t.Fatalf("workload %d: Append %d: %v", w, i, err)
			}
		}
		s.Close()

		s2, info, err := Open(fs, opts)
		if err != nil {
			t.Fatalf("workload %d: reopen: %v", w, err)
		}
		if info.Seq != uint64(len(batches)) {
			t.Fatalf("workload %d: recovered seq %d, want %d", w, info.Seq, len(batches))
		}
		if got := s2.app.State(); !reflect.DeepEqual(got, oracle[len(batches)]) {
			t.Fatalf("workload %d: recovered state diverged from oracle", w)
		}
		if got, want := indexBytes(t, s2), oracleIndexBytes(t, opts, oracle[len(batches)]); !reflect.DeepEqual(got, want) {
			t.Fatalf("workload %d: recovered index not bit-identical to oracle index", w)
		}
		s2.Close()
	}
}

// TestAppendCountOverflowFailsStore: a compaction that would wrap a
// segment cell past 2³²−1 fails the store, and the typed overflow error
// survives the fail-stop wrapping.
func TestAppendCountOverflowFailsStore(t *testing.T) {
	opts := Options{
		NumItems: 2,
		Appender: ossm.AppenderOptions{PageSize: 1, MaxSegments: 1, CompactAt: 2, Algorithm: ossm.Greedy},
	}
	data, err := encodeSnapshot(1, ossm.AppenderState{
		NumItems: 2, PageSize: 1, MaxSegments: 1, CompactAt: 2, Algorithm: ossm.Greedy,
		Rows: [][]uint32{{math.MaxUint32 - 1, 0}},
		Cur:  []uint32{0, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	fs := NewMemFS()
	f, err := fs.Create(snapName(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fs.SyncDir(); err != nil {
		t.Fatal(err)
	}
	s, info, err := Open(fs, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if info.SnapshotSeq != 1 {
		t.Fatalf("recovered from snapshot %d, want 1", info.SnapshotSeq)
	}
	if _, err := s.Append([]ossm.Itemset{itemset(0)}); err != nil {
		t.Fatalf("compaction to 2³²−1: %v", err)
	}
	_, err = s.Append([]ossm.Itemset{itemset(0)})
	if !errors.Is(err, ossm.ErrCountOverflow) || !errors.Is(err, ErrFailed) {
		t.Fatalf("crossing 2³²: err = %v, want ErrFailed wrapping ErrCountOverflow", err)
	}
	if _, err := s.Append([]ossm.Itemset{itemset(1)}); !errors.Is(err, ErrFailed) {
		t.Fatalf("append after the failure: err = %v, want ErrFailed", err)
	}
}

// Snapshot forces a snapshot (and WAL truncation) now.
func (s *Store) Snapshot() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.failed != nil {
		return fmt.Errorf("%w: %w", ErrFailed, s.failed)
	}
	err := s.snapshotLocked()
	if s.opts.OnSnapshot != nil {
		s.opts.OnSnapshot(err)
	}
	return err
}
