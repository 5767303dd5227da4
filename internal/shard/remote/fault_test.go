package remote

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	ossm "github.com/ossm-mining/ossm"
	"github.com/ossm-mining/ossm/internal/shard"
)

// ErrInjected marks failures manufactured by a Fault decorator, so
// tests can tell injected faults from real ones.
var ErrInjected = errors.New("remote: injected fault")

// Fault wraps a shard.Transport with seeded fault injection for the
// chaos tests. Under a Worker it makes a real HTTP shard misbehave, so
// the coordinator sees genuine wire failures.
//
// Info, CanMine and NumTx pass through untouched: faults model the data
// path, and the coordinator must still be able to read identity.
type Fault struct {
	t shard.Transport

	mu      sync.Mutex // guards rng and the settings below
	rng     *rand.Rand
	latency time.Duration
	jitter  time.Duration
	errRate float64
	hung    atomic.Bool

	calls         atomic.Int64
	injectedErrs  atomic.Int64
	injectedHangs atomic.Int64
}

// NewFault wraps t with no faults armed. seed drives every random
// decision (latency jitter and error draws), so a given seed over the
// same call sequence injects the same faults.
func NewFault(t shard.Transport, seed int64) *Fault {
	return &Fault{t: t, rng: rand.New(rand.NewSource(seed))}
}

// SetLatency delays every data call by latency plus a uniform
// [0, jitter) extra, honoring the call's context.
func (f *Fault) SetLatency(latency, jitter time.Duration) {
	f.mu.Lock()
	f.latency, f.jitter = latency, jitter
	f.mu.Unlock()
}

// SetErrorRate sets the probability that a data call fails with
// ErrInjected instead of reaching the wrapped transport.
func (f *Fault) SetErrorRate(p float64) {
	f.mu.Lock()
	f.errRate = p
	f.mu.Unlock()
}

// SetHung makes every data call block on its context (true) or restores
// normal service (false) — the chaos tests' "one shard wedged" lever.
func (f *Fault) SetHung(v bool) { f.hung.Store(v) }

// FaultStats counts what a Fault has injected so far.
type FaultStats struct {
	Calls          int64 // data calls that reached the decorator
	InjectedErrors int64 // calls failed with ErrInjected
	InjectedHangs  int64 // calls blocked until their context ended
}

// Stats snapshots the injection counters.
func (f *Fault) Stats() FaultStats {
	return FaultStats{
		Calls:          f.calls.Load(),
		InjectedErrors: f.injectedErrs.Load(),
		InjectedHangs:  f.injectedHangs.Load(),
	}
}

func (f *Fault) Info() shard.Info { return f.t.Info() }
func (f *Fault) CanMine() bool    { return f.t.CanMine() }
func (f *Fault) NumTx() int       { return f.t.NumTx() }

func (f *Fault) PartialBounds(ctx context.Context, sets []ossm.Itemset, out []int64) error {
	if err := f.inject(ctx); err != nil {
		return err
	}
	return f.t.PartialBounds(ctx, sets, out)
}

func (f *Fault) LocalFrequent(ctx context.Context, miner string, localMin int64, maxLen int) ([]ossm.Itemset, error) {
	if err := f.inject(ctx); err != nil {
		return nil, err
	}
	return f.t.LocalFrequent(ctx, miner, localMin, maxLen)
}

func (f *Fault) PartialSupports(ctx context.Context, cands []ossm.Itemset, out []int64) error {
	if err := f.inject(ctx); err != nil {
		return err
	}
	return f.t.PartialSupports(ctx, cands, out)
}

// inject runs the faults for one data call: hang, then an error draw,
// then latency.
func (f *Fault) inject(ctx context.Context) error {
	f.calls.Add(1)
	if f.hung.Load() {
		f.injectedHangs.Add(1)
		<-ctx.Done()
		return ctx.Err()
	}
	f.mu.Lock()
	fail := f.errRate > 0 && f.rng.Float64() < f.errRate
	d := f.latency
	if !fail && f.jitter > 0 {
		d += time.Duration(f.rng.Int63n(int64(f.jitter)))
	}
	f.mu.Unlock()
	if fail {
		f.injectedErrs.Add(1)
		return ErrInjected
	}
	if d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
		}
	}
	return ctx.Err()
}

// faultFixture wraps one local shard in a Fault for direct (no-wire)
// injection tests.
func faultFixture(t *testing.T, seed int64) (*Fault, []ossm.Itemset) {
	t.Helper()
	d, ix := fixture(t, 400, 8, ossm.RandomGreedy, 3)
	locals, err := shard.NewLocalShards(ix, d, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(17))
	return NewFault(shard.Transports(locals)[0], seed), randomSets(r, ix.NumItems(), 8)
}

func boundsErr(f *Fault, ctx context.Context, sets []ossm.Itemset) error {
	out := make([]int64, len(sets))
	return f.PartialBounds(ctx, sets, out)
}

func TestFaultErrorScheduleIsDeterministic(t *testing.T) {
	run := func() []bool {
		f, sets := faultFixture(t, 99)
		f.SetErrorRate(0.5)
		var outcomes []bool
		for i := 0; i < 40; i++ {
			outcomes = append(outcomes, boundsErr(f, context.Background(), sets) == nil)
		}
		return outcomes
	}
	a, b := run(), run()
	var failed int
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("call %d: first run ok=%v, second run ok=%v — schedule not deterministic", i, a[i], b[i])
		}
		if !a[i] {
			failed++
		}
	}
	if failed == 0 || failed == len(a) {
		t.Fatalf("error rate 0.5 over %d calls injected %d errors — draw looks broken", len(a), failed)
	}
}

func TestFaultInjectedErrorsAreRecognizable(t *testing.T) {
	f, sets := faultFixture(t, 1)
	f.SetErrorRate(1)
	err := boundsErr(f, context.Background(), sets)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	st := f.Stats()
	if st.Calls != 1 || st.InjectedErrors != 1 {
		t.Fatalf("stats = %+v, want 1 call / 1 injected error", st)
	}
}

func TestFaultHangHonorsContext(t *testing.T) {
	f, sets := faultFixture(t, 1)
	f.SetHung(true)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := boundsErr(f, ctx, sets)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("hung call took %v despite a 20ms context", elapsed)
	}
	if st := f.Stats(); st.InjectedHangs != 1 {
		t.Fatalf("stats = %+v, want 1 injected hang", st)
	}
	// Unhang: service restored.
	f.SetHung(false)
	if err := boundsErr(f, context.Background(), sets); err != nil {
		t.Fatalf("after SetHung(false): %v", err)
	}
}

func TestFaultLatencyDelaysButPreservesAnswers(t *testing.T) {
	d, ix := fixture(t, 400, 8, ossm.RandomGreedy, 3)
	locals, err := shard.NewLocalShards(ix, d, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	f := NewFault(shard.Transports(locals)[0], 1)
	f.SetLatency(30*time.Millisecond, 0)
	r := rand.New(rand.NewSource(17))
	sets := randomSets(r, ix.NumItems(), 8)
	want := make([]int64, len(sets))
	ix.UpperBoundBatch(sets, want)

	start := time.Now()
	got := make([]int64, len(sets))
	if err := f.PartialBounds(context.Background(), sets, got); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Fatalf("call returned in %v, want >= 30ms injected latency", elapsed)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bound[%d] = %d, want %d — latency must not corrupt data", i, got[i], want[i])
		}
	}
	// Identity calls bypass injection entirely.
	if seg := f.Info().Segments; seg.Hi-seg.Lo != ix.NumSegments() {
		t.Fatalf("Info() passthrough broken: segments %+v", seg)
	}
	if !f.CanMine() || f.NumTx() != d.NumTx() {
		t.Fatalf("CanMine/NumTx passthrough broken")
	}
}
