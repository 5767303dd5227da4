package remote

import (
	"errors"
	"testing"
	"time"
)

// clockedBreaker pairs a breaker with a manual clock.
func clockedBreaker(cfg BreakerConfig) (*breaker, *time.Time) {
	b := newBreaker(cfg)
	now := time.Unix(1000, 0)
	b.now = func() time.Time { return now }
	return b, &now
}

// callOutcome places one admitted call and settles it; it fails the test
// if the breaker rejects.
func callOutcome(t *testing.T, b *breaker, ok bool) {
	t.Helper()
	done, err := b.Allow()
	if err != nil {
		t.Fatalf("Allow() rejected: %v", err)
	}
	done(ok)
}

func TestBreakerTransitionTable(t *testing.T) {
	const cooldown = time.Second
	// Step ops: "ok" and "fail" place and settle a call, "reject" asserts
	// Allow refuses, "advance" moves the clock, "state" asserts State().
	type step struct {
		op   string
		d    time.Duration
		want BreakerState
	}
	cases := []struct {
		name  string
		steps []step
	}{
		{"trips after consecutive failures", []step{
			{op: "fail"}, {op: "fail"}, {op: "state", want: BreakerClosed},
			{op: "fail"}, {op: "state", want: BreakerOpen},
			{op: "reject"},
		}},
		{"a success resets the failure count", []step{
			{op: "fail"}, {op: "fail"}, {op: "ok"},
			{op: "fail"}, {op: "fail"}, {op: "state", want: BreakerClosed},
			{op: "fail"}, {op: "state", want: BreakerOpen},
		}},
		{"cooldown admits a probe and success closes", []step{
			{op: "fail"}, {op: "fail"}, {op: "fail"},
			{op: "reject"},
			{op: "advance", d: cooldown},
			{op: "state", want: BreakerHalfOpen},
			{op: "ok"}, {op: "state", want: BreakerClosed},
		}},
		{"probe failure re-opens and restarts the cooldown", []step{
			{op: "fail"}, {op: "fail"}, {op: "fail"},
			{op: "advance", d: cooldown},
			{op: "fail"}, // the half-open probe fails
			{op: "state", want: BreakerOpen},
			{op: "reject"},
			{op: "advance", d: cooldown / 2}, {op: "reject"},
			{op: "advance", d: cooldown / 2},
			{op: "ok"}, {op: "state", want: BreakerClosed},
		}},
		{"closed breaker needs threshold fresh failures after recovery", []step{
			{op: "fail"}, {op: "fail"}, {op: "fail"},
			{op: "advance", d: cooldown}, {op: "ok"},
			{op: "fail"}, {op: "fail"}, {op: "state", want: BreakerClosed},
			{op: "fail"}, {op: "state", want: BreakerOpen},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b, now := clockedBreaker(BreakerConfig{FailureThreshold: 3, Cooldown: cooldown})
			for i, st := range tc.steps {
				switch st.op {
				case "ok", "fail":
					callOutcome(t, b, st.op == "ok")
				case "reject":
					if _, err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
						t.Fatalf("step %d: Allow() = %v, want ErrBreakerOpen", i, err)
					}
				case "advance":
					*now = now.Add(st.d)
				case "state":
					if got := b.State(); got != st.want {
						t.Fatalf("step %d: State() = %v, want %v", i, got, st.want)
					}
				default:
					t.Fatalf("step %d: unknown op %q", i, st.op)
				}
			}
		})
	}
}

func TestBreakerHalfOpenProbeIsSingleFlight(t *testing.T) {
	b, now := clockedBreaker(BreakerConfig{FailureThreshold: 1, Cooldown: time.Second})
	callOutcome(t, b, false) // trip
	*now = now.Add(time.Second)

	probe, err := b.Allow()
	if err != nil {
		t.Fatalf("probe rejected: %v", err)
	}
	// While the probe is in flight every other caller is rejected.
	for i := 0; i < 3; i++ {
		if _, err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
			t.Fatalf("concurrent Allow() = %v, want ErrBreakerOpen", err)
		}
	}
	probe(true)
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("after successful probe State() = %v, want closed", got)
	}
	callOutcome(t, b, true)
}

func TestBreakerStaleClosedOutcomeCannotFlapOpenState(t *testing.T) {
	b, _ := clockedBreaker(BreakerConfig{FailureThreshold: 2, Cooldown: time.Second})
	stale, err := b.Allow() // admitted while closed, settles late
	if err != nil {
		t.Fatal(err)
	}
	callOutcome(t, b, false)
	callOutcome(t, b, false) // trips open
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("State() = %v, want open", got)
	}
	stale(true) // a success from the closed era must not close an open breaker
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("after stale outcome State() = %v, want open", got)
	}
}

func TestBreakerStaleClosedOutcomeCannotTripReclosedBreaker(t *testing.T) {
	b, now := clockedBreaker(BreakerConfig{FailureThreshold: 2, Cooldown: time.Second})
	// Calls admitted while closed that hang until they time out.
	var stale []func(bool)
	for i := 0; i < 2; i++ {
		done, err := b.Allow()
		if err != nil {
			t.Fatal(err)
		}
		stale = append(stale, done)
	}
	callOutcome(t, b, false)
	callOutcome(t, b, false) // trips open
	*now = now.Add(time.Second)
	callOutcome(t, b, true) // the half-open probe closes it again
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("after probe State() = %v, want closed", got)
	}
	for _, done := range stale {
		done(false) // failures from before the trip
	}
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("stale failures re-opened the breaker: State() = %v", got)
	}
	// Failures of calls admitted after the re-close still count.
	callOutcome(t, b, false)
	callOutcome(t, b, false)
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("fresh failures: State() = %v, want open", got)
	}
}

func TestBreakerOnChangeSeesOrderedTransitions(t *testing.T) {
	var seen []BreakerState
	b, now := clockedBreaker(BreakerConfig{
		FailureThreshold: 2,
		Cooldown:         time.Second,
		OnChange:         func(s BreakerState) { seen = append(seen, s) },
	})
	callOutcome(t, b, false)
	callOutcome(t, b, false) // -> open
	*now = now.Add(time.Second)
	callOutcome(t, b, false) // -> half-open -> open
	*now = now.Add(time.Second)
	callOutcome(t, b, true) // -> half-open -> closed

	want := []BreakerState{BreakerOpen, BreakerHalfOpen, BreakerOpen, BreakerHalfOpen, BreakerClosed}
	if len(seen) != len(want) {
		t.Fatalf("transitions = %v, want %v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("transitions = %v, want %v", seen, want)
		}
	}
}

func TestBreakerStateStrings(t *testing.T) {
	pairs := map[BreakerState]string{
		BreakerClosed:   "closed",
		BreakerHalfOpen: "half-open",
		BreakerOpen:     "open",
		BreakerState(9): "unknown",
	}
	for s, want := range pairs {
		if got := s.String(); got != want {
			t.Fatalf("%d.String() = %q, want %q", s, got, want)
		}
	}
}
