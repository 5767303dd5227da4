package remote

import (
	"sync"
	"time"
)

// BreakerState is a circuit breaker's position. The numeric values are
// the ossm_shard_breaker_state gauge's encoding, ordered by severity.
type BreakerState int32

const (
	// BreakerClosed passes every call through and counts consecutive
	// failures.
	BreakerClosed BreakerState = 0
	// BreakerHalfOpen admits exactly one probe call; its outcome decides
	// between closing and re-opening.
	BreakerHalfOpen BreakerState = 1
	// BreakerOpen rejects every call until the cooldown elapses.
	BreakerOpen BreakerState = 2
)

// String names the state for health rows and logs.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerHalfOpen:
		return "half-open"
	case BreakerOpen:
		return "open"
	}
	return "unknown"
}

// BreakerConfig tunes a breaker. The zero value trips after 5
// consecutive failures and cools down for a second.
type BreakerConfig struct {
	// FailureThreshold is the consecutive-failure count that trips a
	// closed breaker open (0 ⇒ 5).
	FailureThreshold int
	// Cooldown is how long an open breaker rejects before admitting a
	// half-open probe (0 ⇒ 1s).
	Cooldown time.Duration
	// OnChange, when non-nil, observes every state transition. Calls are
	// serialized in transition order under the breaker's lock, so the
	// callback must be fast and must not call back into the breaker.
	OnChange func(BreakerState)
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 5
	}
	if c.Cooldown <= 0 {
		c.Cooldown = time.Second
	}
	return c
}

// breaker is a closed/open/half-open circuit breaker. Allow hands out a
// completion callback so the half-open probe is single-flight by
// construction: only the caller holding the callback can settle the
// probe, and everyone else is rejected until it does.
type breaker struct {
	cfg BreakerConfig
	now func() time.Time // injectable clock for tests

	mu       sync.Mutex
	state    BreakerState
	fails    int       // consecutive failures while closed
	openedAt time.Time // when the breaker last tripped open
	probing  bool      // a half-open probe is in flight
	trips    uint64    // times tripped open: the closed period a call was admitted in
}

func newBreaker(cfg BreakerConfig) *breaker {
	return &breaker{cfg: cfg.withDefaults(), now: time.Now}
}

// State reports the current position, promoting open to half-open once
// the cooldown has elapsed (the promotion a caller would get).
func (b *breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerOpen && b.now().Sub(b.openedAt) >= b.cfg.Cooldown {
		return BreakerHalfOpen
	}
	return b.state
}

// Allow asks to place one call. On admission it returns a non-nil done
// callback the caller must invoke exactly once with the call's outcome;
// on rejection it returns ErrBreakerOpen.
func (b *breaker) Allow() (done func(ok bool), err error) {
	b.mu.Lock()
	switch b.state {
	case BreakerClosed:
		trips := b.trips
		b.mu.Unlock()
		return func(ok bool) { b.settleClosed(trips, ok) }, nil
	case BreakerOpen:
		if b.now().Sub(b.openedAt) < b.cfg.Cooldown {
			b.mu.Unlock()
			return nil, ErrBreakerOpen
		}
		b.transition(BreakerHalfOpen)
		fallthrough
	case BreakerHalfOpen:
		if b.probing {
			b.mu.Unlock()
			return nil, ErrBreakerOpen
		}
		b.probing = true
		b.mu.Unlock()
		return b.settleProbe, nil
	}
	b.mu.Unlock()
	return nil, ErrBreakerOpen
}

// settleClosed records the outcome of a call admitted while closed,
// after trips trips.
func (b *breaker) settleClosed(trips uint64, ok bool) {
	b.mu.Lock()
	if trips != b.trips {
		// The breaker tripped since the call was admitted. Its outcome
		// belongs to that earlier closed period: it must neither flap the
		// current state nor count against a breaker that has since
		// re-closed (a call hung on a wedged shard times out long after
		// the probe that closed the breaker again).
		b.mu.Unlock()
		return
	}
	if ok {
		b.fails = 0
		b.mu.Unlock()
		return
	}
	b.fails++
	if b.fails >= b.cfg.FailureThreshold {
		b.trip()
	}
	b.mu.Unlock()
}

// settleProbe records the half-open probe's outcome.
func (b *breaker) settleProbe(ok bool) {
	b.mu.Lock()
	b.probing = false
	if ok {
		b.fails = 0
		b.transition(BreakerClosed)
	} else {
		b.trip()
	}
	b.mu.Unlock()
}

// trip opens the breaker and stamps the cooldown clock. Callers hold mu.
func (b *breaker) trip() {
	b.trips++
	b.openedAt = b.now()
	b.transition(BreakerOpen)
}

// transition moves to a new state and notifies OnChange. Callers hold
// mu, which is what serializes the callback in transition order.
func (b *breaker) transition(to BreakerState) {
	if b.state == to {
		return
	}
	b.state = to
	if fn := b.cfg.OnChange; fn != nil {
		fn(to)
	}
}
