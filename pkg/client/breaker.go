package client

import (
	"sync"
	"time"
)

// BreakerState is a circuit breaker's position.
type BreakerState int

const (
	// BreakerClosed passes traffic and counts consecutive failures.
	BreakerClosed BreakerState = iota
	// BreakerOpen rejects traffic until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen admits exactly one probe; its outcome closes or
	// re-opens the breaker.
	BreakerHalfOpen
)

var breakerStateNames = [...]string{"closed", "open", "half-open"}

// String returns the conventional name for the state.
func (s BreakerState) String() string {
	if s < 0 || int(s) >= len(breakerStateNames) {
		return "unknown"
	}
	return breakerStateNames[s]
}

// Breaker is a per-peer circuit breaker: breakerThreshold consecutive
// failures open it, an open breaker rejects requests for breakerCooldown,
// and after the cooldown a single half-open probe decides whether it closes
// again. A nil *Breaker allows everything and records nothing, so call
// sites need no nil checks.
type Breaker struct {
	threshold int
	cooldown  time.Duration
	now       func() time.Time

	mu       sync.Mutex
	state    BreakerState // guarded by mu
	failures int          // guarded by mu: consecutive failures while closed
	openedAt time.Time    // guarded by mu: when the breaker last opened
	probing  bool         // guarded by mu: a half-open probe is in flight
}

// breakerThreshold is the consecutive-failure count that opens a breaker;
// breakerCooldown is how long an open breaker rejects its peer before
// admitting a half-open probe.
const (
	breakerThreshold = 3
	breakerCooldown  = 5 * time.Second
)

// NewBreaker builds a closed breaker on the wall clock.
func NewBreaker() *Breaker { return newBreaker(breakerThreshold, breakerCooldown, time.Now) }

// newBreaker builds a breaker with its own threshold, cooldown and clock,
// so tests step time instead of sleeping.
func newBreaker(threshold int, cooldown time.Duration, now func() time.Time) *Breaker {
	return &Breaker{threshold: threshold, cooldown: cooldown, now: now}
}

// Allow reports whether a request may proceed. An open breaker whose
// cooldown has elapsed moves to half-open and admits the caller as the
// probe; every Allow that returns true must be matched by one Record.
func (b *Breaker) Allow() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if b.now().Sub(b.openedAt) < b.cooldown {
			return false
		}
		b.state = BreakerHalfOpen
		b.probing = true
		return true
	default: // half-open: one probe at a time
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// Record reports the outcome of an allowed request. Success closes the
// breaker and clears the failure count; failure while half-open (or the
// threshold'th consecutive failure while closed) opens it and starts the
// cooldown.
func (b *Breaker) Record(ok bool) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
	if ok {
		b.state = BreakerClosed
		b.failures = 0
		return
	}
	b.failures++
	if b.state == BreakerHalfOpen || b.failures >= b.threshold {
		b.state = BreakerOpen
		b.openedAt = b.now()
	}
}

// State returns the breaker's current position without advancing it: an
// open breaker past its cooldown still reads as open until a request
// actually probes it.
func (b *Breaker) State() BreakerState {
	if b == nil {
		return BreakerClosed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}
