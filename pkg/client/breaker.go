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

// Breaker is a per-peer circuit breaker: Threshold consecutive failures
// open it, an open breaker rejects requests for Cooldown, and after the
// cooldown a single half-open probe decides whether it closes again. The
// clock is injected so tests (and seeded drills) step time deterministically
// instead of sleeping. A nil *Breaker allows everything and records
// nothing, so call sites need no nil checks.
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

// DefaultBreakerCooldown is the cooldown of a breaker built with a zero
// cooldown.
const DefaultBreakerCooldown = 5 * time.Second

// NewBreaker builds a breaker. threshold <= 0 defaults to 3 consecutive
// failures, cooldown <= 0 to DefaultBreakerCooldown, a nil now to time.Now.
func NewBreaker(threshold int, cooldown time.Duration, now func() time.Time) *Breaker {
	if threshold <= 0 {
		threshold = 3
	}
	if cooldown <= 0 {
		cooldown = DefaultBreakerCooldown
	}
	if now == nil {
		now = time.Now
	}
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

// cancelProbe releases an admitted request whose outcome was never
// observed — a hedge loser cancelled after another peer won, or an
// attempt abandoned when the caller's context died. It is the alternate
// match for an Allow that returned true: the in-flight probe is cleared
// so a later Allow can admit a new one, without judging the peer either
// way.
func (b *Breaker) cancelProbe() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
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

// Cooldown returns the configured cooldown, for Retry-After hints.
func (b *Breaker) Cooldown() time.Duration {
	if b == nil {
		return 0
	}
	return b.cooldown
}

// latWindow is how many recent latencies the hedge-delay estimate keeps;
// latMinSamples is how many must exist before a p99 is trusted.
const (
	latWindow     = 128
	latMinSamples = 16
)

// latencies is a fixed ring of recent successful request latencies, from
// which the fleet derives its hedge delay.
type latencies struct {
	mu      sync.Mutex
	samples [latWindow]time.Duration // guarded by mu: ring of recent latencies
	n       int                      // guarded by mu: filled entries
	next    int                      // guarded by mu: ring cursor
}

func (l *latencies) add(d time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.samples[l.next] = d
	l.next = (l.next + 1) % latWindow
	if l.n < latWindow {
		l.n++
	}
}

// p99 returns the 99th-percentile latency of the window and whether enough
// samples exist to trust it.
func (l *latencies) p99() (time.Duration, bool) {
	l.mu.Lock()
	n := l.n
	buf := make([]time.Duration, n)
	copy(buf, l.samples[:n])
	l.mu.Unlock()
	if n < latMinSamples {
		return 0, false
	}
	// Insertion sort: the window is tiny and this avoids pulling in sort
	// for a latency estimate.
	for i := 1; i < n; i++ {
		for j := i; j > 0 && buf[j] < buf[j-1]; j-- {
			buf[j], buf[j-1] = buf[j-1], buf[j]
		}
	}
	return buf[(n*99)/100], true
}
