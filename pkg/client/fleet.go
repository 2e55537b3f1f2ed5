package client

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/cluster"
	"repro/internal/expstore"
)

// Fleet is the cluster-aware client: it knows the spurd fleet's static
// peer list, computes each request's content address locally with the same
// hash the daemons use, talks straight to the key's owner, and on
// timeout/transport failure/5xx fails over through the replica list. The
// usual single-node retry/backoff (with jitter and Retry-After handling)
// still applies per peer, just with a lower default retry budget so a dead
// owner costs milliseconds, not a full backoff ladder. Run, Sweep and
// Tables all go through that one request loop.
//
// Two fleet-level defenses ride on top of failover:
//
//   - a per-peer circuit breaker (closed/open/half-open): a peer that keeps
//     failing is skipped outright until its cooldown elapses, so a dead node
//     costs nothing after the first few attempts;
//   - a total retry budget per logical request, so a failover storm cannot
//     multiply load against an already-degraded fleet.
//
// A Fleet is safe for concurrent use after New; do not mutate its fields
// once requests are in flight.
type Fleet struct {
	// Template carries the per-peer HTTP settings (HTTPClient, Backoff,
	// MaxBackoff, Retries). Its BaseURL is ignored; Retries defaults to 1
	// per peer — failing over beats backing off when there are replicas.
	Template Client

	peers []string
	rep   int
	ring  *cluster.Ring

	attemptTimeout time.Duration
	retryBudget    int
	breakers       map[string]*Breaker // static after NewFleet; each Breaker locks itself
}

// FleetOptions tunes NewFleet. Store keys hash spur.Version, so client
// and daemons must be built from the same tree.
type FleetOptions struct {
	// Replication must match the fleet's -replicas setting (default 2,
	// clamped to the peer count). A mismatch is not fatal — a daemon serves
	// any request that reaches it, from its store, the key's replicas or a
	// compute — but a request sent outside the key's replica set leaves an
	// extra copy where it lands and can compute a key its owner computes too.
	Replication int
	// AttemptTimeout bounds each per-peer attempt, so one black-holed
	// peer cannot eat the caller's whole deadline budget (0 = bounded
	// only by the caller's context).
	AttemptTimeout time.Duration
	// RetryBudget caps the total HTTP attempts one logical request may
	// make across all replicas and per-peer retries (default
	// 2 × replication).
	RetryBudget int
}

// NewFleet builds a fleet client over the peer base URLs.
func NewFleet(peers []string, opts FleetOptions) (*Fleet, error) {
	ring, err := cluster.NewRing(peers)
	if err != nil {
		return nil, err
	}
	rep := opts.Replication
	if rep <= 0 {
		rep = 2
	}
	if n := len(ring.Peers()); rep > n {
		rep = n
	}
	budget := opts.RetryBudget
	if budget <= 0 {
		budget = 2 * rep
	}
	f := &Fleet{
		peers:          ring.Peers(),
		rep:            rep,
		ring:           ring,
		attemptTimeout: opts.AttemptTimeout,
		retryBudget:    budget,
		breakers:       make(map[string]*Breaker, len(ring.Peers())),
	}
	for _, p := range f.peers {
		f.breakers[p] = NewBreaker()
	}
	return f, nil
}

// Peers returns the fleet's sorted peer list.
func (f *Fleet) Peers() []string { return append([]string(nil), f.peers...) }

// Replicas returns the peers responsible for key, owner first — the order
// requests for that key are attempted in.
func (f *Fleet) Replicas(key string) []string { return f.ring.Replicas(key, f.rep) }

// BreakerStates reports every peer's breaker position, for drills and
// operator tooling.
func (f *Fleet) BreakerStates() map[string]string {
	out := make(map[string]string, len(f.breakers))
	for p, b := range f.breakers {
		out[p] = b.State().String()
	}
	return out
}

// peerClient instantiates the template against one peer.
func (f *Fleet) peerClient(peer string) *Client {
	c := f.Template
	c.BaseURL = peer
	if c.Retries == 0 {
		c.Retries = 1
	}
	return &c
}

// Answered reports whether a non-2xx status from a peer is an answer
// rather than an outage: any 4xx except 429 (bad request, unknown table,
// no such blob). A 429 is the peer shedding load and counts against it like
// a 5xx or a dead connection, so its breaker can open and back pressure
// reaches it. Fleet failover and spurd's peer breakers both judge by it.
func Answered(code int) bool {
	return code/100 == 4 && code != http.StatusTooManyRequests
}

// authoritative reports whether err is a peer's answer by Answered rather
// than an availability failure worth failing over.
func authoritative(err error) bool {
	var se *StatusError
	return errors.As(err, &se) && Answered(se.Code)
}

// errBreakerOpen marks a peer skipped because its circuit breaker is open.
var errBreakerOpen = errors.New("circuit breaker open")

// clampRetries fits c's per-peer retries inside the remaining attempt
// budget and returns how many attempts the peer may now consume. A
// remaining budget of 1 means one attempt and no retries.
func clampRetries(c *Client, remaining int) int {
	retries := c.Retries
	if retries < 0 {
		retries = 0
	}
	if retries > remaining-1 {
		retries = remaining - 1
	}
	if retries == 0 {
		c.Retries = -1 // 0 would re-default; negative means "no retries"
	} else {
		c.Retries = retries
	}
	return retries + 1
}

// failover is the fleet's one request loop: it runs call against each of
// key's replicas in placement order until one answers, skipping peers whose
// breaker is open, bounding each attempt by the attempt timeout and
// stopping when the retry budget is spent. Authoritative errors return
// immediately; when every replica fails the caller gets one clear error
// naming them all.
func failover[T any](ctx context.Context, f *Fleet, key expstore.Key, call func(ctx context.Context, c *Client) (T, error)) (T, error) {
	var zero T
	replicas := f.Replicas(string(key))
	attempts := 0
	var errs []error
	for _, peer := range replicas {
		if attempts >= f.retryBudget {
			errs = append(errs, fmt.Errorf("retry budget of %d attempts spent", f.retryBudget))
			break
		}
		br := f.breakers[peer]
		if !br.Allow() {
			errs = append(errs, fmt.Errorf("%s: %w", peer, errBreakerOpen))
			continue
		}
		c := f.peerClient(peer)
		attempts += clampRetries(c, f.retryBudget-attempts)
		actx, cancel := ctx, context.CancelFunc(func() {})
		if f.attemptTimeout > 0 {
			actx, cancel = context.WithTimeout(ctx, f.attemptTimeout)
		}
		v, err := call(actx, c)
		cancel()
		if err == nil {
			br.Record(true)
			return v, nil
		}
		if authoritative(err) {
			// The peer answered; only the answer was "no".
			br.Record(true)
			return zero, err
		}
		br.Record(false)
		errs = append(errs, fmt.Errorf("%s: %w", peer, err))
		if ctx.Err() != nil {
			break
		}
	}
	return zero, fmt.Errorf("fleet: all %d replicas of %.12s unreachable: %w", len(replicas), key, errors.Join(errs...))
}

// Run executes one simulator run against the key's owner, failing over
// through its replicas.
func (f *Fleet) Run(ctx context.Context, req RunRequest) (*RunResponse, error) {
	job, err := RunJob(&req)
	if err != nil {
		return nil, err
	}
	return failover(ctx, f, job.Key, func(ctx context.Context, c *Client) (*RunResponse, error) {
		return c.Run(ctx, req)
	})
}

// Sweep executes the memory-size study against the key's owner, failing
// over through its replicas.
func (f *Fleet) Sweep(ctx context.Context, req SweepRequest) ([]byte, SweepMeta, error) {
	job, err := SweepJob(&req)
	if err != nil {
		return nil, SweepMeta{}, err
	}
	type answer struct {
		body []byte
		meta SweepMeta
	}
	a, err := failover(ctx, f, job.Key, func(ctx context.Context, c *Client) (answer, error) {
		body, meta, err := c.Sweep(ctx, req)
		return answer{body, meta}, err
	})
	return a.body, a.meta, err
}

// Tables fetches one paper artifact from the key's owner, failing over
// through its replicas.
func (f *Fleet) Tables(ctx context.Context, id string, q TablesQuery) (*TablesResponse, error) {
	job, err := TablesJob(id, &q)
	if err != nil {
		return nil, err
	}
	return failover(ctx, f, job.Key, func(ctx context.Context, c *Client) (*TablesResponse, error) {
		return c.Tables(ctx, id, q)
	})
}

// Health fetches every peer's /healthz; unreachable peers get a nil entry
// and an error in the second slice (indexed like Peers()). Health probes
// bypass the breakers — they are how an operator sees a down peer, so they
// must not be gated by its state.
func (f *Fleet) Health(ctx context.Context) ([]*Health, []error) {
	hs := make([]*Health, len(f.peers))
	errs := make([]error, len(f.peers))
	for i, peer := range f.peers {
		hs[i], errs[i] = f.peerClient(peer).Health(ctx)
	}
	return hs, errs
}
