package client

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	spur "repro"
	"repro/internal/cluster"
	"repro/internal/expstore"
)

// Fleet is the cluster-aware client: it knows the spurd fleet's static
// peer list, computes each request's content address locally with the same
// hash the daemons use, talks straight to the key's owner, and on
// timeout/transport failure/5xx fails over through the replica list. The
// usual single-node retry/backoff (with jitter and Retry-After handling)
// still applies per peer, just with a lower default retry budget so a dead
// owner costs milliseconds, not a full backoff ladder.
//
// Three fleet-level defenses ride on top of failover:
//
//   - a per-peer circuit breaker (closed/open/half-open): a peer that keeps
//     failing is skipped outright until its cooldown elapses, so a dead node
//     costs nothing after the first few attempts;
//   - a total retry budget per logical request, so a failover storm cannot
//     multiply load against an already-degraded fleet;
//   - hedged reads for idempotent GETs: after a p99-derived delay the
//     request is also sent to the next replica and the first response wins,
//     with the loser cancelled.
//
// A Fleet is safe for concurrent use after New; do not mutate its fields
// once requests are in flight.
type Fleet struct {
	// Template carries the per-peer HTTP settings (HTTPClient, Backoff,
	// MaxBackoff, Retries). Its BaseURL is ignored; Retries defaults to 1
	// per peer — failing over beats backing off when there are replicas.
	Template Client

	peers   []string
	rep     int
	version string
	ring    *cluster.Ring

	hedgeDelay     time.Duration
	attemptTimeout time.Duration
	retryBudget    int
	breakers       map[string]*Breaker // static after NewFleet; each Breaker locks itself
	lat            *latencies
}

// FleetOptions tunes NewFleet.
type FleetOptions struct {
	// Replication must match the fleet's -replicas setting (default 2,
	// clamped to the peer count). A mismatch is not fatal — a daemon serves
	// any request that reaches it, from its store, the key's replicas or a
	// compute — but a request sent outside the key's replica set leaves an
	// extra copy where it lands and can compute a key its owner computes too.
	Replication int
	// Version overrides the code version hashed into store keys (default
	// spur.Version, which is correct when client and daemons are built
	// from the same tree).
	Version string
	// BreakerThreshold is the consecutive-failure count that opens a
	// peer's breaker (default 3); BreakerCooldown is how long an open
	// breaker rejects that peer before admitting a half-open probe
	// (default 5 s). Clock injects the breaker clock, so tests and seeded
	// drills step time deterministically (default time.Now).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	Clock            func() time.Time
	// HedgeDelay is how long an idempotent GET waits on the owner before
	// hedging to the next replica (first response wins, loser cancelled).
	// Zero derives the delay from the observed p99 once enough samples
	// exist; negative disables hedging.
	HedgeDelay time.Duration
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
	version := opts.Version
	if version == "" {
		version = spur.Version
	}
	budget := opts.RetryBudget
	if budget <= 0 {
		budget = 2 * rep
	}
	f := &Fleet{
		peers:          ring.Peers(),
		rep:            rep,
		version:        version,
		ring:           ring,
		hedgeDelay:     opts.HedgeDelay,
		attemptTimeout: opts.AttemptTimeout,
		retryBudget:    budget,
		breakers:       make(map[string]*Breaker, len(ring.Peers())),
		lat:            &latencies{},
	}
	for _, p := range f.peers {
		f.breakers[p] = NewBreaker(opts.BreakerThreshold, opts.BreakerCooldown, opts.Clock)
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

// attemptCtx bounds one per-peer attempt with the fleet's attempt timeout.
func (f *Fleet) attemptCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if f.attemptTimeout <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, f.attemptTimeout)
}

// failover runs try against each of key's replicas in placement order
// until one answers, skipping peers whose breaker is open and stopping
// when the retry budget is spent. Authoritative errors return immediately;
// when every replica fails the caller gets one clear error naming them all.
func (f *Fleet) failover(ctx context.Context, key expstore.Key, try func(ctx context.Context, c *Client) error) error {
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
		actx, cancel := f.attemptCtx(ctx)
		t0 := time.Now()
		err := try(actx, c)
		cancel()
		if err == nil {
			br.Record(true)
			// Feed the hedge-delay estimate from every successful read, not
			// just hedged ones — with HedgeDelay == 0 the p99 window must
			// fill here, or hedging could never engage.
			f.lat.add(time.Since(t0))
			return nil
		}
		if authoritative(err) {
			// The peer answered; only the answer was "no".
			br.Record(true)
			return err
		}
		br.Record(false)
		errs = append(errs, fmt.Errorf("%s: %w", peer, err))
		if ctx.Err() != nil {
			break
		}
	}
	return fmt.Errorf("fleet: all %d replicas of %.12s unreachable: %w", len(replicas), key, errors.Join(errs...))
}

// hedgeResult is one hedged attempt's outcome.
type hedgeResult struct {
	peer string
	err  error
	dur  time.Duration
}

// hedge runs try against key's replicas with hedged-read semantics: the
// owner is asked first, and if no response lands within the hedge delay
// the next replica is asked too — first success wins and the losers are
// cancelled. A failed attempt launches the next replica immediately
// (plain failover), the retry budget caps total attempts, and per-peer
// breakers gate participation exactly as in failover. try must be
// idempotent and must serialize its own result handling (hedge only
// commits one winner, via the returned peer).
func (f *Fleet) hedge(ctx context.Context, key expstore.Key, try func(ctx context.Context, c *Client) error) error {
	delay := f.hedgeDelay
	if delay == 0 {
		if p99, ok := f.lat.p99(); ok {
			delay = p99
		}
	}
	if delay <= 0 {
		// Hedging disabled (or no latency history yet): plain failover.
		return f.failover(ctx, key, try)
	}

	replicas := f.Replicas(string(key))
	var errs []error
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make(chan hedgeResult, len(replicas))
	attempts := 0
	next := 0 // next replica candidate, in placement order
	inflight := 0
	// launch contacts the next replica whose breaker admits it. Allow is
	// asked only here, for peers actually contacted, so every admitted
	// probe is matched by a Record (or a cancelProbe via drain below).
	launch := func() bool {
		for next < len(replicas) && attempts < f.retryBudget {
			peer := replicas[next]
			next++
			if !f.breakers[peer].Allow() {
				errs = append(errs, fmt.Errorf("%s: %w", peer, errBreakerOpen))
				continue
			}
			c := f.peerClient(peer)
			c.Retries = -1 // hedging replaces the per-peer retry ladder
			attempts++
			inflight++
			go func() {
				actx, acancel := f.attemptCtx(hctx)
				defer acancel()
				t0 := time.Now()
				err := try(actx, c)
				results <- hedgeResult{peer: peer, err: err, dur: time.Since(t0)}
			}()
			return true
		}
		return false
	}
	canLaunch := func() bool { return next < len(replicas) && attempts < f.retryBudget }

	if !launch() {
		return fmt.Errorf("fleet: all %d replicas of %.12s rejected: %w", len(replicas), key, errors.Join(errs...))
	}
	for inflight > 0 {
		var hedgeC <-chan time.Time
		var hedgeT *time.Timer
		if canLaunch() {
			hedgeT = time.NewTimer(delay)
			hedgeC = hedgeT.C
		}
		var won, done bool
		var out error
		select {
		case r := <-results:
			inflight--
			switch {
			case r.err == nil:
				f.breakers[r.peer].Record(true)
				f.lat.add(r.dur)
				won, done = true, true
			case authoritative(r.err):
				f.breakers[r.peer].Record(true)
				out, done = r.err, true
			default:
				f.breakers[r.peer].Record(false)
				errs = append(errs, fmt.Errorf("%s: %w", r.peer, r.err))
				if ctx.Err() == nil {
					launch()
				}
			}
		case <-hedgeC:
			launch()
		case <-ctx.Done():
			out, done = fmt.Errorf("fleet: hedged %.12s: %w", key, errors.Join(append(errs, ctx.Err())...)), true
		}
		if hedgeT != nil {
			hedgeT.Stop()
		}
		if done {
			cancel()
			f.drainLosers(results, inflight)
			if won {
				return nil
			}
			return out
		}
	}
	return fmt.Errorf("fleet: all %d replicas of %.12s unreachable: %w", len(replicas), key, errors.Join(errs...))
}

// drainLosers settles breaker accounting for hedge attempts still in
// flight when hedge returns: every Allow that admitted a request must be
// matched, or a half-open peer stays probing and is excluded forever. It
// runs in the background so the winner's caller is not held hostage to the
// (already-cancelled) losers. A loser that actually answered is recorded
// normally; one cut short by hedge's own cancellation releases its
// admission without judging the peer.
func (f *Fleet) drainLosers(results <-chan hedgeResult, inflight int) {
	if inflight == 0 {
		return
	}
	go func() {
		for i := 0; i < inflight; i++ {
			r := <-results
			br := f.breakers[r.peer]
			switch {
			case r.err == nil, authoritative(r.err):
				br.Record(true)
			case errors.Is(r.err, context.Canceled):
				br.cancelProbe()
			default:
				br.Record(false)
			}
		}
	}()
}

// Run executes one simulator run against the key's owner, failing over
// through its replicas.
func (f *Fleet) Run(ctx context.Context, req RunRequest) (*RunResponse, error) {
	if err := req.Normalize(); err != nil {
		return nil, err
	}
	key, err := expstore.KeyOf(f.version, "run", req)
	if err != nil {
		return nil, err
	}
	var resp *RunResponse
	err = f.failover(ctx, key, func(ctx context.Context, c *Client) error {
		r, err := c.Run(ctx, req)
		if err == nil {
			resp = r
		}
		return err
	})
	return resp, err
}

// Sweep executes the memory-size study against the key's owner, failing
// over through its replicas.
func (f *Fleet) Sweep(ctx context.Context, req SweepRequest) ([]byte, SweepMeta, error) {
	if err := req.Normalize(); err != nil {
		return nil, SweepMeta{}, err
	}
	// Format is presentation only and excluded from the content address,
	// exactly as the server strips it.
	keyReq := req
	keyReq.Format = ""
	key, err := expstore.KeyOf(f.version, "sweep", keyReq)
	if err != nil {
		return nil, SweepMeta{}, err
	}
	var body []byte
	var meta SweepMeta
	err = f.failover(ctx, key, func(ctx context.Context, c *Client) error {
		b, m, err := c.Sweep(ctx, req)
		if err == nil {
			body, meta = b, m
		}
		return err
	})
	return body, meta, err
}

// Tables fetches one paper artifact with hedged-read semantics: it is an
// idempotent GET of immutable content, so after the hedge delay the next
// replica is asked concurrently and the first response wins. Each in-flight
// attempt decodes into its own response; only the winner's is kept.
func (f *Fleet) Tables(ctx context.Context, id string, q TablesQuery) (*TablesResponse, error) {
	if err := q.Normalize(); err != nil {
		return nil, err
	}
	key, err := expstore.KeyOf(f.version, "tables/"+id, q)
	if err != nil {
		return nil, err
	}
	winner := make(chan *TablesResponse, 1)
	err = f.hedge(ctx, key, func(ctx context.Context, c *Client) error {
		r, err := c.Tables(ctx, id, q)
		if err != nil {
			return err
		}
		select {
		case winner <- r:
		default: // a faster attempt already won
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return <-winner, nil
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
