package faultinject

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// This file is the network half of the fault plane: a seed-driven injector
// that mangles HTTP traffic between fleet nodes (and between clients and the
// fleet) the way real networks do — dropped connections, slow links, duplicate
// deliveries, truncated and bit-flipped bodies, and full black holes. Like the
// simulator-level Injector, every decision is a pure function of the rule set
// and per-rule opportunity counters, never of wall-clock time, so a failing
// drill replays bit-for-bit from its seed.

// NetFault identifies one class of injectable network fault.
type NetFault int

const (
	// NetDrop fails the request immediately with a transport error, as if
	// the connection was reset before any byte moved.
	NetDrop NetFault = iota
	// NetDelay holds the request for the rule's DelayMS before letting it
	// proceed — a slow peer or congested link.
	NetDelay
	// NetDup sends the request twice (client side only) and serves the
	// second response — a retransmission the receiver sees as a duplicate.
	NetDup
	// NetTruncate cuts the response body short at a deterministic point,
	// with headers rewritten to match, so the truncation is a clean
	// short-body rather than a transport error.
	NetTruncate
	// NetCorrupt flips one deterministic bit of the response body.
	NetCorrupt
	// NetBlackhole parks the request until its context gives up — the
	// packets leave and nothing ever comes back.
	NetBlackhole

	NumNetFaults // number of defined network faults
)

var netFaultNames = [NumNetFaults]string{
	"drop", "delay", "dup", "truncate", "corrupt", "blackhole",
}

// String returns the short mnemonic for the fault.
func (f NetFault) String() string {
	if f < 0 || f >= NumNetFaults {
		return fmt.Sprintf("netfault(%d)", int(f))
	}
	return netFaultNames[f]
}

// ParseNetFault resolves a mnemonic (as printed by String) to its NetFault.
func ParseNetFault(s string) (NetFault, error) {
	for f, name := range netFaultNames {
		if s == name {
			return NetFault(f), nil
		}
	}
	return 0, fmt.Errorf("faultinject: unknown network fault %q", s)
}

// NetRule schedules one network fault against matching traffic. The zero
// value of Every disables the rule (parsers default it to 1 = every call).
type NetRule struct {
	// Fault selects the fault class.
	Fault NetFault `json:"fault"`
	// Peer, when non-empty, restricts the rule to traffic whose peer label
	// contains it as a substring. On the client side the label is the
	// request's URL host; on the listener side it is the label the
	// middleware was built with (typically the node's advertised host).
	Peer string `json:"peer,omitempty"`
	// Op, when non-empty, restricts the rule to one logical operation as
	// classified by OpOf ("run", "sweep", "tables", "healthz", "blob-get",
	// "blob-put", "scrub", "cluster", "other").
	Op string `json:"op,omitempty"`
	// Every is the cadence: roughly one fault per Every matching calls.
	// Zero disables the rule.
	Every uint64 `json:"every"`
	// Seed, when nonzero, spreads the faults pseudo-randomly at rate
	// 1/Every from a splitmix64 stream; when zero the fault fires exactly
	// on every Every'th matching call.
	Seed uint64 `json:"seed,omitempty"`
	// After skips the first After matching calls before the cadence
	// starts, so a whole-run schedule can aim at a window.
	After uint64 `json:"after,omitempty"`
	// Max bounds the total injections from this rule; zero is unlimited.
	Max uint64 `json:"max,omitempty"`
	// DelayMS is how long NetDelay holds each affected request.
	DelayMS int `json:"delay_ms,omitempty"`
}

// NetRecord is one network fault that actually fired: which rule, what it
// did, to whom, and at which matching call (1-based).
type NetRecord struct {
	Rule  int      `json:"rule"`
	Fault NetFault `json:"fault"`
	Peer  string   `json:"peer"`
	Op    string   `json:"op"`
	Call  uint64   `json:"call"`
}

type netRule struct {
	rule  NetRule
	seen  uint64 // matching calls offered
	fired uint64 // faults injected
	state uint64 // splitmix64 state (seeded rules)
}

// NetInjector makes the injection decisions for one traffic endpoint. A nil
// *NetInjector is valid and injects nothing. Unlike the simulator Injector
// it locks internally, because HTTP traffic is concurrent by nature.
type NetInjector struct {
	mu    sync.Mutex
	rules []*netRule  // guarded by mu
	log   []NetRecord // guarded by mu
}

// NewNet builds a network injector from the given rules.
func NewNet(rules ...NetRule) *NetInjector {
	in := &NetInjector{}
	in.SetRules(rules...)
	return in
}

// SetRules replaces the rule set and resets all counters. Torture drivers
// use it to flip the fault schedule between rounds; the injection log is
// kept across calls so the whole run stays auditable.
func (in *NetInjector) SetRules(rules ...NetRule) {
	if in == nil {
		return
	}
	rs := make([]*netRule, 0, len(rules))
	for _, r := range rules {
		if r.Fault < 0 || r.Fault >= NumNetFaults {
			panic(fmt.Sprintf("faultinject: bad network fault %d", int(r.Fault)))
		}
		rs = append(rs, &netRule{rule: r, state: r.Seed})
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.rules = rs
}

// NetLog returns the network injection record so far (capped at 4096
// entries across rule-set changes).
func (in *NetInjector) NetLog() []NetRecord {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]NetRecord(nil), in.log...)
}

// netDecision is one fired rule plus the deterministic draw its action
// needs (truncation point, bit to flip), taken while the lock was held so
// the acting code never touches the injector's stream again.
type netDecision struct {
	fault NetFault
	delay time.Duration
	pick  uint64
}

// decide offers every rule one matching call and returns the faults that
// fire now, in rule order.
func (in *NetInjector) decide(peer, op string) []netDecision {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	var out []netDecision
	for i, r := range in.rules {
		if r.rule.Every == 0 {
			continue
		}
		if r.rule.Peer != "" && !strings.Contains(peer, r.rule.Peer) {
			continue
		}
		if r.rule.Op != "" && r.rule.Op != op {
			continue
		}
		r.seen++
		if r.seen <= r.rule.After {
			continue
		}
		if r.rule.Max > 0 && r.fired >= r.rule.Max {
			continue
		}
		var fire bool
		if r.rule.Seed != 0 {
			fire = splitmix(&r.state)%r.rule.Every == 0
		} else {
			fire = (r.seen-r.rule.After)%r.rule.Every == 0
		}
		if !fire {
			continue
		}
		r.fired++
		if len(in.log) < logCap {
			in.log = append(in.log, NetRecord{
				Rule: i, Fault: r.rule.Fault, Peer: peer, Op: op, Call: r.seen,
			})
		}
		// Derive the targeting draw from the call count, not the jitter
		// stream, so it does not disturb the firing sequence.
		x := r.seen*0x9e3779b97f4a7c15 ^ r.rule.Seed
		out = append(out, netDecision{
			fault: r.rule.Fault,
			delay: time.Duration(r.rule.DelayMS) * time.Millisecond,
			pick:  splitmix(&x),
		})
	}
	return out
}

// OpOf classifies a request into the logical operation names NetRule.Op
// matches against.
func OpOf(method, path string) string {
	switch {
	case path == "/healthz":
		return "healthz"
	case path == "/v1/run":
		return "run"
	case path == "/v1/sweep":
		return "sweep"
	case strings.HasPrefix(path, "/v1/tables/"):
		return "tables"
	case strings.HasPrefix(path, "/v1/cluster/blob/"):
		if method == http.MethodPut {
			return "blob-put"
		}
		return "blob-get"
	case path == "/v1/cluster/scrub":
		return "scrub"
	case path == "/v1/cluster":
		return "cluster"
	}
	return "other"
}

// Transport wraps an http.RoundTripper with the injector's client-side
// faults. A nil base uses http.DefaultTransport; a nil injector returns the
// base unchanged.
func (in *NetInjector) Transport(base http.RoundTripper) http.RoundTripper {
	if base == nil {
		base = http.DefaultTransport
	}
	if in == nil {
		return base
	}
	return &netTransport{in: in, base: base}
}

type netTransport struct {
	in   *NetInjector
	base http.RoundTripper
}

func (t *netTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	op := OpOf(req.Method, req.URL.Path)
	ds := t.in.decide(req.URL.Host, op)
	if len(ds) == 0 {
		return t.base.RoundTrip(req)
	}
	ctx := req.Context()
	// Terminal faults dominate: the request never completes, whatever else
	// was scheduled for it.
	for _, d := range ds {
		switch d.fault {
		case NetBlackhole:
			<-ctx.Done()
			return nil, fmt.Errorf("faultinject: black-holed %s to %s: %w", op, req.URL.Host, ctx.Err())
		case NetDrop:
			return nil, fmt.Errorf("faultinject: dropped %s to %s", op, req.URL.Host)
		}
	}
	for _, d := range ds {
		if d.fault != NetDelay || d.delay <= 0 {
			continue
		}
		timer := time.NewTimer(d.delay)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return nil, fmt.Errorf("faultinject: delayed %s to %s: %w", op, req.URL.Host, ctx.Err())
		}
	}
	for _, d := range ds {
		if d.fault != NetDup {
			continue
		}
		// A duplicate delivery: send once, discard the answer, send again.
		// Only replayable bodies can be duplicated.
		if req.Body != nil && req.GetBody == nil {
			continue
		}
		first := req.Clone(ctx)
		if req.GetBody != nil {
			b, err := req.GetBody()
			if err != nil {
				return nil, fmt.Errorf("faultinject: duplicate %s to %s: %w", op, req.URL.Host, err)
			}
			first.Body = b
		}
		if resp, err := t.base.RoundTrip(first); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // duplicate's answer is thrown away
			_ = resp.Body.Close()                 // best-effort: response already discarded
		}
		if req.GetBody != nil {
			b, err := req.GetBody()
			if err != nil {
				return nil, fmt.Errorf("faultinject: duplicate %s to %s: %w", op, req.URL.Host, err)
			}
			req.Body = b
		}
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	for _, d := range ds {
		if d.fault != NetTruncate && d.fault != NetCorrupt {
			continue
		}
		body, rerr := io.ReadAll(resp.Body)
		_ = resp.Body.Close() // body fully consumed (or failed) either way
		if rerr != nil {
			return nil, fmt.Errorf("faultinject: mangling %s from %s: %w", op, req.URL.Host, rerr)
		}
		body = mangleBody(d, body)
		resp.Body = io.NopCloser(bytes.NewReader(body))
		resp.ContentLength = int64(len(body))
		resp.Header.Set("Content-Length", strconv.Itoa(len(body)))
	}
	return resp, nil
}

// mangleBody applies a truncate or corrupt decision to a body. Empty bodies
// pass through: there is nothing to mangle.
func mangleBody(d netDecision, body []byte) []byte {
	if len(body) == 0 {
		return body
	}
	switch d.fault {
	case NetTruncate:
		return body[:d.pick%uint64(len(body))]
	case NetCorrupt:
		bit := d.pick % uint64(len(body)*8)
		body[bit/8] ^= 1 << (bit % 8)
	}
	return body
}

// Middleware wraps a handler with the injector's listener-side faults; self
// is the peer label the rules match against (typically the node's advertised
// host). Drop and black-hole abort the connection the way a dying or
// partitioned node would; duplicate is meaningless on the receiving side and
// is ignored. A nil injector returns next unchanged.
func (in *NetInjector) Middleware(self string, next http.Handler) http.Handler {
	if in == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ds := in.decide(self, OpOf(r.Method, r.URL.Path))
		if len(ds) == 0 {
			next.ServeHTTP(w, r)
			return
		}
		ctx := r.Context()
		for _, d := range ds {
			switch d.fault {
			case NetBlackhole:
				// Hold the request until the caller gives up, then kill
				// the connection without a response.
				<-ctx.Done()
				panic(http.ErrAbortHandler)
			case NetDrop:
				panic(http.ErrAbortHandler)
			}
		}
		for _, d := range ds {
			if d.fault != NetDelay || d.delay <= 0 {
				continue
			}
			timer := time.NewTimer(d.delay)
			select {
			case <-timer.C:
			case <-ctx.Done():
				timer.Stop()
				panic(http.ErrAbortHandler)
			}
		}
		var mangle []netDecision
		for _, d := range ds {
			if d.fault == NetTruncate || d.fault == NetCorrupt {
				mangle = append(mangle, d)
			}
		}
		if len(mangle) == 0 {
			next.ServeHTTP(w, r)
			return
		}
		rec := &bodyRecorder{header: make(http.Header), status: http.StatusOK}
		next.ServeHTTP(rec, r)
		body := rec.buf.Bytes()
		for _, d := range mangle {
			body = mangleBody(d, body)
		}
		h := w.Header()
		for k, v := range rec.header {
			h[k] = v
		}
		h.Set("Content-Length", strconv.Itoa(len(body)))
		w.WriteHeader(rec.status)
		_, _ = w.Write(body) // nothing to do about a client that vanished mid-body
	})
}

// bodyRecorder buffers a handler's response so the middleware can mangle it
// before anything reaches the wire.
type bodyRecorder struct {
	header http.Header
	buf    bytes.Buffer
	status int
	wrote  bool
}

func (r *bodyRecorder) Header() http.Header { return r.header }

func (r *bodyRecorder) WriteHeader(status int) {
	if !r.wrote {
		r.status = status
		r.wrote = true
	}
}

func (r *bodyRecorder) Write(b []byte) (int, error) {
	r.wrote = true
	return r.buf.Write(b)
}

// ParseNetRules parses a fault-rule spec: rules separated by ';', each
// "<fault>@k=v,k=v,..." with keys peer, op, every (default 1), seed, after,
// max, and ms (NetDelay's hold time). The "@..." part may be omitted for a
// rule that hits every call. Example:
//
//	blackhole@peer=127.0.0.1:7421;delay@op=run,ms=200,every=2,max=5
func ParseNetRules(spec string) ([]NetRule, error) {
	var rules []NetRule
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, params, _ := strings.Cut(part, "@")
		f, err := ParseNetFault(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		r := NetRule{Fault: f, Every: 1}
		if err := parseRuleParams(params, func(k, v string) error {
			switch k {
			case "peer":
				r.Peer = v
			case "op":
				r.Op = v
			case "every":
				return parseUintParam(k, v, &r.Every)
			case "seed":
				return parseUintParam(k, v, &r.Seed)
			case "after":
				return parseUintParam(k, v, &r.After)
			case "max":
				return parseUintParam(k, v, &r.Max)
			case "ms":
				ms, err := strconv.Atoi(v)
				if err != nil || ms < 0 {
					return fmt.Errorf("faultinject: bad ms %q", v)
				}
				r.DelayMS = ms
			default:
				return fmt.Errorf("faultinject: unknown net rule key %q", k)
			}
			return nil
		}); err != nil {
			return nil, err
		}
		rules = append(rules, r)
	}
	return rules, nil
}

// parseRuleParams walks "k=v,k=v,..." calling set for each pair.
func parseRuleParams(params string, set func(k, v string) error) error {
	for _, kv := range strings.Split(params, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return fmt.Errorf("faultinject: bad rule param %q (want k=v)", kv)
		}
		if err := set(strings.TrimSpace(k), strings.TrimSpace(v)); err != nil {
			return err
		}
	}
	return nil
}

func parseUintParam(k, v string, dst *uint64) error {
	n, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return fmt.Errorf("faultinject: bad %s %q", k, v)
	}
	*dst = n
	return nil
}
