package faultinject

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestOpOf(t *testing.T) {
	cases := []struct {
		method, path, want string
	}{
		{"GET", "/healthz", "healthz"},
		{"POST", "/v1/run", "run"},
		{"POST", "/v1/sweep", "sweep"},
		{"GET", "/v1/tables/3.1", "tables"},
		{"PUT", "/v1/cluster/blob/abc", "blob-put"},
		{"GET", "/v1/cluster/blob/abc", "blob-get"},
		{"POST", "/v1/cluster/scrub", "scrub"},
		{"GET", "/v1/cluster", "cluster"},
		{"GET", "/nope", "other"},
	}
	for _, c := range cases {
		if got := OpOf(c.method, c.path); got != c.want {
			t.Errorf("OpOf(%s %s) = %q, want %q", c.method, c.path, got, c.want)
		}
	}
}

func TestNetRuleCadenceAndMax(t *testing.T) {
	in := NewNet(NetRule{Fault: NetDrop, Every: 3, Max: 2})
	var fired []int
	for i := 1; i <= 12; i++ {
		if len(in.decide("peer", "run")) > 0 {
			fired = append(fired, i)
		}
	}
	if len(fired) != 2 || fired[0] != 3 || fired[1] != 6 {
		t.Fatalf("fired at %v, want [3 6]", fired)
	}
	if lg := in.NetLog(); len(lg) != 2 || lg[0].Call != 3 || lg[1].Call != 6 {
		t.Fatalf("log = %+v", lg)
	}
}

func TestNetRuleAfterWindow(t *testing.T) {
	in := NewNet(NetRule{Fault: NetDrop, Every: 1, After: 4, Max: 1})
	var fired []int
	for i := 1; i <= 8; i++ {
		if len(in.decide("peer", "run")) > 0 {
			fired = append(fired, i)
		}
	}
	if len(fired) != 1 || fired[0] != 5 {
		t.Fatalf("fired at %v, want [5]", fired)
	}
}

func TestNetRuleMatching(t *testing.T) {
	in := NewNet(NetRule{Fault: NetDrop, Peer: "10.0.0.7", Op: "blob-put", Every: 1})
	if len(in.decide("10.0.0.8:7421", "blob-put")) != 0 {
		t.Fatal("wrong peer matched")
	}
	if len(in.decide("10.0.0.7:7421", "blob-get")) != 0 {
		t.Fatal("wrong op matched")
	}
	if len(in.decide("10.0.0.7:7421", "blob-put")) != 1 {
		t.Fatal("matching traffic not hit")
	}
}

func TestNetSeededSequenceReplays(t *testing.T) {
	run := func() []uint64 {
		in := NewNet(NetRule{Fault: NetDrop, Every: 4, Seed: 99})
		var calls []uint64
		for i := 0; i < 256; i++ {
			if len(in.decide("p", "run")) > 0 {
				calls = append(calls, uint64(i))
			}
		}
		return calls
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("seeded rule never fired in 256 calls")
	}
	if len(a) != len(b) {
		t.Fatalf("replay diverged: %d vs %d firings", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at firing %d: call %d vs %d", i, a[i], b[i])
		}
	}
}

func TestTransportDropDelayBlackhole(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.WriteString(w, "ok")
	}))
	defer srv.Close()

	in := NewNet(NetRule{Fault: NetDrop, Every: 2})
	c := &http.Client{Transport: in.Transport(nil)}
	if _, err := c.Get(srv.URL + "/v1/run"); err != nil {
		t.Fatalf("call 1 should pass: %v", err)
	}
	if _, err := c.Get(srv.URL + "/v1/run"); err == nil || !strings.Contains(err.Error(), "dropped") {
		t.Fatalf("call 2 should drop, got err=%v", err)
	}

	in.SetRules(NetRule{Fault: NetBlackhole, Every: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", srv.URL+"/v1/run", nil)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := c.Do(req); err == nil {
		t.Fatal("black-holed call should fail")
	}
	if time.Since(start) < 40*time.Millisecond {
		t.Fatal("black hole returned before the context gave up")
	}

	in.SetRules(NetRule{Fault: NetDelay, DelayMS: 60, Every: 1})
	start = time.Now()
	if _, err := c.Get(srv.URL + "/v1/run"); err != nil {
		t.Fatalf("delayed call should still succeed: %v", err)
	}
	if d := time.Since(start); d < 50*time.Millisecond {
		t.Fatalf("delay rule held for only %v", d)
	}
}

func TestTransportDupSendsTwice(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		hits.Add(1)
		_, _ = w.Write(body)
	}))
	defer srv.Close()

	in := NewNet(NetRule{Fault: NetDup, Every: 1})
	c := &http.Client{Transport: in.Transport(nil)}
	resp, err := c.Post(srv.URL+"/v1/run", "application/json", strings.NewReader(`{"x":1}`))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if string(body) != `{"x":1}` {
		t.Fatalf("second response body = %q", body)
	}
	if hits.Load() != 2 {
		t.Fatalf("server saw %d requests, want 2", hits.Load())
	}
}

func TestTransportTruncateAndCorrupt(t *testing.T) {
	const payload = `{"status":"ok","value":12345678}`
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.WriteString(w, payload)
	}))
	defer srv.Close()

	in := NewNet(NetRule{Fault: NetTruncate, Every: 1, Seed: 7})
	c := &http.Client{Transport: in.Transport(nil)}
	resp, err := c.Get(srv.URL + "/v1/tables/3.1")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if len(body) >= len(payload) {
		t.Fatalf("truncate left %d bytes of %d", len(body), len(payload))
	}
	if resp.ContentLength != int64(len(body)) {
		t.Fatalf("Content-Length %d does not match body %d", resp.ContentLength, len(body))
	}

	in.SetRules(NetRule{Fault: NetCorrupt, Every: 1, Seed: 7})
	resp, err = c.Get(srv.URL + "/v1/tables/3.1")
	if err != nil {
		t.Fatal(err)
	}
	body, err = io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if string(body) == payload {
		t.Fatal("corrupt rule left the body intact")
	}
	if len(body) != len(payload) {
		t.Fatalf("corrupt changed length %d -> %d", len(payload), len(body))
	}
	diff := 0
	for i := range body {
		diff += popcount8(body[i] ^ payload[i])
	}
	if diff != 1 {
		t.Fatalf("corrupt flipped %d bits, want exactly 1", diff)
	}
}

func popcount8(b byte) int {
	n := 0
	for ; b != 0; b &= b - 1 {
		n++
	}
	return n
}

func TestMiddlewareDropAndMangle(t *testing.T) {
	const payload = `{"status":"ok"}`
	in := NewNet(NetRule{Fault: NetDrop, Op: "run", Every: 2})
	h := in.Middleware("node1", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.WriteString(w, payload)
	}))
	srv := httptest.NewServer(h)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/run")
	if err != nil {
		t.Fatalf("call 1 should pass: %v", err)
	}
	_ = resp.Body.Close()
	if _, err := http.Get(srv.URL + "/v1/run"); err == nil {
		t.Fatal("call 2 should be aborted by the listener")
	}

	in.SetRules(NetRule{Fault: NetCorrupt, Every: 1, Seed: 3})
	resp, err = http.Get(srv.URL + "/v1/run")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if string(body) == payload {
		t.Fatal("listener-side corrupt left the body intact")
	}
}

func TestParseNetRules(t *testing.T) {
	rules, err := ParseNetRules("blackhole@peer=127.0.0.1:7421; delay@op=run,ms=200,every=2,max=5")
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 2 {
		t.Fatalf("got %d rules", len(rules))
	}
	if rules[0].Fault != NetBlackhole || rules[0].Peer != "127.0.0.1:7421" || rules[0].Every != 1 {
		t.Fatalf("rule 0 = %+v", rules[0])
	}
	if rules[1].Fault != NetDelay || rules[1].Op != "run" || rules[1].DelayMS != 200 ||
		rules[1].Every != 2 || rules[1].Max != 5 {
		t.Fatalf("rule 1 = %+v", rules[1])
	}
	if _, err := ParseNetRules("explode@every=1"); err == nil {
		t.Fatal("unknown fault should error")
	}
	if _, err := ParseNetRules("drop@bogus=1"); err == nil {
		t.Fatal("unknown key should error")
	}
}

func TestNilNetInjector(t *testing.T) {
	var in *NetInjector
	if got := in.decide("p", "run"); got != nil {
		t.Fatalf("nil injector decided %v", got)
	}
	base := http.DefaultTransport
	if tr := in.Transport(base); tr != base {
		t.Fatal("nil injector should return base transport unchanged")
	}
	h := http.NewServeMux()
	if got := in.Middleware("x", h); got != http.Handler(h) {
		t.Fatal("nil injector should return handler unchanged")
	}
}
