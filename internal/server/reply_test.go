package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	spur "repro"
	"repro/internal/expstore"
	"repro/internal/report"
	"repro/pkg/client"
)

// rawDo sends one request straight at url and returns the reply's status
// and bytes.
func rawDo(t testing.TB, method, url string, body []byte) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := drillClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

func postRun(t *testing.T, base string, req client.RunRequest) []byte {
	t.Helper()
	status, body := rawDo(t, http.MethodPost, base+"/v1/run", []byte(mustJSON(t, req)))
	if status != http.StatusOK {
		t.Fatalf("POST /v1/run: status %d: %s", status, body)
	}
	return body
}

func getTables(t *testing.T, base, id string, q client.TablesQuery) []byte {
	t.Helper()
	url := fmt.Sprintf("%s/v1/tables/%s?refs=%d&seed=%d&paper=%t", base, id, q.Refs, q.Seed, q.Paper)
	status, body := rawDo(t, http.MethodGet, url, nil)
	if status != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, status, body)
	}
	return body
}

func runKey(t *testing.T, req client.RunRequest) (client.RunRequest, expstore.Key) {
	t.Helper()
	if err := req.Normalize(); err != nil {
		t.Fatal(err)
	}
	key, err := expstore.KeyOf(spur.Version, "run", req)
	if err != nil {
		t.Fatal(err)
	}
	return req, key
}

func tablesKey(t *testing.T, id string, q client.TablesQuery) expstore.Key {
	t.Helper()
	if err := q.Normalize(); err != nil {
		t.Fatal(err)
	}
	key, err := expstore.KeyOf(spur.Version, "tables/"+id, q)
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// decodedReply is the reply as the server built it before payloads were
// spliced: the payload decoded into the wire type and re-encoded by
// writeJSON.
func decodedReply(v any) []byte {
	rec := httptest.NewRecorder()
	writeJSON(rec, v)
	return rec.Body.Bytes()
}

func decodedRunReply(t *testing.T, key expstore.Key, cached bool, payload []byte) []byte {
	t.Helper()
	var p runPayload
	if err := json.Unmarshal(payload, &p); err != nil {
		t.Fatal(err)
	}
	return decodedReply(client.RunResponse{Key: string(key), Cached: cached, Result: p.Result, Failure: p.Failure})
}

func decodedTablesReply(t *testing.T, id string, key expstore.Key, cached bool, payload []byte) []byte {
	t.Helper()
	var docs []client.Doc
	if err := json.Unmarshal(payload, &docs); err != nil {
		t.Fatal(err)
	}
	return decodedReply(client.TablesResponse{ID: id, Key: string(key), Cached: cached, Docs: docs})
}

func sameBytes(t *testing.T, what string, got, want []byte) {
	t.Helper()
	if !bytes.Equal(got, want) {
		t.Errorf("%s: reply differs from the decoded payload's:\n got %q\nwant %q", what, got, want)
	}
}

// TestRepliesMatchDecodedPayload pins the wire bytes of every reply built
// from a payload: a computed run, a memory hit, a disk hit after the store
// is reopened, a quarantined run, and a computed and a stored non-fixed
// table each equal writeJSON of the decoded payload.
func TestRepliesMatchDecodedPayload(t *testing.T) {
	dir := t.TempDir()
	s, ts, _ := newTestServer(t, Config{StoreDir: dir})
	req, key := runKey(t, client.RunRequest{Workload: "slc", MemMB: 5, Refs: testRefs, Seed: 3})

	computed := postRun(t, ts.URL, req)
	payload, ok := s.Store().Get(key)
	if !ok {
		t.Fatal("computed run not stored")
	}
	sameBytes(t, "computed run", computed, decodedRunReply(t, key, false, payload))
	sameBytes(t, "memory hit", postRun(t, ts.URL, req), decodedRunReply(t, key, true, payload))

	s2, ts2, _ := newTestServer(t, Config{StoreDir: dir})
	sameBytes(t, "disk hit", postRun(t, ts2.URL, req), decodedRunReply(t, key, true, payload))
	if st := s2.Store().Stats(); st.DiskHits != 1 {
		t.Errorf("reopened store: %d disk hits, want 1", st.DiskHits)
	}

	// The documented chaos drill: the audit catches a corrupted line
	// tag, so the run is quarantined, answered, and never stored.
	bad, badKey := runKey(t, client.RunRequest{
		Workload: "slc", MemMB: 5, Refs: 300_000,
		Faults:   []spur.FaultPlan{{Kind: spur.FaultLineCorrupt, Every: 2000}},
		Hardened: &client.HardenedOptions{AuditEvery: 500},
	})
	body := postRun(t, ts.URL, bad)
	p, err := s.computeRun(bad)
	if err != nil {
		t.Fatal(err)
	}
	if p.Failure == nil {
		t.Fatal("the chaos drill's run was not quarantined")
	}
	failed, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	sameBytes(t, "quarantined run", body, decodedRunReply(t, badKey, false, failed))

	q := client.TablesQuery{Refs: testRefs / 4, Seed: 2, Paper: true}
	tkey := tablesKey(t, "3.3", q)
	body = getTables(t, ts.URL, "3.3", q)
	if payload, ok = s.Store().Get(tkey); !ok {
		t.Fatal("computed table 3.3 not stored")
	}
	sameBytes(t, "computed table 3.3", body, decodedTablesReply(t, "3.3", tkey, false, payload))
	sameBytes(t, "stored table 3.3", getTables(t, ts.URL, "3.3", q), decodedTablesReply(t, "3.3", tkey, true, payload))
}

// fixedOracle renders each fixed artifact the way `cmd/tables -json` does.
var fixedOracle = map[string]report.Doc{
	"2.1":  spur.Table21().Doc(),
	"3.1":  spur.Table31().Doc(),
	"3.2":  spur.Table32().Doc(),
	"f3.1": report.TextDoc("Figure 3.1", spur.Figure31()),
	"f3.2": report.TextDoc("Figure 3.2", spur.Figure32()),
}

// fetchFixed asks base for every fixed artifact under several queries and
// checks each reply byte for byte: cached on the first fetch, the query's
// key, and the docs `cmd/tables -json` prints.
func fetchFixed(t *testing.T, base string) {
	t.Helper()
	for id, doc := range fixedOracle {
		docs, err := report.RenderJSON([]report.Doc{doc})
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range []client.TablesQuery{
			{Seed: 1, Paper: true},
			{Refs: 50_000, Seed: 2, Paper: true},
			{Refs: 4_000_000, Seed: 9, Paper: false},
		} {
			key := tablesKey(t, id, q)
			want := decodedTablesReply(t, id, key, true, docs)
			sameBytes(t, fmt.Sprintf("tables/%s %+v via %s", id, q, base), getTables(t, base, id, q), want)
		}
	}
}

// TestFixedTablesSkipTheStore: the five fixed artifacts are answered from
// bytes rendered once per process, on one node and across a 3-node fleet,
// without a job record, a store lookup or put, a replica fetch or a
// replication debt.
func TestFixedTablesSkipTheStore(t *testing.T) {
	for _, id := range client.TableIDs {
		_, fixed := fixedTables[id]
		if _, oracle := fixedOracle[id]; fixed != oracle {
			t.Errorf("table %s: fixed on the server %v, in the test %v", id, fixed, oracle)
		}
	}
	s, ts, _ := newTestServer(t, Config{JobJournal: filepath.Join(t.TempDir(), "jobs.journal")})
	fetchFixed(t, ts.URL)
	if st := s.Store().Stats(); st.Hits() != 0 || st.Misses != 0 || st.Puts != 0 {
		t.Errorf("store stats %+v, want no lookups and no puts", st)
	}
	if js := s.jobs.stats(); js.Journaled != 0 {
		t.Errorf("job journal %+v, want nothing journaled", js)
	}

	tc := startCluster(t, 3, 2)
	for _, n := range tc.nodes {
		// Restart each node with a job journal, as spurd runs it.
		n.kill()
		n.cfg.JobJournal = filepath.Join(n.storeDir, "jobs.journal")
		n.start(nil)
	}
	for _, u := range tc.urls {
		fetchFixed(t, u)
	}
	for _, n := range tc.nodes {
		st := n.srv.Store().Stats()
		if st.Hits() != 0 || st.Misses != 0 || st.Puts != 0 || st.Repaired != 0 {
			t.Errorf("node %s: store stats %+v, want no lookups, puts or repairs", n.url, st)
		}
		if js := n.srv.jobs.stats(); js.Journaled != 0 {
			t.Errorf("node %s: job journal %+v, want nothing journaled", n.url, js)
		}
		if ob := n.srv.cluster.outbox.Stats(); ob.Pending != 0 || ob.Enqueued != 0 {
			t.Errorf("node %s: outbox %+v, want no replication debt", n.url, ob)
		}
	}
}

// TestMalformedPayloadAnswers500: a stored payload that cannot be spliced
// into its reply is reported as corrupt, as when it was decoded.
func TestMalformedPayloadAnswers500(t *testing.T) {
	store, err := expstore.Open("", expstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, ts, _ := newTestServer(t, Config{Store: store})
	for i, payload := range []string{`{"result": {`, `{}`, `[1, 2]`, `"result"`, `{"result": {}} {}`, `x"result": {}}`, ``} {
		req, key := runKey(t, client.RunRequest{Refs: testRefs, Seed: uint64(100 + i)})
		if err := store.Put(key, []byte(payload)); err != nil {
			t.Fatal(err)
		}
		if status, body := rawDo(t, http.MethodPost, ts.URL+"/v1/run", []byte(mustJSON(t, req))); status != http.StatusInternalServerError {
			t.Errorf("run payload %q: status %d (%s), want 500", payload, status, body)
		}
	}
	q := client.TablesQuery{Refs: testRefs, Seed: 1, Paper: true}
	if err := store.Put(tablesKey(t, "3.4", q), []byte(`{"title": "Table 3.4"}`)); err != nil {
		t.Fatal(err)
	}
	if status, body := rawDo(t, http.MethodGet, ts.URL+"/v1/tables/3.4?refs=200000", nil); status != http.StatusInternalServerError {
		t.Errorf("tables payload that is not an array: status %d (%s), want 500", status, body)
	}
}

// TestRecoverySettlesFixedTables: a fixed artifact's accept record in an
// earlier journal is settled on recovery without computing or storing it.
func TestRecoverySettlesFixedTables(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "jobs.journal")
	q := client.TablesQuery{Refs: testRefs, Seed: 4, Paper: true}
	key := tablesKey(t, "3.2", q)
	l := testJobLog(t, jpath)
	if err := l.accept("tables/3.2", key, q); err != nil {
		t.Fatal(err)
	}
	if err := l.close(); err != nil {
		t.Fatal(err)
	}

	s, err := New(Config{StoreDir: filepath.Join(dir, "store"), JobJournal: jpath})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close() }()
	if n := s.RecoverJobs(); n != 1 {
		t.Fatalf("RecoverJobs = %d, want 1", n)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.WaitJobs(ctx); err != nil {
		t.Fatal(err)
	}
	if js := s.jobs.stats(); js.Pending != 0 || js.Journaled != 0 || js.Recovered != 1 {
		t.Errorf("jobs %+v, want the one record settled and nothing journaled", js)
	}
	if st := s.Store().Stats(); st.Puts != 0 {
		t.Errorf("store puts = %d, want 0", st.Puts)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	again := testJobLog(t, jpath)
	defer func() { _ = again.close() }()
	if len(again.replayed) != 0 {
		t.Errorf("replayed after settling: %+v, want none", again.replayed)
	}
}
