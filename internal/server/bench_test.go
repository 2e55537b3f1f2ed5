package server

import (
	"context"
	"net/http/httptest"
	"testing"

	"repro/pkg/client"
)

// benchServer serves a fresh daemon over loopback, its store on disk as
// spurd keeps it. Apart from testRefs the file needs nothing from the
// other test files, so it also runs as is against earlier commits for
// before-and-after figures.
func benchServer(b *testing.B) *client.Client {
	b.Helper()
	s, err := New(Config{StoreDir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s)
	b.Cleanup(func() {
		ts.Close()
		_ = s.Close()
	})
	c := client.New(ts.URL)
	c.Retries = -1
	return c
}

// BenchmarkRunHit is the HTTP hit round trip: one /v1/run answered from
// the store's memory front, sent and decoded by the typed client.
func BenchmarkRunHit(b *testing.B) {
	c := benchServer(b)
	ctx := context.Background()
	req := client.RunRequest{Workload: client.WorkloadSLC, MemMB: 5, Refs: testRefs, Seed: 3}
	if _, err := c.Run(ctx, req); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := c.Run(ctx, req)
		if err != nil || !r.Cached {
			b.Fatalf("run hit: cached=%v, err %v", r != nil && r.Cached, err)
		}
	}
}

// BenchmarkFixedTable is the round trip of table 2.1, a fixed artifact,
// after its first fetch.
func BenchmarkFixedTable(b *testing.B) {
	c := benchServer(b)
	ctx := context.Background()
	q := client.TablesQuery{Refs: testRefs, Seed: 1, Paper: true}
	if _, err := c.Tables(ctx, "2.1", q); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := c.Tables(ctx, "2.1", q)
		if err != nil || !r.Cached {
			b.Fatalf("table 2.1: cached=%v, err %v", r != nil && r.Cached, err)
		}
	}
}
