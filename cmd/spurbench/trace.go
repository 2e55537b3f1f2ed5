package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code around the module's public function.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`   // -1 for a root
	Start  int64  `json:"start_ns"` // since the tracer began
	End    int64  `json:"end_ns"`
	N      int64  `json:"n,omitempty"` // work in the span: references, or 1 for a cached reply
}

// tracer keeps a traced operation's spans in memory; they are written out
// when the run ends. It is safe for concurrent use.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// open starts a span that has children; close ends it.
func (t *tracer) open(name string, parent int) int {
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: start})
	return id
}

func (t *tracer) close(id int, n int64) {
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = end
	t.spans[id].N = n
}

// add records a finished span.
func (t *tracer) add(name string, parent int, start, end, n int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: len(t.spans), Parent: parent, Start: start, End: end, N: n})
}

// agg sums the spans of one name.
type agg struct {
	dur  time.Duration
	self time.Duration // dur minus the part of it the spans' children cover
	n    int64
}

// totals aggregates the spans by name. A span's self time is its duration
// minus the union of its children's intervals.
func (t *tracer) totals() map[string]agg {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]agg{}
	for _, s := range t.spans {
		a := out[s.Name]
		a.dur += time.Duration(s.End - s.Start)
		a.self += time.Duration(s.End - s.Start - covered(children[s.ID]))
		a.n += s.N
		out[s.Name] = a
	}
	return out
}

// covered is the length of the union of the spans' intervals.
func covered(spans []span) int64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var total, end int64
	for i, s := range spans {
		switch {
		case i == 0 || s.Start >= end:
			total += s.End - s.Start
			end = s.End
		case s.End > end:
			total += s.End - end
			end = s.End
		}
	}
	return total
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
