package trace

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/addr"
)

func TestOpString(t *testing.T) {
	if OpIFetch.String() != "ifetch" || OpRead.String() != "read" || OpWrite.String() != "write" {
		t.Error("op names wrong")
	}
	if !strings.Contains(Op(7).String(), "7") {
		t.Error("bad fallback")
	}
}

func TestSliceSource(t *testing.T) {
	recs := []Rec{{PID: 1, Op: OpRead, Addr: 100}, {PID: 2, Op: OpWrite, Addr: 200}}
	s := NewSliceSource(recs)
	for i := range recs {
		r, ok := s.Next()
		if !ok || r != recs[i] {
			t.Fatalf("rec %d = %+v ok=%v", i, r, ok)
		}
	}
	if _, ok := s.Next(); ok {
		t.Error("source did not end")
	}
	s.Reset()
	if r, ok := s.Next(); !ok || r != recs[0] {
		t.Error("Reset failed")
	}
}

func TestCodecRoundTrip(t *testing.T) {
	f := func(pids []int32, ops []uint8, addrs []uint64) bool {
		n := len(pids)
		if len(ops) < n {
			n = len(ops)
		}
		if len(addrs) < n {
			n = len(addrs)
		}
		recs := make([]Rec, n)
		for i := 0; i < n; i++ {
			recs[i] = Rec{
				PID:  pids[i],
				Op:   Op(ops[i] % 3),
				Addr: addr.GVA(addrs[i] & (1<<addr.GlobalBits - 1)),
			}
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for _, r := range recs {
			if err := w.Write(r); err != nil {
				return false
			}
		}
		if err := w.Flush(); err != nil {
			return false
		}
		if w.Count() != uint64(n) {
			return false
		}
		r := NewReader(&buf)
		for i := 0; i < n; i++ {
			got, ok := r.Next()
			if !ok || got != recs[i] {
				return false
			}
		}
		_, ok := r.Next()
		return !ok && r.Err() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	if _, ok := r.Next(); ok {
		t.Error("read from empty trace")
	}
	if r.Err() != nil {
		t.Errorf("empty trace errored: %v", r.Err())
	}
}

func TestBadMagic(t *testing.T) {
	r := NewReader(strings.NewReader("XXXXjunkjunkjunkjunk"))
	if _, ok := r.Next(); ok {
		t.Error("read past bad magic")
	}
	if r.Err() == nil || !strings.Contains(r.Err().Error(), "magic") {
		t.Errorf("err = %v", r.Err())
	}
}

func TestTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Write(Rec{PID: 1, Op: OpRead, Addr: 5})
	w.Flush()
	trunc := buf.Bytes()[:buf.Len()-3]
	r := NewReader(bytes.NewReader(trunc))
	if _, ok := r.Next(); ok {
		t.Error("read truncated record")
	}
	if r.Err() == nil || !strings.Contains(r.Err().Error(), "truncated") {
		t.Errorf("err = %v", r.Err())
	}
}

func TestBadOp(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Write(Rec{PID: 1, Op: OpRead, Addr: 5})
	w.Flush()
	b := buf.Bytes()
	b[4+4] = 9 // corrupt the op byte of the first record
	r := NewReader(bytes.NewReader(b))
	if _, ok := r.Next(); ok {
		t.Error("read record with bad op")
	}
	if r.Err() == nil {
		t.Error("no error for bad op")
	}
}

func TestSummary(t *testing.T) {
	s := NewSummary()
	s.Add(Rec{Op: OpIFetch, Addr: 0})
	s.Add(Rec{Op: OpRead, Addr: 32})                  // same page, next block
	s.Add(Rec{Op: OpWrite, Addr: addr.PageBytes})     // next page
	s.Add(Rec{Op: OpWrite, Addr: addr.PageBytes + 1}) // same block
	if s.Total() != 4 {
		t.Errorf("Total = %d", s.Total())
	}
	if len(s.Pages) != 2 || len(s.Blocks) != 3 {
		t.Errorf("pages=%d blocks=%d", len(s.Pages), len(s.Blocks))
	}
	str := s.String()
	for _, want := range []string{"refs=4", "write=2", "pages=2"} {
		if !strings.Contains(str, want) {
			t.Errorf("String() = %q missing %q", str, want)
		}
	}
}

// TestPump: batches fit the buffer, never straddle a multiple of align,
// cover the stream in order, and stop at the budget, at the end of the
// source, or when the consumer says stop.
func TestPump(t *testing.T) {
	recs := make([]Rec, 1000)
	for i := range recs {
		recs[i] = Rec{PID: int32(i), Op: OpRead}
	}
	for _, tc := range []struct {
		buf, n, align, stopAfter int64
		want                     int64
	}{
		{buf: 64, n: 1000, want: 1000},
		{buf: 64, n: 2000, want: 1000},
		{buf: 64, n: 500, align: 100, want: 500},
		{buf: 7, n: 1000, align: 5, want: 1000},
		{buf: 64, n: 1000, align: 1, want: 1000},
		{buf: 64, n: 1000, align: 30, stopAfter: 3, want: 90},
		{buf: 64, n: 0, want: 0},
	} {
		src := NewSliceSource(recs)
		var got []Rec
		batches := int64(0)
		n := Pump(src, make([]Rec, tc.buf), tc.n, tc.align, func(b []Rec) bool {
			if int64(len(b)) > tc.buf {
				t.Errorf("%+v: batch of %d records", tc, len(b))
			}
			start := int64(len(got))
			if tc.align > 0 && start/tc.align != (start+int64(len(b))-1)/tc.align {
				t.Errorf("%+v: batch [%d, %d) straddles a multiple of %d", tc, start, start+int64(len(b)), tc.align)
			}
			got = append(got, b...)
			batches++
			return tc.stopAfter == 0 || batches < tc.stopAfter
		})
		if n != tc.want || int64(len(got)) != tc.want {
			t.Errorf("%+v: pumped %d, handed over %d, want %d", tc, n, len(got), tc.want)
		}
		for i, r := range got {
			if r != recs[i] {
				t.Fatalf("%+v: record %d out of order", tc, i)
			}
		}
	}
}
