package trace

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
)

// FuzzTraceCodec feeds arbitrary bytes to the trace decoder — which must
// never panic, only return records or a diagnosed error — and checks the
// round-trip property: whatever records decode, re-encoding and re-decoding
// them reproduces the same records with no error. Batched decoding must
// agree with per-record decoding: NextBatch, at batch sizes 1, 3 and 4096,
// yields the records successive Next calls yield and stops on the same
// error.
//
// Run with: go test -fuzz=FuzzTraceCodec ./internal/trace
func FuzzTraceCodec(f *testing.F) {
	// Seed corpus: an empty stream, a bare header, one valid record, a
	// truncated record, a bad magic, and a bad op.
	f.Add([]byte{})
	f.Add([]byte("SPT1"))
	valid := &bytes.Buffer{}
	w := NewWriter(valid)
	_ = w.Write(Rec{PID: 7, Op: OpWrite, Addr: 0x3_f00d_beef})
	_ = w.Flush()
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:len(valid.Bytes())-3])
	f.Add([]byte("SPTX" + "aaaaaaaaaaaaa"))
	f.Add(append([]byte("SPT1"), 1, 2, 3, 4, 99, 0, 0, 0, 0, 0, 0, 0, 0))

	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		var recs []Rec
		for {
			rec, ok := r.Next()
			if !ok {
				break
			}
			recs = append(recs, rec)
		}
		// A diagnosed error and decoded records may coexist (the error
		// came after a valid prefix); a panic may not happen at all.

		for _, size := range []int{1, 3, 4096} {
			rb := NewReader(bytes.NewReader(data))
			var batched []Rec
			buf := make([]Rec, size)
			for {
				k := rb.NextBatch(buf)
				if k == 0 {
					break
				}
				batched = append(batched, buf[:k]...)
			}
			if !reflect.DeepEqual(batched, recs) {
				t.Fatalf("NextBatch(%d) decoded %d records, Next decoded %d", size, len(batched), len(recs))
			}
			if fmt.Sprint(rb.Err()) != fmt.Sprint(r.Err()) {
				t.Fatalf("NextBatch(%d) error %v, Next error %v", size, rb.Err(), r.Err())
			}
		}

		// Round-trip whatever decoded.
		out := &bytes.Buffer{}
		w := NewWriter(out)
		for _, rec := range recs {
			if err := w.Write(rec); err != nil {
				t.Fatalf("re-encode: %v", err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatalf("flush: %v", err)
		}
		if w.Count() != uint64(len(recs)) {
			t.Fatalf("writer counted %d of %d records", w.Count(), len(recs))
		}

		r2 := NewReader(bytes.NewReader(out.Bytes()))
		for i, want := range recs {
			got, ok := r2.Next()
			if !ok {
				t.Fatalf("round-trip lost record %d: %v", i, r2.Err())
			}
			if got != want {
				t.Fatalf("record %d: %+v != %+v", i, got, want)
			}
		}
		if _, ok := r2.Next(); ok {
			t.Fatal("round-trip grew extra records")
		}
		if err := r2.Err(); err != nil {
			t.Fatalf("round-trip stream errored: %v", err)
		}

		// A fully valid input decodes to exactly the bytes it came from.
		if r.Err() == nil && len(data) >= 4 {
			if !bytes.Equal(out.Bytes(), data[:4+len(recs)*recSize]) {
				t.Fatal("re-encoding a clean stream changed its bytes")
			}
		}
	})
}
