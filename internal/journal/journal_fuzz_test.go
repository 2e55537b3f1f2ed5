package journal

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzJournalTornTail cuts a journal at any byte offset, as a crash mid-write
// would, and checks recovery. A cut inside the magic or the header frame
// leaves no provenance, so Replay and Open must fail. Any later cut must
// replay to the records whose frames lie wholly before it, in order, with
// Torn set unless the cut falls on a frame boundary; Open must pass the same
// records, then truncate to that prefix and accept appends after it. The
// fuzzer picks the record contents (seed), the record count and sizes
// (sizes16) and the cut as a fraction of the file (cut16); a record count
// of zero is a header-only journal.
func FuzzJournalTornTail(f *testing.F) {
	f.Add(uint64(1), uint16(10_000), uint16(65_535))
	f.Add(uint64(2), uint16(33_333), uint16(17))
	f.Add(uint64(3), uint16(5_000), uint16(0))
	f.Add(uint64(4), uint16(60_000), uint16(40_000))
	f.Add(uint64(5), uint16(10_000), uint16(22_938)) // 35% of the file
	f.Add(uint64(6), uint16(10_000), uint16(39_322)) // 60%
	f.Add(uint64(7), uint16(10_000), uint16(58_982)) // 90%
	f.Add(uint64(8), uint16(7), uint16(65_535))      // header only
	f.Add(uint64(6), uint16(9_922), uint16(39_377))  // inside a record's frame header
	f.Fuzz(func(t *testing.T, seed uint64, sizes16, cut16 uint16) {
		x := seed ^ uint64(sizes16)<<32
		next := func() uint64 { // splitmix64
			x += 0x9e3779b97f4a7c15
			z := x
			z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
			z = (z ^ z>>27) * 0x94d049bb133111eb
			return z ^ z>>31
		}
		recs := make([]string, sizes16%7)
		for i := range recs {
			b := make([]byte, next()%97)
			for j := range b {
				b[j] = byte(next())
			}
			recs[i] = string(b)
		}

		path := filepath.Join(t.TempDir(), "j")
		writeRecords(t, path, recs...)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		hb, err := json.Marshal(testHeader)
		if err != nil {
			t.Fatal(err)
		}
		// bounds[i] is the offset just past record i's frame; bounds[0]
		// is the end of the header frame.
		bounds := []int{len(magic) + frameHeader + len(hb)}
		for _, r := range recs {
			bounds = append(bounds, bounds[len(bounds)-1]+frameHeader+len(r))
		}
		if bounds[len(recs)] != len(data) {
			t.Fatalf("journal is %d bytes, want %d", len(data), bounds[len(recs)])
		}

		cut := int(uint64(cut16) * uint64(len(data)+1) / 65_536)
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if cut < bounds[0] {
			if _, err := Replay(path); err == nil {
				t.Fatalf("cut %d inside the %d-byte header: Replay succeeded", cut, bounds[0])
			}
			if w, err := Open(path, testHeader, nil, func([]byte) error { return nil }); err == nil {
				_ = w.Close()
				t.Fatalf("cut %d inside the %d-byte header: Open succeeded", cut, bounds[0])
			}
			return
		}
		k := 0
		for k < len(recs) && bounds[k+1] <= cut {
			k++
		}
		check := func(rep *Replayed, want []string, torn bool, valid int) {
			t.Helper()
			if rep.Header != testHeader {
				t.Fatalf("cut %d/%d: header = %+v, want %+v", cut, len(data), rep.Header, testHeader)
			}
			if rep.Torn != torn || rep.Valid != int64(valid) {
				t.Fatalf("cut %d/%d: torn=%v valid=%d, want torn=%v valid=%d",
					cut, len(data), rep.Torn, rep.Valid, torn, valid)
			}
			if len(rep.Entries) != len(want) {
				t.Fatalf("cut %d/%d: replayed %d records, want %d", cut, len(data), len(rep.Entries), len(want))
			}
			for i, w := range want {
				if !bytes.Equal(rep.Entries[i], []byte(w)) {
					t.Fatalf("cut %d/%d: record %d replayed wrong", cut, len(data), i)
				}
			}
		}

		rep, err := Replay(path)
		if err != nil {
			t.Fatalf("cut %d/%d past the header: Replay: %v", cut, len(data), err)
		}
		check(rep, recs[:k], cut != bounds[k], bounds[k])

		var opened []string
		w, err := Open(path, testHeader, nil, func(b []byte) error {
			opened = append(opened, string(b))
			return nil
		})
		if err != nil {
			t.Fatalf("cut %d/%d past the header: Open: %v", cut, len(data), err)
		}
		if len(opened) != k {
			t.Fatalf("cut %d/%d: Open passed %d records, want %d", cut, len(data), len(opened), k)
		}
		for i, r := range opened {
			if r != recs[i] {
				t.Fatalf("cut %d/%d: Open passed record %d wrong", cut, len(data), i)
			}
		}
		if err := w.Append([]byte("after")); err != nil {
			t.Fatalf("Append after recovery: %v", err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		rep, err = Replay(path)
		if err != nil {
			t.Fatalf("Replay after recovery and append: %v", err)
		}
		want := append(append([]string(nil), recs[:k]...), "after")
		check(rep, want, false, bounds[k]+frameHeader+len("after"))
	})
}
