package pte

import (
	"sort"
	"testing"

	"repro/internal/addr"
)

// splitmix for the op stream.
func next(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// TestTableAgainstMapModel drives the chunked table and a plain sparse map
// (the structure the table used to be) with the same random stream of
// Set/Update/Invalidate/Lookup operations, then compares Len and the full
// Range enumeration. The page universe mixes dense runs (adjacent pages in
// one chunk), chunk-boundary straddles, and pages scattered across the full
// 38-bit space, so the chunk directory's edges all get exercised.
func TestTableAgainstMapModel(t *testing.T) {
	tbl := NewTable(addr.SegmentID(addr.MaxSegmentID))
	model := map[addr.GVPN]Entry{}
	state := uint64(99)

	page := func() addr.GVPN {
		r := next(&state)
		switch r % 4 {
		case 0: // dense low run
			return addr.GVPN(r % 512)
		case 1: // straddle a chunk boundary
			return addr.GVPN(chunkEntries - 8 + r%16)
		case 2: // mid-space
			return addr.GVPN((r >> 8) % (maxGVPN / 2))
		default: // anywhere in the space
			return addr.GVPN((r >> 8) % maxGVPN)
		}
	}

	for step := 0; step < 100000; step++ {
		p := page()
		switch next(&state) % 8 {
		case 0, 1, 2: // set (sometimes to zero, which deletes)
			e := Entry(next(&state) & 0xffffffff)
			if next(&state)%4 == 0 {
				e = 0
			}
			tbl.Set(p, e)
			if e == 0 {
				delete(model, p)
			} else {
				model[p] = e
			}
		case 3: // read-modify-write, as the fault handlers do
			e := tbl.Update(p, func(old Entry) Entry { return old.WithDirty(true).WithReferenced(true) })
			m := model[p].WithDirty(true).WithReferenced(true)
			if m == 0 {
				delete(model, p)
			} else {
				model[p] = m
			}
			if e != m {
				t.Fatalf("step %d: Update(%#x) = %#x, model %#x", step, uint64(p), uint32(e), uint32(m))
			}
		case 4: // invalidate
			old := tbl.Invalidate(p)
			if old != model[p] {
				t.Fatalf("step %d: Invalidate(%#x) returned %#x, model %#x",
					step, uint64(p), uint32(old), uint32(model[p]))
			}
			delete(model, p)
		default: // lookup
			if got, want := tbl.Lookup(p), model[p]; got != want {
				t.Fatalf("step %d: Lookup(%#x) = %#x, model %#x", step, uint64(p), uint32(got), uint32(want))
			}
		}
		if tbl.Len() != len(model) {
			t.Fatalf("step %d: Len = %d, model %d", step, tbl.Len(), len(model))
		}
	}

	// Full enumeration: same entries, ascending page order.
	wantPages := make([]addr.GVPN, 0, len(model))
	for p := range model {
		wantPages = append(wantPages, p)
	}
	sort.Slice(wantPages, func(i, j int) bool { return wantPages[i] < wantPages[j] })
	i := 0
	tbl.Range(func(p addr.GVPN, e Entry) bool {
		if i >= len(wantPages) {
			t.Fatalf("Range produced extra entry %#x", uint64(p))
		}
		if p != wantPages[i] || e != model[p] {
			t.Fatalf("Range entry %d: (%#x,%#x), model (%#x,%#x)",
				i, uint64(p), uint32(e), uint64(wantPages[i]), uint32(model[wantPages[i]]))
		}
		i++
		return true
	})
	if i != len(wantPages) {
		t.Fatalf("Range produced %d entries, model holds %d", i, len(wantPages))
	}
}

// TestTableOutOfSpacePages pins the boundary contract: pages beyond the
// 38-bit global space have no table slot, so Lookup reads them as invalid
// and Set refuses them loudly.
func TestTableOutOfSpacePages(t *testing.T) {
	tbl := NewTable(addr.SegmentID(addr.MaxSegmentID))
	if e := tbl.Lookup(addr.GVPN(maxGVPN)); e != 0 {
		t.Errorf("out-of-space Lookup = %#x, want 0", uint32(e))
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-space Set did not panic")
		}
	}()
	tbl.Set(addr.GVPN(maxGVPN), Make(1, ProtReadWrite))
}

// held counts the directories and chunks t holds.
func held(t *Table) (dirs, chunks int) {
	for _, d := range &t.dirs {
		if d == nil {
			continue
		}
		dirs++
		for _, c := range &d.chunks {
			if c != nil {
				chunks++
			}
		}
	}
	return dirs, chunks
}

// TestTableFreesEmptyChunks sets each case's pages and clears them in
// order. A chunk is held exactly while one of its entries is set: clearing
// its last entry frees it (and its directory's last chunk the directory),
// a table whose entries have all cleared holds nothing, and the next Set
// brings a chunk back.
func TestTableFreesEmptyChunks(t *testing.T) {
	const dirSpan = chunkEntries * dirEntries
	e := Make(7, ProtReadWrite)
	for _, tc := range []struct {
		name         string
		pages        []addr.GVPN
		dirs, chunks int // held once every page is set
	}{
		{"one chunk", []addr.GVPN{5, 0, chunkEntries - 1}, 1, 1},
		{"chunk boundary", []addr.GVPN{chunkEntries - 1, chunkEntries, chunkEntries + 1}, 1, 2},
		{"directory boundary", []addr.GVPN{dirSpan, dirSpan - 1}, 2, 2},
		{"both ends of the space", []addr.GVPN{maxGVPN - 1, 0, 1}, 2, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tbl := NewTable(addr.SegmentID(addr.MaxSegmentID))
			for _, p := range tc.pages {
				tbl.Set(p, e)
			}
			if d, c := held(tbl); d != tc.dirs || c != tc.chunks {
				t.Fatalf("holds %d directories and %d chunks, want %d and %d", d, c, tc.dirs, tc.chunks)
			}
			for i, p := range tc.pages {
				tbl.Invalidate(p)
				live := map[addr.GVPN]bool{}
				for _, q := range tc.pages[i+1:] {
					live[q>>chunkShift] = true
					if tbl.Lookup(q) != e {
						t.Fatalf("clearing %#x lost %#x", uint64(p), uint64(q))
					}
				}
				if _, c := held(tbl); c != len(live) {
					t.Fatalf("after clearing %#x: %d chunks held, want %d", uint64(p), c, len(live))
				}
			}
			if d, c := held(tbl); d != 0 || c != 0 || tbl.Len() != 0 {
				t.Fatalf("an empty table holds %d directories and %d chunks (Len %d)", d, c, tbl.Len())
			}
			p := tc.pages[0]
			tbl.Set(p, e)
			if d, c := held(tbl); d != 1 || c != 1 || tbl.Lookup(p) != e || tbl.Len() != 1 {
				t.Fatalf("Set after emptying: %d directories, %d chunks, Lookup %v, Len %d", d, c, tbl.Lookup(p), tbl.Len())
			}
		})
	}
}
