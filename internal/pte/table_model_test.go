package pte

import (
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

// entries walks t's chunks and returns every non-zero entry, with the pages
// the walk computes from the chunk's position: a stray entry, one no Set
// stored there, shows up as a page the model does not hold.
func entries(t *Table) map[addr.GVPN]Entry {
	out := map[addr.GVPN]Entry{}
	for di, d := range &t.dirs {
		if d == nil {
			continue
		}
		for cj, c := range &d.chunks {
			if c == nil {
				continue
			}
			base := addr.GVPN(uint64(di*dirEntries+cj) << chunkShift)
			for i, e := range c {
				if e != 0 {
					out[base+addr.GVPN(i)] = e
				}
			}
		}
	}
	return out
}

// TestTableAgainstMapModel drives the chunked table and a plain sparse map
// (the structure the table used to be) with the same random stream of
// Set/Update/Lookup operations and clears, checking every lookup, then
// walks the chunks and compares every entry they hold with the model. The
// page universe mixes dense runs (adjacent pages in one chunk),
// chunk-boundary straddles, and pages scattered across the full 38-bit
// space, so the chunk directory's edges all get exercised.
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
		case 4: // clear, as unmapping a page does
			tbl.Set(p, 0)
			delete(model, p)
		default: // lookup
			if got, want := tbl.Lookup(p), model[p]; got != want {
				t.Fatalf("step %d: Lookup(%#x) = %#x, model %#x", step, uint64(p), uint32(got), uint32(want))
			}
		}
		if step%10000 == 0 {
			checkEntries(t, step, tbl, model)
		}
	}
	checkEntries(t, 100000, tbl, model)
}

// checkEntries compares every entry t's chunks hold with the model.
func checkEntries(t *testing.T, step int, tbl *Table, model map[addr.GVPN]Entry) {
	t.Helper()
	got := entries(tbl)
	for p, e := range got {
		if model[p] != e {
			t.Fatalf("step %d: the table holds %#x at %#x, model %#x", step, uint32(e), uint64(p), uint32(model[p]))
		}
	}
	if len(got) != len(model) {
		t.Fatalf("step %d: the table holds %d entries, model %d", step, len(got), len(model))
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
				tbl.Set(p, 0)
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
			if d, c := held(tbl); d != 0 || c != 0 {
				t.Fatalf("an empty table holds %d directories and %d chunks", d, c)
			}
			p := tc.pages[0]
			tbl.Set(p, e)
			if d, c := held(tbl); d != 1 || c != 1 || tbl.Lookup(p) != e || len(entries(tbl)) != 1 {
				t.Fatalf("Set after emptying: %d directories, %d chunks, Lookup %v, %d entries", d, c, tbl.Lookup(p), len(entries(tbl)))
			}
		})
	}
}

// TestTableReusesFreedChunk: a page leaving one 2 MB range, and with it
// its 256 MB directory range, while a page enters another takes the chunk
// and directory the clear freed instead of allocating, and the storage
// taken back reads as empty. A copy neither copies nor shares the source's
// spares.
func TestTableReusesFreedChunk(t *testing.T) {
	const dirSpan = chunkEntries * dirEntries
	e := Make(7, ProtReadWrite)
	tbl := NewTable(addr.SegmentID(addr.MaxSegmentID))
	tbl.Set(1, e)
	allocs := testing.AllocsPerRun(100, func() {
		tbl.Set(1, 0) // frees the chunk and its directory
		tbl.Set(dirSpan+chunkEntries+2, e)
		tbl.Set(dirSpan+chunkEntries+2, 0)
		tbl.Set(1, e)
	})
	if allocs != 0 {
		t.Errorf("chunk churn allocates %v times a round", allocs)
	}
	for _, p := range []addr.GVPN{0, 1, 2, chunkEntries - 1, dirSpan + chunkEntries, dirSpan + chunkEntries + 2} {
		if want := map[addr.GVPN]Entry{1: e}[p]; tbl.Lookup(p) != want {
			t.Fatalf("Lookup(%#x) = %v after reuse, want %v", uint64(p), tbl.Lookup(p), want)
		}
	}
	if d, c := held(tbl); d != 1 || c != 1 || len(entries(tbl)) != 1 {
		t.Errorf("holds %d directories and %d chunks (%d entries), want 1, 1 and 1", d, c, len(entries(tbl)))
	}
	tbl.Set(1, 0)
	if tbl.spare.chunk == nil || tbl.spare.dir == nil || *tbl.spare.chunk != (chunk{}) || *tbl.spare.dir != (dir{}) {
		t.Fatal("an emptied table keeps no all-zero spare chunk and directory")
	}
	cp := NewTable(tbl.seg)
	cp.CopyFrom(tbl)
	if cp.spare != (spares{}) {
		t.Error("CopyFrom copied the source's spares")
	}
}
