package expstore

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/faultinject"
)

func TestKeyOfCanonical(t *testing.T) {
	type spec struct {
		A int
		B string
	}
	k1, err := KeyOf("v1", "run", spec{1, "x"})
	if err != nil {
		t.Fatal(err)
	}
	k2, _ := KeyOf("v1", "run", spec{1, "x"})
	if k1 != k2 {
		t.Error("identical specs hashed differently")
	}
	if !k1.valid() {
		t.Errorf("key %q not a hex sha256", k1)
	}
	// Every dependency participates in the address.
	for name, k := range map[string]Key{
		"spec":    mustKey(t, "v1", "run", spec{2, "x"}),
		"kind":    mustKey(t, "v1", "sweep", spec{1, "x"}),
		"version": mustKey(t, "v2", "run", spec{1, "x"}),
	} {
		if k == k1 {
			t.Errorf("changing %s did not change the key", name)
		}
	}
}

func mustKey(t *testing.T, version, kind string, spec any) Key {
	t.Helper()
	k, err := KeyOf(version, kind, spec)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(filepath.Join(dir, "store"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	k := mustKey(t, "v1", "run", "payload")
	if _, ok := s.Get(k); ok {
		t.Fatal("hit on empty store")
	}
	if err := s.Put(k, []byte(`"result"`)); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(k)
	if !ok || string(got) != `"result"` {
		t.Fatalf("Get = %q, %v", got, ok)
	}
	st := s.Stats()
	if st.Misses != 1 || st.MemHits != 1 || st.Puts != 1 {
		t.Errorf("stats = %+v", st)
	}

	// A fresh store over the same directory serves the blob from disk.
	s2, err := Open(s.Dir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, ok = s2.Get(k)
	if !ok || string(got) != `"result"` {
		t.Fatalf("reopened Get = %q, %v", got, ok)
	}
	if st := s2.Stats(); st.DiskHits != 1 {
		t.Errorf("reopened stats = %+v", st)
	}
	// The promotion landed in the front: second read is a memory hit.
	s2.Get(k)
	if st := s2.Stats(); st.MemHits != 1 {
		t.Errorf("promotion missing: %+v", st)
	}
	if n := s2.Len(); n != 1 {
		t.Errorf("Len = %d", n)
	}
}

func TestStoreAtomicWrite(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	k := mustKey(t, "v1", "run", 42)
	if err := s.Put(k, []byte(`"same"`)); err != nil {
		t.Fatal(err)
	}
	// Re-putting an existing key is a no-op success, and no temp files
	// survive any Put.
	if err := s.Put(k, []byte(`"same"`)); err != nil {
		t.Fatal(err)
	}
	found := 0
	filepath.WalkDir(s.Dir(), func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if strings.Contains(path, ".tmp") {
				t.Errorf("leftover temp file %s", path)
			}
			found++
		}
		return nil
	})
	if found != 1 {
		t.Errorf("%d files on disk", found)
	}
}

func TestStoreConcurrentSameKey(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	k := mustKey(t, "v1", "run", "contended")
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.Put(k, []byte(`"deterministic bytes"`)); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	got, ok := s.Get(k)
	if !ok || string(got) != `"deterministic bytes"` {
		t.Fatalf("Get = %q, %v", got, ok)
	}
}

func TestLRUEviction(t *testing.T) {
	s, err := Open("", Options{MaxEntries: 2})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]Key, 3)
	for i := range keys {
		keys[i] = mustKey(t, "v1", "run", i)
		if err := s.Put(keys[i], []byte(fmt.Sprintf("r%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Memory-only store: evicted entries are gone for good.
	if _, ok := s.Get(keys[0]); ok {
		t.Error("oldest entry survived a full front")
	}
	if _, ok := s.Get(keys[2]); !ok {
		t.Error("newest entry evicted")
	}
	st := s.Stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Errorf("stats = %+v", st)
	}

	// Recency, not insertion order, decides the victim.
	s.Get(keys[1]) // refresh
	k3 := mustKey(t, "v1", "run", 3)
	s.Put(k3, []byte("r3"))
	if _, ok := s.Get(keys[1]); !ok {
		t.Error("recently used entry evicted")
	}
}

func TestByteBound(t *testing.T) {
	s, err := Open("", Options{MaxEntries: 100, MaxBytes: 10})
	if err != nil {
		t.Fatal(err)
	}
	a, b := mustKey(t, "v", "k", "a"), mustKey(t, "v", "k", "b")
	s.Put(a, []byte("123456"))
	s.Put(b, []byte("7890ab"))
	if st := s.Stats(); st.Evictions != 1 || st.Bytes > 10 {
		t.Errorf("stats = %+v", st)
	}
	// Oversized payloads bypass the front without evicting everything.
	big := mustKey(t, "v", "k", "big")
	s.Put(big, make([]byte, 64))
	if st := s.Stats(); st.Entries != 1 {
		t.Errorf("oversized payload disturbed the front: %+v", st)
	}
}

func TestGetQuarantinesCorruptBlob(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	k := mustKey(t, "v1", "run", "soon to rot")
	if err := s.Put(k, []byte(`{"result":1}`)); err != nil {
		t.Fatal(err)
	}

	// Corrupt the payload on disk, then reopen the store so the LRU front
	// is cold and Get must read the disk copy.
	path := filepath.Join(s.Dir(), string(k[:2]), string(k)+".json")
	if err := faultinject.FlipBit(path, 200); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(s.Dir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if data, ok := s2.Get(k); ok {
		t.Fatalf("corrupt blob served: %q", data)
	}
	st := s2.Stats()
	if st.Corrupt != 1 || st.Misses != 1 || st.DiskHits != 0 {
		t.Errorf("stats = %+v, want corrupt=1 miss=1 diskhits=0", st)
	}
	// The blob was renamed aside, not deleted.
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("corrupt blob still at %s (err=%v)", path, err)
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Errorf("quarantined blob missing: %v", err)
	}
	if n := s2.Len(); n != 0 {
		t.Errorf("Len = %d after quarantine, want 0", n)
	}

	// The key is reusable: a recompute re-stores and serves cleanly.
	if err := s2.Put(k, []byte(`{"result":1}`)); err != nil {
		t.Fatalf("Put after quarantine: %v", err)
	}
	s3, err := Open(s.Dir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if data, ok := s3.Get(k); !ok || string(data) != `{"result":1}` {
		t.Fatalf("healed Get = %q, %v", data, ok)
	}
}

func TestScrub(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]Key, 3)
	for i := range keys {
		keys[i] = mustKey(t, "v1", "run", i)
		if err := s.Put(keys[i], []byte(fmt.Sprintf(`{"r":%d}`, i))); err != nil {
			t.Fatal(err)
		}
	}
	if r := s.Scrub(); r.Scanned != 3 || r.Quarantined != 0 || r.Errors != 0 {
		t.Fatalf("clean scrub = %+v", r)
	}

	// Rot two of the three, plus a legacy unsealed blob under a fresh key
	// (pre-envelope format: also quarantined).
	for _, k := range keys[:2] {
		path := filepath.Join(s.Dir(), string(k[:2]), string(k)+".json")
		if err := faultinject.FlipBit(path, 180); err != nil {
			t.Fatal(err)
		}
	}
	legacy := mustKey(t, "v1", "run", "legacy")
	legacyPath := filepath.Join(s.Dir(), string(legacy[:2]), string(legacy)+".json")
	if err := os.MkdirAll(filepath.Dir(legacyPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(legacyPath, []byte(`{"r":"unsealed"}`), 0o644); err != nil {
		t.Fatal(err)
	}

	r := s.Scrub()
	if r.Scanned != 4 || r.Quarantined != 3 || r.Errors != 0 {
		t.Fatalf("scrub = %+v, want scanned=4 quarantined=3", r)
	}
	st := s.Stats()
	if st.Corrupt != 3 || st.Scrubs != 2 {
		t.Errorf("stats = %+v, want corrupt=3 scrubs=2", st)
	}
	// Quarantined files still exist alongside the one healthy blob.
	if n := s.Len(); n != 1 {
		t.Errorf("Len = %d, want 1", n)
	}
	if _, err := os.Stat(legacyPath + ".corrupt"); err != nil {
		t.Errorf("legacy blob not quarantined: %v", err)
	}
	// A second scrub of the survivors is clean.
	if r := s.Scrub(); r.Scanned != 1 || r.Quarantined != 0 {
		t.Fatalf("re-scrub = %+v", r)
	}
}

func TestQuarantineNeverOverwrites(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	k := mustKey(t, "v1", "run", "repeat offender")
	path := filepath.Join(s.Dir(), string(k[:2]), string(k)+".json")
	// Corrupt and quarantine the same key twice: both corpses survive.
	for i := 0; i < 2; i++ {
		if err := s.Put(k, []byte(`{"x":1}`)); err != nil {
			t.Fatal(err)
		}
		if err := faultinject.FlipBit(path, 150); err != nil {
			t.Fatal(err)
		}
		fresh, err := Open(s.Dir(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := fresh.Get(k); ok {
			t.Fatal("corrupt blob served")
		}
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Errorf("first corpse missing: %v", err)
	}
	if _, err := os.Stat(path + ".corrupt1"); err != nil {
		t.Errorf("second corpse missing: %v", err)
	}
}

func TestInvalidKey(t *testing.T) {
	s, _ := Open("", Options{})
	if err := s.Put(Key("../../etc/passwd"), []byte("x")); err == nil {
		t.Error("path-traversal key accepted")
	}
	if _, ok := s.Get(Key("short")); ok {
		t.Error("invalid key hit")
	}
}

// TestScrubDropsTheMemoryCopy: a blob whose disk copy a scrub quarantines
// is gone from the LRU front too, so the next Get misses instead of serving
// a copy that no longer survives a restart.
func TestScrubDropsTheMemoryCopy(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	k := mustKey(t, "v1", "run", "rotted")
	if err := s.Put(k, []byte(`{"r":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := faultinject.FlipBit(filepath.Join(s.Dir(), string(k[:2]), string(k)+".json"), 180); err != nil {
		t.Fatal(err)
	}
	if r := s.Scrub(); r.Quarantined != 1 {
		t.Fatalf("scrub = %+v, want one quarantined", r)
	}
	if data, ok := s.Get(k); ok {
		t.Fatalf("Get served the quarantined blob from memory: %q", data)
	}
	if st := s.Stats(); st.MemHits != 0 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 0 memory hits and 1 miss", st)
	}
}
