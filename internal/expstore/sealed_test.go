package expstore

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestSealedTransferRoundTrip is the replica-transfer contract: the sealed
// form one store hands out is accepted, verified, and served identically
// by another.
func TestSealedTransferRoundTrip(t *testing.T) {
	src, err := Open(filepath.Join(t.TempDir(), "src"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	dst, err := Open(filepath.Join(t.TempDir(), "dst"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	k := mustKey(t, "v1", "run", "sealed-roundtrip")
	payload := []byte(`{"rows":[1,2,3]}`)
	if err := src.Put(k, payload); err != nil {
		t.Fatal(err)
	}
	sealed, ok := src.GetSealed(k)
	if !ok {
		t.Fatal("GetSealed missed a stored key")
	}
	if err := dst.PutSealed(k, sealed, true); err != nil {
		t.Fatal(err)
	}
	got, ok := dst.Get(k)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("transferred payload = %q, %v; want %q", got, ok, payload)
	}
	if st := dst.Stats(); st.Repaired != 1 {
		t.Errorf("Repaired = %d, want 1", st.Repaired)
	}
	// A replication push (repair=false) counts as a plain put.
	dst2, err := Open(filepath.Join(t.TempDir(), "dst2"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := dst2.PutSealed(k, sealed, false); err != nil {
		t.Fatal(err)
	}
	if st := dst2.Stats(); st.Repaired != 0 || st.Puts != 1 {
		t.Errorf("stats after replication push = %+v, want 1 put, 0 repaired", st)
	}
	// Idempotent: re-pushing the same sealed blob is a no-op success.
	if err := dst2.PutSealed(k, sealed, false); err != nil {
		t.Fatal(err)
	}
}

// TestPutSealedRejectsTamperedEnvelope: a bit flipped in transit must be
// refused before it reaches disk.
func TestPutSealedRejectsTamperedEnvelope(t *testing.T) {
	src, err := Open("", Options{})
	if err != nil {
		t.Fatal(err)
	}
	k := mustKey(t, "v1", "run", "tampered")
	if err := src.Put(k, []byte(`{"x":1}`)); err != nil {
		t.Fatal(err)
	}
	sealed, ok := src.GetSealed(k)
	if !ok {
		t.Fatal("GetSealed missed")
	}
	bad := bytes.Replace(sealed, []byte(`"x":1`), []byte(`"x":2`), 1)
	dst, err := Open(filepath.Join(t.TempDir(), "dst"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.PutSealed(k, bad, true); err == nil {
		t.Fatal("tampered envelope accepted")
	}
	if _, ok := dst.GetSealed(k); ok {
		t.Error("tampered blob landed in the store")
	}
}

// TestMemoryOnlySealing: a memory-only store seals on the fly, so even a
// diskless node can donate blobs to a repairing replica.
func TestMemoryOnlySealing(t *testing.T) {
	s, err := Open("", Options{})
	if err != nil {
		t.Fatal(err)
	}
	k := mustKey(t, "v1", "run", "memonly")
	payload := []byte(`{"mem":true}`)
	if err := s.Put(k, payload); err != nil {
		t.Fatal(err)
	}
	sealed, ok := s.GetSealed(k)
	if !ok {
		t.Fatal("GetSealed missed a memory-only key")
	}
	got, err := openBlob(sealed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("sealed payload = %q, want %q", got, payload)
	}
}

// TestGetSealedServesOnlyVerifiedBlobs: GetSealed hands out a blob only
// when the store holds a verified copy of it. A corrupt disk blob is
// quarantined on the spot and reported as absent: rot and loss look the
// same, so a request for it fetches a fresh copy from a replica.
func TestGetSealedServesOnlyVerifiedBlobs(t *testing.T) {
	s, err := Open(filepath.Join(t.TempDir(), "store"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	k1 := mustKey(t, "v1", "run", "one")
	k2 := mustKey(t, "v1", "run", "two")
	if _, ok := s.GetSealed(k1); ok {
		t.Fatal("GetSealed hit on an empty store")
	}
	for _, k := range []Key{k1, k2} {
		if err := s.Put(k, []byte(`{}`)); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range []Key{k1, k2} {
		if _, ok := s.GetSealed(k); !ok {
			t.Fatalf("GetSealed missed stored key %s", k)
		}
	}

	path := s.path(k1)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	// Drop the LRU copy so only the disk holds k1.
	fresh, err := Open(s.Dir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := fresh.GetSealed(k1); ok {
		t.Error("GetSealed served a corrupt blob")
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Error("corrupt blob not quarantined by GetSealed")
	}
}
