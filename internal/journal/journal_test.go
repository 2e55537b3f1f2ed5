package journal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/faultinject"
)

var testHeader = Header{Kind: "test", SpecKey: "abc123", Version: "4"}

func writeRecords(t *testing.T, path string, records ...string) {
	t.Helper()
	w, err := Create(path, testHeader)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	for _, r := range records {
		if err := w.Append([]byte(r)); err != nil {
			t.Fatalf("Append(%q): %v", r, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	writeRecords(t, path, "one", "two", "three")

	rep, err := Replay(path)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if rep.Header != testHeader {
		t.Fatalf("header = %+v, want %+v", rep.Header, testHeader)
	}
	if rep.Torn {
		t.Fatal("clean journal reported torn")
	}
	want := []string{"one", "two", "three"}
	if len(rep.Entries) != len(want) {
		t.Fatalf("got %d entries, want %d", len(rep.Entries), len(want))
	}
	for i, w := range want {
		if string(rep.Entries[i]) != w {
			t.Fatalf("entry %d = %q, want %q", i, rep.Entries[i], w)
		}
	}
}

func TestJournalCreateRefusesExisting(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	writeRecords(t, path)
	if _, err := Create(path, testHeader); err == nil {
		t.Fatal("Create over an existing journal succeeded")
	}
}

func TestJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	// The "beta" frame is an 8-byte length/CRC header and a 4-byte payload.
	for name, chop := range map[string]int{
		"mid-frame-header": 7,
		"mid-payload":      1,
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(dir, name)
			writeRecords(t, path, "alpha", "beta")
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data[:len(data)-chop], 0o644); err != nil {
				t.Fatal(err)
			}
			rep, err := Replay(path)
			if err != nil {
				t.Fatalf("Replay of torn journal: %v", err)
			}
			if !rep.Torn {
				t.Fatal("torn journal not reported torn")
			}
			if len(rep.Entries) != 1 || string(rep.Entries[0]) != "alpha" {
				t.Fatalf("entries = %q, want just alpha", rep.Entries)
			}
		})
	}
}

func TestJournalCorruptTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	writeRecords(t, path, "alpha", "beta")
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a bit in the last record's payload: CRC catches it, replay
	// keeps everything before it.
	if err := faultinject.FlipBit(path, (info.Size()-2)*8); err != nil {
		t.Fatal(err)
	}
	rep, err := Replay(path)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if !rep.Torn || len(rep.Entries) != 1 || string(rep.Entries[0]) != "alpha" {
		t.Fatalf("torn=%v entries=%q, want torn with just alpha", rep.Torn, rep.Entries)
	}
}

func TestJournalOpenResumesAfterTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	writeRecords(t, path, "alpha", "beta")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-2], 0o644); err != nil {
		t.Fatal(err)
	}

	if rep, err := Replay(path); err != nil || !rep.Torn {
		t.Fatalf("torn tail not detected (err %v)", err)
	}
	n := 0
	w, err := Open(path, testHeader, nil, func([]byte) error { n++; return nil })
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if n != 1 {
		t.Fatalf("Open replayed %d records, want 1", n)
	}
	if err := w.Append([]byte("gamma")); err != nil {
		t.Fatalf("Append after resume: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	rep, err := Replay(path)
	if err != nil {
		t.Fatalf("Replay after resume: %v", err)
	}
	if rep.Torn {
		t.Fatal("resumed journal still torn")
	}
	got := fmt.Sprintf("%s", rep.Entries)
	if got != "[alpha gamma]" {
		t.Fatalf("entries = %s, want [alpha gamma]", got)
	}
}

func TestJournalRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	notJournal := filepath.Join(dir, "not")
	if err := os.WriteFile(notJournal, []byte("hello world, definitely not a journal"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(notJournal); err == nil {
		t.Fatal("Replay of a non-journal succeeded")
	}

	// A corrupt header frame is an error, not a torn tail: provenance is
	// unreadable, so nothing can be trusted.
	path := filepath.Join(dir, "j")
	writeRecords(t, path, "alpha")
	if err := faultinject.FlipBit(path, int64(len(magic)+frameHeader)*8); err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(path); err == nil {
		t.Fatal("Replay with corrupt header succeeded")
	}
}

func TestJournalAppendAfterClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	w, err := Create(path, testHeader)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := w.Append([]byte("x")); err == nil {
		t.Fatal("Append to closed journal succeeded")
	}
}

func TestWriteFileAtomic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "blob")
	if err := WriteFileAtomic(path, []byte("v1"), 0o644); err != nil {
		t.Fatalf("WriteFileAtomic: %v", err)
	}
	if err := WriteFileAtomic(path, []byte("v2"), 0o644); err != nil {
		t.Fatalf("WriteFileAtomic replace: %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("v2")) {
		t.Fatalf("content = %q, want v2", got)
	}
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("temp files left behind: %v", entries)
	}
}

func TestWriteFileAtomicCrashPoints(t *testing.T) {
	exits := 0
	prev := faultinject.SetCrashExit(func(int) { exits++ })
	defer faultinject.SetCrashExit(prev)
	defer faultinject.DisarmCrash()

	// pre-rename: the "crash" (a no-op exit hook) fires before the rename;
	// execution continues, so the file still lands — what matters is that
	// the point is hit between temp-file close and rename.
	dir := t.TempDir()
	path := filepath.Join(dir, "blob")
	faultinject.ArmCrash(faultinject.CrashPreRename, 1)
	if err := WriteFileAtomic(path, []byte("x"), 0o644); err != nil {
		t.Fatalf("WriteFileAtomic: %v", err)
	}
	if exits != 1 {
		t.Fatalf("pre-rename crash point hit %d times, want 1", exits)
	}

	faultinject.ArmCrash(faultinject.CrashPreDirSync, 1)
	if err := WriteFileAtomic(path, []byte("y"), 0o644); err != nil {
		t.Fatalf("WriteFileAtomic: %v", err)
	}
	if exits != 2 {
		t.Fatalf("pre-dir-sync crash point hit %d times, want 2", exits)
	}
}

func TestJournalAppendCrashPoint(t *testing.T) {
	exits := 0
	prev := faultinject.SetCrashExit(func(int) { exits++ })
	defer faultinject.SetCrashExit(prev)
	defer faultinject.DisarmCrash()

	path := filepath.Join(t.TempDir(), "j")
	w, err := Create(path, testHeader)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = w.Close() }()
	faultinject.ArmCrash(faultinject.CrashPostJournalAppend, 2)
	if err := w.Append([]byte("a")); err != nil {
		t.Fatal(err)
	}
	if exits != 0 {
		t.Fatal("crash fired on first append, want second")
	}
	if err := w.Append([]byte("b")); err != nil {
		t.Fatal(err)
	}
	if exits != 1 {
		t.Fatalf("crash point hit %d times after second append, want 1", exits)
	}
}

// TestJournalOpenKindAndVersion: a journal of another kind is refused and
// left untouched; one of this kind from another version is set aside as
// path+".stale" and replaced by an empty journal of this version.
func TestJournalOpenKindAndVersion(t *testing.T) {
	logf := func(string, ...any) {}
	var got []string
	record := func(b []byte) error {
		got = append(got, string(b))
		return nil
	}
	path := filepath.Join(t.TempDir(), "j")
	writeRecords(t, path, "alpha", "beta")
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	foreign := Header{Kind: "other", Version: testHeader.Version}
	if w, err := Open(path, foreign, logf, record); err == nil {
		_ = w.Close()
		t.Fatal("Open accepted a journal of another kind")
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("refused journal changed on disk (err %v)", err)
	}
	if len(got) != 0 {
		t.Fatalf("a journal of another kind replayed %q", got)
	}

	w, err := Open(path, testHeader, logf, record)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[alpha beta]" {
		t.Fatalf("records = %q, want [alpha beta]", got)
	}

	got = nil
	next := testHeader
	next.Version = "5"
	w, err = Open(path, next, logf, record)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("stale-version journal replayed %q", got)
	}
	if stale, err := os.ReadFile(path + ".stale"); err != nil || !bytes.Equal(stale, before) {
		t.Fatalf("stale journal not set aside intact (err %v)", err)
	}
	rep, err := Replay(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Header != next || len(rep.Entries) != 0 {
		t.Fatalf("replacement journal header %+v with %d records, want %+v and none", rep.Header, len(rep.Entries), next)
	}
}
