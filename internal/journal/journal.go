// Package journal is the crash-only persistence substrate for the
// experiment pipeline: an append-only record log with full fsync
// discipline, CRC-framed entries, and torn-tail-tolerant replay.
//
// A journal file is a fixed magic, then a sequence of frames. Each frame is
// a little-endian uint32 payload length, a uint32 IEEE CRC-32 of the
// payload, and the payload bytes. Frame 0 is the JSON-encoded Header, which
// binds the journal to what produced it — a kind, the canonical spec hash
// of the experiment, and the code version — so resuming from the wrong
// journal fails loudly instead of silently mixing results across specs.
//
// Every Append syncs the file before returning: once Append returns, the
// record survives a SIGKILL. A crash mid-Append leaves a torn final frame,
// which Replay detects (short frame or CRC mismatch) and drops; Open then
// truncates the tail so appends continue from the last intact record.
//
// The package also provides WriteFileAtomic, the one true crash-safe
// file-replace sequence (O_EXCL temp, write, fsync, rename, parent
// directory fsync) used by the result store, with faultinject crash points
// at each durability boundary so drills can kill a real process inside the
// windows the sequence exists to protect.
package journal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/faultinject"
)

// magic opens every journal file; replaying anything else fails immediately.
const magic = "SPURJRL1"

// frameHeader is the per-frame overhead: uint32 length + uint32 CRC.
const frameHeader = 8

// maxFrame bounds a single payload so a corrupt length field cannot make
// replay attempt a multi-gigabyte allocation.
const maxFrame = 64 << 20

// Header is frame 0 of every journal: what produced it. Replay returns it
// verbatim; resuming callers compare it against their own spec and refuse
// mismatches.
type Header struct {
	// Kind names the journal family ("spurd-jobs", "spurd-outbox").
	Kind string `json:"kind"`
	// SpecKey is the canonical spec hash (an expstore key) of the
	// experiment the journal checkpoints, when there is one.
	SpecKey string `json:"spec_key,omitempty"`
	// Version is the code version that wrote the journal.
	Version string `json:"version"`
}

// Writer appends CRC-framed, fsynced records to a journal file. It is safe
// for concurrent use.
type Writer struct {
	mu   sync.Mutex
	f    *os.File
	path string
}

// Create creates a fresh journal at path (which must not exist), writes the
// header frame, and syncs both the file and its parent directory so the
// journal itself survives a crash.
func Create(path string, h Header) (*Writer, error) {
	hb, err := json.Marshal(h)
	if err != nil {
		return nil, fmt.Errorf("journal: encoding header: %w", err)
	}
	if err := faultinject.CheckDisk(faultinject.DiskCreate, path); err != nil {
		return nil, fmt.Errorf("journal: create: %w", err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: create: %w", err)
	}
	w := &Writer{f: f, path: path}
	if _, err := faultWrite(f, []byte(magic)); err != nil {
		return nil, w.createFail(err)
	}
	if err := writeFrame(f, hb); err != nil {
		return nil, w.createFail(err)
	}
	if err := faultSync(f); err != nil {
		return nil, w.createFail(err)
	}
	if err := syncDir(filepath.Dir(path)); err != nil {
		return nil, w.createFail(err)
	}
	return w, nil
}

// createFail abandons a half-created journal: close, remove, wrap.
func (w *Writer) createFail(err error) error {
	_ = w.f.Close()       // already failing; best-effort cleanup
	_ = os.Remove(w.path) // best-effort cleanup on the error path
	w.f = nil
	return fmt.Errorf("journal: create %s: %w", w.path, err)
}

// Open opens the journal at path for appending, creating it with header h
// when absent. The file is read once: each intact record goes to record, in
// append order, before the Writer opens, and an error from record fails
// the open. A torn tail is truncated, so appends continue from the last
// intact record. A journal of another kind than h.Kind is an error. One
// written by another code version than h.Version is renamed to
// path+".stale" and replaced by an empty journal, since its records address
// that version's results; logf hears about the set-aside.
func Open(path string, h Header, logf func(string, ...any), record func([]byte) error) (*Writer, error) {
	if _, err := os.Stat(path); os.IsNotExist(err) {
		return Create(path, h)
	}
	rep, err := Replay(path)
	if err != nil {
		return nil, err
	}
	if rep.Header.Kind != h.Kind {
		return nil, fmt.Errorf("journal: %s is a %q journal, not %q", path, rep.Header.Kind, h.Kind)
	}
	if rep.Header.Version != h.Version {
		logf("journal: %s journal %s was written by version %q (this is %q); setting it aside", h.Kind, path, rep.Header.Version, h.Version)
		if err := os.Rename(path, path+".stale"); err != nil {
			return nil, err
		}
		return Create(path, h)
	}
	for i, b := range rep.Entries {
		if err := record(b); err != nil {
			return nil, fmt.Errorf("journal: %s record %d: %w", path, i, err)
		}
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return nil, fmt.Errorf("journal: open %s: %w", path, err)
	}
	if rep.Torn {
		if err := f.Truncate(rep.Valid); err != nil {
			_ = f.Close() // already failing; best-effort cleanup
			return nil, fmt.Errorf("journal: truncating torn tail of %s: %w", path, err)
		}
		if err := f.Sync(); err != nil {
			_ = f.Close() // already failing; best-effort cleanup
			return nil, fmt.Errorf("journal: open %s: %w", path, err)
		}
	}
	if _, err := f.Seek(rep.Valid, 0); err != nil {
		_ = f.Close() // already failing; best-effort cleanup
		return nil, fmt.Errorf("journal: open %s: %w", path, err)
	}
	return &Writer{f: f, path: path}, nil
}

// Append writes one record frame and syncs the file. When Append returns
// nil the record is durable: a SIGKILL immediately after loses nothing.
// When the write or the fsync fails (a full or dying disk), Append rolls
// the file back to its pre-append length so the journal holds exactly the
// records it held before, and the writer stays usable for a later retry;
// if the rollback itself fails the writer closes itself, and every later
// Append fails loudly rather than appending after an untrusted fsync.
func (w *Writer) Append(payload []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return fmt.Errorf("journal: append to closed journal %s", w.path)
	}
	if len(payload) > maxFrame {
		return fmt.Errorf("journal: record of %d bytes exceeds frame limit", len(payload))
	}
	off, err := w.f.Seek(0, io.SeekCurrent)
	if err != nil {
		return fmt.Errorf("journal: append to %s: %w", w.path, err)
	}
	if err := writeFrame(w.f, payload); err != nil {
		return w.revert(off, err)
	}
	if err := faultSync(w.f); err != nil {
		return w.revert(off, err)
	}
	faultinject.Crash(faultinject.CrashPostJournalAppend)
	return nil
}

// revert undoes a failed append: truncate back to the pre-append offset and
// sync, leaving state untouched. The rollback uses the real file operations,
// not the fault seam — it is the recovery path the seam exists to exercise.
func (w *Writer) revert(off int64, cause error) error {
	if w.f.Truncate(off) == nil && w.f.Sync() == nil {
		if _, err := w.f.Seek(off, 0); err == nil {
			return fmt.Errorf("journal: append to %s (rolled back): %w", w.path, cause)
		}
	}
	_ = w.f.Close() // poisoned: the rollback failed too; best-effort close
	w.f = nil
	return fmt.Errorf("journal: append to %s failed and rollback failed, journal closed: %w", w.path, cause)
}

// Close syncs and closes the journal. Closing twice is an error-free no-op.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	f := w.f
	w.f = nil
	if err := f.Sync(); err != nil {
		_ = f.Close() // already failing; best-effort cleanup
		return fmt.Errorf("journal: close %s: %w", w.path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("journal: close %s: %w", w.path, err)
	}
	return nil
}

// Path returns the journal's file path.
func (w *Writer) Path() string { return w.path }

// Replayed is the result of replaying a journal.
type Replayed struct {
	// Header is frame 0.
	Header Header
	// Entries are the intact record payloads in append order.
	Entries [][]byte
	// Torn reports that a trailing partial or corrupt frame was dropped —
	// the signature of a crash mid-append.
	Torn bool
	// Valid is the byte length of the intact prefix (where Open truncates
	// and resumes appending).
	Valid int64
}

// Replay reads the journal at path, returning every intact record. A
// malformed magic or header is an error (this is not a journal, or its
// provenance is unreadable); a torn or corrupt *tail* is expected crash
// debris and is reported via Torn, not an error.
func Replay(path string) (*Replayed, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("journal: replay: %w", err)
	}
	if len(data) < len(magic) || string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("journal: %s is not a journal (bad magic)", path)
	}
	off := int64(len(magic))
	hb, next, ok := readFrame(data, off)
	if !ok {
		return nil, fmt.Errorf("journal: %s: corrupt header frame", path)
	}
	rep := &Replayed{}
	if err := json.Unmarshal(hb, &rep.Header); err != nil {
		return nil, fmt.Errorf("journal: %s: decoding header: %w", path, err)
	}
	off = next
	rep.Valid = off
	for off < int64(len(data)) {
		payload, next, ok := readFrame(data, off)
		if !ok {
			rep.Torn = true
			break
		}
		rep.Entries = append(rep.Entries, payload)
		off = next
		rep.Valid = off
	}
	return rep, nil
}

// writeFrame writes one length+CRC+payload frame.
func writeFrame(f *os.File, payload []byte) error {
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	if _, err := faultWrite(f, hdr[:]); err != nil {
		return err
	}
	_, err := faultWrite(f, payload)
	return err
}

// faultWrite writes b to f through the disk fault seam: an injected short
// write lands only its prefix — real torn bytes on a real file, exactly the
// debris a filling disk leaves — before returning the injected errno.
func faultWrite(f *os.File, b []byte) (int, error) {
	n, ferr := faultinject.CheckDiskWrite(f.Name(), len(b))
	if ferr == nil {
		return f.Write(b)
	}
	if n > 0 {
		if m, werr := f.Write(b[:n]); werr != nil {
			return m, werr
		}
	}
	return n, ferr
}

// faultSync fsyncs f through the disk fault seam.
func faultSync(f *os.File) error {
	if err := faultinject.CheckDisk(faultinject.DiskSync, f.Name()); err != nil {
		return err
	}
	return f.Sync()
}

// readFrame decodes the frame at off, returning the payload, the offset of
// the next frame, and whether the frame was intact (fully present with a
// matching CRC).
func readFrame(data []byte, off int64) (payload []byte, next int64, ok bool) {
	if off+frameHeader > int64(len(data)) {
		return nil, 0, false
	}
	n := int64(binary.LittleEndian.Uint32(data[off : off+4]))
	sum := binary.LittleEndian.Uint32(data[off+4 : off+8])
	if n > maxFrame || off+frameHeader+n > int64(len(data)) {
		return nil, 0, false
	}
	payload = data[off+frameHeader : off+frameHeader+n]
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, 0, false
	}
	return payload, off + frameHeader + n, true
}

// WriteFileAtomic replaces path with data crash-safely: write to an O_EXCL
// temp file next to it, fsync, close, rename over path, then fsync the
// parent directory. A crash at any point leaves either the old content, the
// new content, or a stray .tmp file — never a torn destination. Concurrent
// writers of identical bytes are benign (last rename wins).
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	tmp, err := openExclTemp(path, perm)
	if err != nil {
		return fmt.Errorf("journal: atomic write %s: %w", path, err)
	}
	if _, err := faultWrite(tmp, data); err != nil {
		_ = tmp.Close()           // already failing; best-effort cleanup
		_ = os.Remove(tmp.Name()) // best-effort cleanup on the error path
		return fmt.Errorf("journal: atomic write %s: %w", path, err)
	}
	if err := faultSync(tmp); err != nil {
		_ = tmp.Close()           // already failing; best-effort cleanup
		_ = os.Remove(tmp.Name()) // best-effort cleanup on the error path
		return fmt.Errorf("journal: atomic write %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		_ = os.Remove(tmp.Name()) // best-effort cleanup on the error path
		return fmt.Errorf("journal: atomic write %s: %w", path, err)
	}
	faultinject.Crash(faultinject.CrashPreRename)
	if err := faultinject.CheckDisk(faultinject.DiskRename, path); err != nil {
		_ = os.Remove(tmp.Name()) // best-effort cleanup on the error path
		return fmt.Errorf("journal: atomic write %s: %w", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		_ = os.Remove(tmp.Name()) // best-effort cleanup on the error path
		return fmt.Errorf("journal: atomic write %s: %w", path, err)
	}
	faultinject.Crash(faultinject.CrashPreDirSync)
	if err := syncDir(filepath.Dir(path)); err != nil {
		return fmt.Errorf("journal: atomic write %s: %w", path, err)
	}
	return nil
}

// openExclTemp opens a fresh temp file next to path with O_EXCL, retrying
// with a numeric suffix if a concurrent writer holds the first name.
func openExclTemp(path string, perm os.FileMode) (*os.File, error) {
	if err := faultinject.CheckDisk(faultinject.DiskCreate, path); err != nil {
		return nil, err
	}
	for i := 0; ; i++ {
		name := fmt.Sprintf("%s.tmp%d", path, i)
		f, err := os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_EXCL, perm)
		if os.IsExist(err) && i < 64 {
			continue
		}
		return f, err
	}
}

// syncDir fsyncs a directory so a just-created or just-renamed name in it
// survives a crash.
func syncDir(dir string) error {
	if err := faultinject.CheckDisk(faultinject.DiskSync, dir); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		_ = d.Close() // already failing; best-effort cleanup
		return err
	}
	return d.Close()
}

// SweepTemps removes orphaned atomic-write temp files under dir (recursing
// into subdirectories): the "<name>.tmp<N>" debris a crash between
// openExclTemp and rename leaves behind, which otherwise accumulates
// forever. Call it at startup before any writer is live — sweeping a temp
// file that belongs to an in-flight WriteFileAtomic makes that write fail
// loudly at rename with the destination untouched, which is safe but noisy.
// It returns how many files it removed; removal errors are joined but do
// not stop the sweep.
func SweepTemps(dir string) (removed int, err error) {
	var errs []error
	walkErr := filepath.WalkDir(dir, func(path string, d fs.DirEntry, werr error) error {
		if werr != nil {
			// A directory that vanished mid-walk is not sweep debris.
			errs = append(errs, werr)
			return nil
		}
		if d.IsDir() || !isTempName(d.Name()) {
			return nil
		}
		if rerr := os.Remove(path); rerr != nil {
			errs = append(errs, rerr)
			return nil
		}
		removed++
		return nil
	})
	if walkErr != nil {
		errs = append(errs, walkErr)
	}
	return removed, errors.Join(errs...)
}

// isTempName reports whether name matches openExclTemp's "<base>.tmp<N>"
// pattern. The digit check keeps the sweep from eating a user file that
// merely ends in ".tmp-something".
func isTempName(name string) bool {
	i := strings.LastIndex(name, ".tmp")
	if i < 0 {
		return false
	}
	digits := name[i+len(".tmp"):]
	if digits == "" {
		return false
	}
	for _, c := range digits {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}
