// Package expstore is a content-addressed result store for deterministic
// experiments. PR 2 made every run a pure function of its canonical spec
// — {config, workload spec, seed, reps, code version} — so a result can be
// memoized under a hash of that spec and replayed forever without burning
// simulator cycles.
//
// The store is two-level: an in-memory LRU front for the hot keys a serving
// daemon sees, backed by an on-disk directory of immutable JSON blobs.
// Disk writes are crash-safe by construction (O_EXCL temp file, fsync,
// rename, directory fsync via journal.WriteFileAtomic), concurrent writers
// of the same key are harmless (the bytes are identical by determinism),
// and hit/miss/eviction counters feed the daemon's /healthz endpoint.
//
// The store is also self-healing. Every blob is sealed in an envelope that
// carries the SHA-256 of its payload, every disk read re-verifies that hash
// before serving, and Scrub sweeps the whole directory on demand (the
// daemon runs it periodically). A blob that fails verification — bit rot, a
// truncated write from a pre-envelope crash, manual tampering — is
// quarantined: renamed aside with a .corrupt suffix, never deleted, counted
// in Stats.Corrupt, and surfaced in /healthz. The next Get misses and the
// caller transparently recomputes and re-stores the result.
package expstore

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/faultinject"
	"repro/internal/journal"
)

// Key is the content address of one experiment result: the hex SHA-256 of
// the canonical serialization of everything the result depends on.
type Key string

// KeyOf computes the content address for an experiment. version is the
// code version (results are invalidated wholesale when the simulator
// changes), kind names the experiment family ("run", "sweep", "tables"),
// and spec is the canonicalized request — callers must apply defaults
// before hashing so equivalent requests share a key. Hashing marshals spec
// through encoding/json, which is deterministic for structs (declaration
// order) and maps (sorted keys).
func KeyOf(version, kind string, spec any) (Key, error) {
	payload, err := json.Marshal(struct {
		Version string `json:"version"`
		Kind    string `json:"kind"`
		Spec    any    `json:"spec"`
	}{version, kind, spec})
	if err != nil {
		return "", fmt.Errorf("expstore: canonicalizing %s spec: %w", kind, err)
	}
	sum := sha256.Sum256(payload)
	return Key(hex.EncodeToString(sum[:])), nil
}

func (k Key) valid() bool {
	if len(k) != 2*sha256.Size {
		return false
	}
	for _, c := range k {
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
	}
	return true
}

// Stats is a snapshot of the store's counters.
type Stats struct {
	// MemHits served from the LRU front; DiskHits from the backing
	// directory (promoting the entry into the front); Misses found
	// nothing.
	MemHits  uint64 `json:"mem_hits"`
	DiskHits uint64 `json:"disk_hits"`
	Misses   uint64 `json:"misses"`
	// Puts counts successful stores (including rediscovered concurrent
	// writes); Evictions counts LRU-front expulsions (the disk copy
	// remains).
	Puts      uint64 `json:"puts"`
	Evictions uint64 `json:"evictions"`
	// Corrupt counts blobs that failed content verification and were
	// quarantined (renamed aside, never deleted); Scrubs counts completed
	// integrity passes over the backing directory.
	Corrupt uint64 `json:"corrupt"`
	Scrubs  uint64 `json:"scrubs"`
	// Repaired counts blobs restored from a cluster replica (verified
	// sealed envelopes accepted by PutSealed with repair=true) instead of
	// being recomputed.
	Repaired uint64 `json:"repaired"`
	// Entries and Bytes describe the current LRU front.
	Entries int `json:"entries"`
	Bytes   int `json:"bytes"`
}

// Hits is the total over both levels.
func (s Stats) Hits() uint64 { return s.MemHits + s.DiskHits }

// Options tunes a store.
type Options struct {
	// MaxEntries bounds the LRU front's entry count (default 512;
	// negative disables the front entirely).
	MaxEntries int
	// MaxBytes bounds the LRU front's payload bytes (default 256 MiB).
	MaxBytes int
}

// defaultMaxBytes caps the LRU front's payload (a compile-time constant, so
// the untyped arithmetic is range-checked by the compiler).
const defaultMaxBytes = 256 << 20

func (o Options) fill() Options {
	if o.MaxEntries == 0 {
		o.MaxEntries = 512
	}
	if o.MaxBytes == 0 {
		o.MaxBytes = defaultMaxBytes
	}
	return o
}

type entry struct {
	key  Key
	data []byte
}

// Store is a two-level content-addressed result store. It is safe for
// concurrent use.
type Store struct {
	dir  string
	opts Options

	mu    sync.Mutex
	lru   *list.List            // guarded by mu: front = most recent; values are *entry
	index map[Key]*list.Element // guarded by mu
	bytes int                   // guarded by mu
	stats Stats                 // guarded by mu
}

// Open creates (if needed) and opens the store rooted at dir. An empty dir
// yields a memory-only store: the LRU front works, disk persistence is
// disabled. Opening also sweeps orphaned atomic-write temp files — the
// debris of a crash between temp create and rename — so they cannot
// accumulate across process lifetimes.
func Open(dir string, opts Options) (*Store, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("expstore: opening %s: %w", dir, err)
		}
		// Best-effort: an unremovable orphan resurfaces at the next write,
		// which fails loudly there.
		_, _ = journal.SweepTemps(dir)
	}
	return &Store{
		dir:   dir,
		opts:  opts.fill(),
		lru:   list.New(),
		index: make(map[Key]*list.Element),
	}, nil
}

// Dir returns the backing directory ("" for memory-only stores).
func (s *Store) Dir() string { return s.dir }

// path shards blobs by the key's first byte so one directory never holds
// every result: <dir>/ab/abcdef....json.
func (s *Store) path(k Key) string {
	return filepath.Join(s.dir, string(k[:2]), string(k)+".json")
}

// Get returns the stored bytes for k and whether they were found. Disk
// reads are verified against the envelope's payload hash before serving; a
// blob that fails verification is quarantined and reported as a miss, so
// the caller recomputes instead of consuming rot. Callers must not mutate
// the returned slice.
func (s *Store) Get(k Key) ([]byte, bool) {
	if !k.valid() {
		return nil, false
	}
	s.mu.Lock()
	if el, ok := s.index[k]; ok {
		s.lru.MoveToFront(el)
		s.stats.MemHits++
		data := el.Value.(*entry).data
		s.mu.Unlock()
		return data, true
	}
	s.mu.Unlock()

	if s.dir != "" {
		if raw, err := readBlob(s.path(k)); err == nil {
			data, verr := openBlob(raw)
			if verr == nil {
				s.mu.Lock()
				s.stats.DiskHits++
				s.admit(k, data)
				s.mu.Unlock()
				return data, true
			}
			s.quarantine(k)
		}
	}
	s.mu.Lock()
	s.stats.Misses++
	s.mu.Unlock()
	return nil, false
}

// quarantine sets a corrupt blob aside — renamed with a .corrupt suffix,
// never deleted, so the evidence survives for forensics — and counts it.
// Concurrent quarantines of the same blob count once (first rename wins).
func (s *Store) quarantine(k Key) {
	path := s.path(k)
	for i := 0; i < 64; i++ {
		dst := path + ".corrupt"
		if i > 0 {
			dst = fmt.Sprintf("%s.corrupt%d", path, i)
		}
		if _, err := os.Stat(dst); err == nil {
			continue // earlier quarantine of the same key holds this name
		}
		if err := os.Rename(path, dst); err != nil {
			if os.IsNotExist(err) {
				return // a concurrent quarantine already moved it
			}
			continue
		}
		s.mu.Lock()
		s.stats.Corrupt++
		s.mu.Unlock()
		return
	}
}

// ScrubReport summarizes one integrity pass over the backing directory.
type ScrubReport struct {
	// Scanned blobs were read and verified; Quarantined of them failed and
	// were set aside; Errors are blobs that could not be read at all.
	Scanned     int `json:"scanned"`
	Quarantined int `json:"quarantined"`
	Errors      int `json:"errors"`
}

// Scrub verifies every blob in the backing directory against its embedded
// payload hash, quarantining any that fail. It is safe to run concurrently
// with serving — a blob quarantined mid-flight just turns the next Get into
// a miss-and-recompute. Memory-only stores scrub trivially.
func (s *Store) Scrub() ScrubReport {
	var r ScrubReport
	if s.dir != "" {
		// The walk callback never returns an error; unreadable entries are
		// counted in Errors.
		_ = filepath.WalkDir(s.dir, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				r.Errors++
				return nil
			}
			if d.IsDir() || !strings.HasSuffix(path, ".json") {
				return nil
			}
			k := Key(strings.TrimSuffix(filepath.Base(path), ".json"))
			if !k.valid() {
				return nil // foreign file; not ours to judge
			}
			r.Scanned++
			raw, rerr := readBlob(path)
			if rerr != nil {
				r.Errors++
				return nil
			}
			if _, verr := openBlob(raw); verr != nil {
				s.quarantine(k)
				r.Quarantined++
			}
			return nil
		})
	}
	s.mu.Lock()
	s.stats.Scrubs++
	s.mu.Unlock()
	return r
}

// Put stores data under k: a sealed, fully fsynced atomic disk write
// (temp file Sync before rename, then parent directory sync, via
// journal.WriteFileAtomic — a crash never leaves a torn blob) and
// admission into the LRU front. Re-putting an existing key is a no-op
// success — by determinism the bytes are identical.
func (s *Store) Put(k Key, data []byte) error {
	if !k.valid() {
		return fmt.Errorf("expstore: invalid key %q", k)
	}
	if s.dir != "" {
		// The envelope embeds the payload verbatim as a JSON value, so the
		// store can only persist JSON — which every result payload is.
		if !json.Valid(data) {
			return fmt.Errorf("expstore: put %s: payload is not valid JSON", k)
		}
		path := s.path(k)
		if _, err := os.Stat(path); err != nil {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				return fmt.Errorf("expstore: put %s: %w", k, err)
			}
			if err := journal.WriteFileAtomic(path, sealBlob(data), 0o644); err != nil {
				return fmt.Errorf("expstore: put %s: %w", k, err)
			}
		}
	}
	s.mu.Lock()
	s.stats.Puts++
	s.admit(k, data)
	s.mu.Unlock()
	return nil
}

// envelope is the on-disk blob format: the payload plus the hex SHA-256 of
// its bytes, so any read can prove the disk still holds what was written.
// (The store's *key* hashes the experiment spec, not the payload, so the
// filename alone cannot authenticate the content — the envelope can.)
type envelope struct {
	Sum  string          `json:"sha256"`
	Data json.RawMessage `json:"data"`
}

// sealBlob wraps payload in an envelope. The payload bytes are embedded
// verbatim, so unsealing returns exactly what was sealed.
func sealBlob(payload []byte) []byte {
	sum := sha256.Sum256(payload)
	buf := make([]byte, 0, len(payload)+96)
	buf = append(buf, `{"sha256":"`...)
	buf = append(buf, hex.EncodeToString(sum[:])...)
	buf = append(buf, `","data":`...)
	buf = append(buf, payload...)
	buf = append(buf, '}')
	return buf
}

// readBlob reads a blob file through the disk fault seam, so a dying
// sector under the store is drillable end to end: an injected EIO turns
// the read into a miss and the caller recomputes or repairs, exactly as it
// would for real rot.
func readBlob(path string) ([]byte, error) {
	if err := faultinject.CheckDisk(faultinject.DiskRead, path); err != nil {
		return nil, err
	}
	return os.ReadFile(path)
}

// openBlob verifies a sealed blob and returns its payload. Anything that
// is not a well-formed envelope with a matching hash is corrupt.
func openBlob(raw []byte) ([]byte, error) {
	var env envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		return nil, fmt.Errorf("expstore: not a sealed blob: %w", err)
	}
	sum := sha256.Sum256(env.Data)
	if hex.EncodeToString(sum[:]) != env.Sum {
		return nil, errors.New("expstore: payload hash mismatch")
	}
	return env.Data, nil
}

// admit inserts (or refreshes) k in the LRU front and evicts from the back
// until the bounds hold again. Caller holds s.mu.
func (s *Store) admit(k Key, data []byte) {
	if s.opts.MaxEntries < 0 || len(data) > s.opts.MaxBytes {
		return
	}
	if el, ok := s.index[k]; ok {
		s.lru.MoveToFront(el)
		return
	}
	s.index[k] = s.lru.PushFront(&entry{key: k, data: data})
	s.bytes += len(data)
	for s.lru.Len() > s.opts.MaxEntries || s.bytes > s.opts.MaxBytes {
		back := s.lru.Back()
		if back == nil || back == s.lru.Front() {
			break
		}
		e := back.Value.(*entry)
		s.lru.Remove(back)
		delete(s.index, e.key)
		s.bytes -= len(e.data)
		s.stats.Evictions++
	}
}

// Has reports whether the store holds a verified copy of k — in the LRU
// front, or on disk with a valid envelope. A corrupt disk blob is
// quarantined on the spot and reported as absent: rot and loss look the
// same.
func (s *Store) Has(k Key) bool {
	if !k.valid() {
		return false
	}
	s.mu.Lock()
	_, ok := s.index[k]
	s.mu.Unlock()
	if ok {
		return true
	}
	if s.dir == "" {
		return false
	}
	raw, err := readBlob(s.path(k))
	if err != nil {
		return false
	}
	if _, verr := openBlob(raw); verr != nil {
		s.quarantine(k)
		return false
	}
	return true
}

// GetSealed returns k's blob in its sealed on-disk envelope form, for
// replica transfer: the receiver re-verifies the embedded payload hash
// before accepting, so a byte flipped in transit (or on this node's disk)
// can never propagate. Memory-only hits are sealed on the fly.
func (s *Store) GetSealed(k Key) ([]byte, bool) {
	if !k.valid() {
		return nil, false
	}
	if s.dir != "" {
		raw, err := readBlob(s.path(k))
		if err == nil {
			if _, verr := openBlob(raw); verr == nil {
				return raw, true
			}
			s.quarantine(k)
			return nil, false
		}
	}
	s.mu.Lock()
	el, ok := s.index[k]
	var data []byte
	if ok {
		data = el.Value.(*entry).data
	}
	s.mu.Unlock()
	if !ok {
		return nil, false
	}
	return sealBlob(data), true
}

// PutSealed stores a blob received in sealed envelope form, verifying the
// embedded payload hash before anything touches disk. With repair=true the
// accept is counted in Stats.Repaired — the cluster healed this blob from
// a replica instead of recomputing it. Re-putting an existing key is a
// no-op success, which makes replication pushes idempotent.
func (s *Store) PutSealed(k Key, sealed []byte, repair bool) error {
	if !k.valid() {
		return fmt.Errorf("expstore: invalid key %q", k)
	}
	data, err := openBlob(sealed)
	if err != nil {
		return fmt.Errorf("expstore: put sealed %s: %w", k, err)
	}
	if s.dir != "" {
		path := s.path(k)
		if _, err := os.Stat(path); err != nil {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				return fmt.Errorf("expstore: put sealed %s: %w", k, err)
			}
			if err := journal.WriteFileAtomic(path, sealed, 0o644); err != nil {
				return fmt.Errorf("expstore: put sealed %s: %w", k, err)
			}
		}
	}
	s.mu.Lock()
	s.stats.Puts++
	if repair {
		s.stats.Repaired++
	}
	s.admit(k, data)
	s.mu.Unlock()
	return nil
}

// Stats returns a snapshot of the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = s.lru.Len()
	st.Bytes = s.bytes
	return st
}

// Len reports how many blobs the backing directory holds (0 for
// memory-only stores). It walks the shard directories, so it is a
// diagnostic, not a hot-path call.
func (s *Store) Len() int {
	if s.dir == "" {
		return 0
	}
	n := 0
	// The walk callback never returns an error, and unreadable entries are
	// simply not counted — acceptable for a diagnostic.
	_ = filepath.WalkDir(s.dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".json") {
			n++
		}
		return nil
	})
	return n
}
