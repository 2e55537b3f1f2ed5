package faultinject

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
)

// CrashPoint names a place in the durability machinery where a planted
// crash can kill the process. The points bracket exactly the windows a
// crash-only design must survive: after a journal record reaches disk,
// between a temp file's fsync and its rename, and between the rename and
// the directory sync that makes it durable.
type CrashPoint string

const (
	// CrashPostJournalAppend fires after a journal frame has been written
	// and fsynced — the record is durable, everything after it is lost.
	CrashPostJournalAppend CrashPoint = "post-journal-append"
	// CrashPreRename fires after an atomic write's temp file is synced and
	// closed but before the rename — the destination must be untouched.
	CrashPreRename CrashPoint = "pre-rename"
	// CrashPreDirSync fires after the rename but before the parent
	// directory sync — the new name may or may not survive; either state
	// must replay cleanly.
	CrashPreDirSync CrashPoint = "pre-dir-sync"
)

var crashPoints = map[CrashPoint]bool{
	CrashPostJournalAppend: true,
	CrashPreRename:         true,
	CrashPreDirSync:        true,
}

// CrashEnv is the environment variable sweep and tables consult to arm a
// crash point in a subprocess: "<point>:<n>" kills the process on the n'th
// hit of the point (e.g. "post-journal-append:3").
const CrashEnv = "SPUR_CRASH"

// CrashExitCode is the exit status of a planted crash: 128+9, what a shell
// reports for a SIGKILLed process, since the crash models exactly that —
// an abrupt death with no deferred cleanup.
const CrashExitCode = 137

var (
	crashMu    sync.Mutex
	crashPoint CrashPoint
	crashAfter uint64
	crashHits  uint64
	crashExit  = func(code int) { os.Exit(code) }
)

// ArmCrash plants a crash at point p: the n'th call to Crash(p) kills the
// process (n >= 1). Arming replaces any previous plant and resets the hit
// counter.
func ArmCrash(p CrashPoint, n uint64) {
	crashMu.Lock()
	defer crashMu.Unlock()
	crashPoint, crashAfter, crashHits = p, n, 0
}

// DisarmCrash removes any planted crash.
func DisarmCrash() {
	crashMu.Lock()
	defer crashMu.Unlock()
	crashPoint, crashAfter, crashHits = "", 0, 0
}

// ArmCrashFromEnv arms a crash point from the SPUR_CRASH environment
// variable ("<point>:<n>"). An unset or empty variable is a no-op; a
// malformed value or unknown point is an error so a mistyped drill fails
// loudly instead of never crashing.
func ArmCrashFromEnv() error {
	v := os.Getenv(CrashEnv)
	if v == "" {
		return nil
	}
	point, count, ok := strings.Cut(v, ":")
	if !ok {
		return fmt.Errorf("faultinject: %s=%q: want \"<point>:<n>\"", CrashEnv, v)
	}
	p := CrashPoint(point)
	if !crashPoints[p] {
		return fmt.Errorf("faultinject: %s: unknown crash point %q", CrashEnv, point)
	}
	n, err := strconv.ParseUint(count, 10, 64)
	if err != nil || n == 0 {
		return fmt.Errorf("faultinject: %s=%q: hit count must be a positive integer", CrashEnv, v)
	}
	ArmCrash(p, n)
	return nil
}

// Crash is the crash point itself: durability-critical code calls it at
// each named point, and if a plant for that point is armed and this is the
// n'th hit, the process exits immediately with CrashExitCode — no deferred
// functions, no flushes, exactly like a SIGKILL. Unarmed points cost one
// mutex round trip.
func Crash(p CrashPoint) {
	crashMu.Lock()
	if crashPoint != p || crashAfter == 0 {
		crashMu.Unlock()
		return
	}
	crashHits++
	if crashHits < crashAfter {
		crashMu.Unlock()
		return
	}
	exit := crashExit
	crashMu.Unlock()
	exit(CrashExitCode)
}

// SetCrashExit replaces the process-exit hook and returns the previous one.
// Tests use it to observe a planted crash without dying.
func SetCrashExit(f func(code int)) func(code int) {
	crashMu.Lock()
	defer crashMu.Unlock()
	prev := crashExit
	crashExit = f
	return prev
}

// FlipBit flips a single bit of the file at path — on-disk corruption
// injection for scrubber and quarantine drills. Bit 0 is the least
// significant bit of byte 0; the bit must lie within the file.
func FlipBit(path string, bit int64) error {
	if bit < 0 {
		return fmt.Errorf("faultinject: flip bit %d: negative offset", bit)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return fmt.Errorf("faultinject: flip bit: %w", err)
	}
	var b [1]byte
	off := bit / 8
	if _, err := f.ReadAt(b[:], off); err != nil {
		_ = f.Close() // already failing; best-effort cleanup
		return fmt.Errorf("faultinject: flip bit %d of %s: %w", bit, path, err)
	}
	b[0] ^= 1 << (bit % 8)
	if _, err := f.WriteAt(b[:], off); err != nil {
		_ = f.Close() // already failing; best-effort cleanup
		return fmt.Errorf("faultinject: flip bit %d of %s: %w", bit, path, err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close() // already failing; best-effort cleanup
		return fmt.Errorf("faultinject: flip bit %d of %s: %w", bit, path, err)
	}
	return f.Close()
}
