package faultinject

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"syscall"
)

// This file is the disk half of the fault plane: an injectable seam under
// the journal's and store's durability boundaries (create, write, fsync,
// rename, directory sync, read) that can return ENOSPC or EIO — including
// short writes that land only a prefix of the bytes — on a deterministic
// schedule. The journal and store consult the globally armed injector at
// every boundary, so a full-disk or dying-disk drill needs no test hooks in
// the calling code.

// DiskOp names one durability boundary the disk injector can fail.
type DiskOp int

const (
	// DiskWrite is a file write (journal frames, temp-file bodies). A rule
	// with Partial > 0 lands that many bytes before failing — a short
	// write, the way a filling disk actually fails.
	DiskWrite DiskOp = iota
	// DiskSync is an fsync, of a file or of a parent directory.
	DiskSync
	// DiskRename is the atomic-replace rename.
	DiskRename
	// DiskCreate is file creation (journals, temp files).
	DiskCreate
	// DiskRead is a blob or journal read — a sector gone bad.
	DiskRead

	NumDiskOps // number of defined disk ops
)

var diskOpNames = [NumDiskOps]string{"write", "sync", "rename", "create", "read"}

// String returns the short mnemonic for the op.
func (op DiskOp) String() string {
	if op < 0 || op >= NumDiskOps {
		return fmt.Sprintf("diskop(%d)", int(op))
	}
	return diskOpNames[op]
}

// ParseDiskOp resolves a mnemonic (as printed by String) to its DiskOp.
func ParseDiskOp(s string) (DiskOp, error) {
	for op, name := range diskOpNames {
		if s == name {
			return DiskOp(op), nil
		}
	}
	return 0, fmt.Errorf("faultinject: unknown disk op %q", s)
}

// DiskRule schedules one injected disk error against matching operations.
type DiskRule struct {
	// Op selects the boundary to fail.
	Op DiskOp `json:"op"`
	// Path, when non-empty, restricts the rule to paths containing it as
	// a substring, so a drill can fill one node's disk and not the
	// harness's own files.
	Path string `json:"path,omitempty"`
	// Err names the errno to inject: "enospc" or "eio" (the default).
	Err string `json:"err,omitempty"`
	// Every is the cadence: one fault per Every matching operations.
	// Zero disables the rule.
	Every uint64 `json:"every"`
	// Seed, when nonzero, spreads the faults pseudo-randomly at rate
	// 1/Every from a splitmix64 stream.
	Seed uint64 `json:"seed,omitempty"`
	// After skips the first After matching operations.
	After uint64 `json:"after,omitempty"`
	// Max bounds the total injections from this rule; zero is unlimited.
	Max uint64 `json:"max,omitempty"`
	// Partial, for DiskWrite, is how many bytes land before the failure
	// (clamped to the write's length); zero fails before any byte lands.
	Partial int `json:"partial,omitempty"`
}

// DiskRecord is one disk fault that actually fired.
type DiskRecord struct {
	Rule int    `json:"rule"`
	Op   DiskOp `json:"op"`
	Path string `json:"path"`
	Call uint64 `json:"call"`
}

type diskRule struct {
	rule  DiskRule
	seen  uint64 // matching operations offered
	fired uint64 // faults injected
	state uint64 // splitmix64 state (seeded rules)
}

// DiskInjector makes the injection decisions for the disk seam. A nil
// *DiskInjector is valid and injects nothing. It locks internally: the
// journal and store are written to from many goroutines.
type DiskInjector struct {
	mu    sync.Mutex
	rules []*diskRule  // guarded by mu
	log   []DiskRecord // guarded by mu
}

// NewDisk builds a disk injector from the given rules.
func NewDisk(rules ...DiskRule) *DiskInjector {
	in := &DiskInjector{}
	in.SetRules(rules...)
	return in
}

// SetRules replaces the rule set and resets all counters; the injection log
// is kept so a whole drill stays auditable.
func (in *DiskInjector) SetRules(rules ...DiskRule) {
	if in == nil {
		return
	}
	rs := make([]*diskRule, 0, len(rules))
	for _, r := range rules {
		if r.Op < 0 || r.Op >= NumDiskOps {
			panic(fmt.Sprintf("faultinject: bad disk op %d", int(r.Op)))
		}
		if r.Err != "" && r.Err != "enospc" && r.Err != "eio" {
			panic(fmt.Sprintf("faultinject: bad disk errno %q", r.Err))
		}
		rs = append(rs, &diskRule{rule: r, state: r.Seed})
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.rules = rs
}

// DiskLog returns the disk injection record so far (capped at 4096).
func (in *DiskInjector) DiskLog() []DiskRecord {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]DiskRecord(nil), in.log...)
}

// check offers every rule one matching operation and returns the first
// fault that fires: the injected error and, for short writes, how many
// bytes to land first.
func (in *DiskInjector) check(op DiskOp, path string) (partial int, err error) {
	if in == nil {
		return 0, nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	for i, r := range in.rules {
		if r.rule.Every == 0 || r.rule.Op != op {
			continue
		}
		if r.rule.Path != "" && !strings.Contains(path, r.rule.Path) {
			continue
		}
		r.seen++
		if r.seen <= r.rule.After {
			continue
		}
		if r.rule.Max > 0 && r.fired >= r.rule.Max {
			continue
		}
		var fire bool
		if r.rule.Seed != 0 {
			fire = splitmix(&r.state)%r.rule.Every == 0
		} else {
			fire = (r.seen-r.rule.After)%r.rule.Every == 0
		}
		if !fire {
			continue
		}
		r.fired++
		if len(in.log) < logCap {
			in.log = append(in.log, DiskRecord{Rule: i, Op: op, Path: path, Call: r.seen})
		}
		errno := syscall.EIO
		if r.rule.Err == "enospc" {
			errno = syscall.ENOSPC
		}
		return r.rule.Partial, fmt.Errorf("faultinject: injected %s on %s %s: %w",
			diskErrName(errno), op, path, errno)
	}
	return 0, nil
}

func diskErrName(errno syscall.Errno) string {
	if errno == syscall.ENOSPC {
		return "ENOSPC"
	}
	return "EIO"
}

// The armed disk injector is process-global, like the crash plane: the
// journal and store are deep under many call paths and the drill wants to
// hit all of them without threading a handle through every constructor.
var (
	diskMu    sync.Mutex
	armedDisk *DiskInjector
)

// ArmDisk installs in as the process's disk injector, replacing any
// previous one. Arming nil disarms.
func ArmDisk(in *DiskInjector) {
	diskMu.Lock()
	defer diskMu.Unlock()
	armedDisk = in
}

// DisarmDisk removes the armed disk injector.
func DisarmDisk() { ArmDisk(nil) }

// ArmedDisk returns the currently armed disk injector, if any.
func ArmedDisk() *DiskInjector {
	diskMu.Lock()
	defer diskMu.Unlock()
	return armedDisk
}

// CheckDisk consults the armed injector at a durability boundary and
// returns the injected error, if one fires now. Callers return it exactly
// as they would the real errno from the real operation.
func CheckDisk(op DiskOp, path string) error {
	_, err := ArmedDisk().check(op, path)
	return err
}

// CheckDiskWrite consults the armed injector for a write of n bytes and
// returns how many bytes the caller should actually write plus the error to
// return afterwards. With no fault it returns (n, nil); a short write
// returns (partial, err) with partial < n so the prefix lands on disk the
// way a filling filesystem leaves it.
func CheckDiskWrite(path string, n int) (int, error) {
	partial, err := ArmedDisk().check(DiskWrite, path)
	if err == nil {
		return n, nil
	}
	if partial > n {
		partial = n
	}
	return partial, err
}

// ParseDiskRules parses a disk-rule spec: rules separated by ';', each
// "<errno>@k=v,k=v,..." with errno "enospc" or "eio" and keys op (required),
// path, every (default 1), seed, after, max, partial. Example:
//
//	enospc@op=write,path=node1/store,every=1,max=3,partial=12
func ParseDiskRules(spec string) ([]DiskRule, error) {
	var rules []DiskRule
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, params, _ := strings.Cut(part, "@")
		name = strings.TrimSpace(name)
		if name != "enospc" && name != "eio" {
			return nil, fmt.Errorf("faultinject: unknown disk errno %q (want enospc or eio)", name)
		}
		r := DiskRule{Err: name, Every: 1, Op: -1}
		if err := parseRuleParams(params, func(k, v string) error {
			switch k {
			case "op":
				op, err := ParseDiskOp(v)
				if err != nil {
					return err
				}
				r.Op = op
			case "path":
				r.Path = v
			case "every":
				return parseUintParam(k, v, &r.Every)
			case "seed":
				return parseUintParam(k, v, &r.Seed)
			case "after":
				return parseUintParam(k, v, &r.After)
			case "max":
				return parseUintParam(k, v, &r.Max)
			case "partial":
				n, err := strconv.Atoi(v)
				if err != nil || n < 0 {
					return fmt.Errorf("faultinject: bad partial %q", v)
				}
				r.Partial = n
			default:
				return fmt.Errorf("faultinject: unknown disk rule key %q", k)
			}
			return nil
		}); err != nil {
			return nil, err
		}
		if r.Op < 0 {
			return nil, fmt.Errorf("faultinject: disk rule %q needs op=", part)
		}
		rules = append(rules, r)
	}
	return rules, nil
}
