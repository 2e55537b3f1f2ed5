// Package counters models the SPUR cache controller's on-chip performance
// counters [Wood87], which made the measurements in the paper possible.
//
// The cache controller contains sixteen 32-bit hardware counters. A mode
// register selects one of four sets of events to be measured; each mode wires
// a different group of sixteen event signals to the counters. Events include
// instruction fetches, processor reads and writes, the number of times each
// reference type misses in the cache, the behaviour of the in-cache address
// translation algorithm, and the Berkeley Ownership coherency protocol.
//
// The simulator raises an Event for everything of interest; the hardware
// counters count only the events selected by the current mode (with 32-bit
// wraparound, as on the chip), while a 64-bit software shadow accumulates
// every event so experiments never lose information. Measurement code reads
// the shadow; the hardware-accurate view exists so the counter subsystem
// itself can be exercised and tested as the paper's instrument.
package counters

import "fmt"

// Event identifies one countable event signal in the cache controller.
type Event int

// The event signals exposed by the simulated cache controller. The grouping
// mirrors the four measurement domains of the real chip: processor
// references, cache misses, in-cache translation, and the virtual-memory /
// coherency events this study added.
const (
	// Processor reference events.
	EvIFetch Event = iota // instruction fetch issued
	EvRead                // processor data read issued
	EvWrite               // processor data write issued

	// Cache miss events, by reference type.
	EvIFetchMiss // instruction fetch missed in the cache
	EvReadMiss   // data read missed in the cache
	EvWriteMiss  // data write missed in the cache

	// In-cache translation events [Wood86].
	EvPTEHit    // first-level PTE found in the cache
	EvPTEMiss   // first-level PTE missed; block fetched
	EvL2Access  // second-level (wired) page table consulted
	EvXlateWalk // translation performed (one per cache miss)

	// Dirty- and reference-bit events (the subject of the paper).
	EvDirtyFault     // necessary dirty-bit fault (first write to a clean page): N_ds
	EvZeroFillFault  // zero-filled page fault: N_zfod
	EvExcessFault    // excess protection fault on a previously cached block (FAULT policy): N_ef
	EvDirtyBitMiss   // dirty-bit miss (SPUR policy refresh of a stale cached dirty bit): N_dm
	EvProtBitMiss    // protection bit miss (the generalized PROT policy's refresh)
	EvDirtyCheck     // PTE dirty-bit check on a write hit to a clean block (WRITE policy)
	EvRefFault       // reference-bit fault (setting the page reference bit)
	EvWriteHitBlock  // block brought in by a read, later modified: N_w-hit
	EvWriteMissBlock // block brought into the cache by a write miss: N_w-miss

	// Virtual-memory events.
	EvPageIn      // page read from backing store
	EvPageOut     // page written to backing store
	EvPageReclaim // page reclaimed by the page daemon
	EvDaemonScan  // page examined by the page daemon
	EvRefClear    // reference bit cleared by the daemon
	EvPageFlush   // page flushed from the cache
	EvBlockFlush  // single cache block flushed

	// Bus / coherency events.
	EvBusRead    // bus read (block fetch)
	EvBusWrite   // bus write (write-back)
	EvInval      // invalidation received by a snooping cache
	EvOwnerShift // ownership transferred between caches

	NumEvents // number of defined events
)

var eventNames = [NumEvents]string{
	"ifetch", "read", "write",
	"ifetch-miss", "read-miss", "write-miss",
	"pte-hit", "pte-miss", "l2-access", "xlate-walk",
	"dirty-fault", "zfod-fault", "excess-fault", "dirty-bit-miss", "prot-bit-miss", "dirty-check",
	"ref-fault", "whit-block", "wmiss-block",
	"page-in", "page-out", "page-reclaim", "daemon-scan", "ref-clear",
	"page-flush", "block-flush",
	"bus-read", "bus-write", "inval", "owner-shift",
}

// String returns the short mnemonic for the event.
func (e Event) String() string {
	if e < 0 || e >= NumEvents {
		return fmt.Sprintf("event(%d)", int(e))
	}
	return eventNames[e]
}

// HardwareCounters is the number of physical counters on the chip.
const HardwareCounters = 16

// NumModes is the number of selectable event sets.
const NumModes = 4

// modeMap wires events to the sixteen hardware counters for each mode.
// Mode 0: processor references and misses. Mode 1: in-cache translation.
// Mode 2: dirty/reference-bit events. Mode 3: VM and bus traffic.
var modeMap = [NumModes][HardwareCounters]Event{
	{EvIFetch, EvRead, EvWrite, EvIFetchMiss, EvReadMiss, EvWriteMiss,
		EvXlateWalk, EvBusRead, EvBusWrite, EvPageIn, EvPageOut, EvDirtyFault,
		EvRefFault, EvPageFlush, EvBlockFlush, EvInval},
	{EvXlateWalk, EvPTEHit, EvPTEMiss, EvL2Access, EvIFetchMiss, EvReadMiss,
		EvWriteMiss, EvBusRead, EvBusWrite, EvIFetch, EvRead, EvWrite,
		EvPageIn, EvPageOut, EvInval, EvOwnerShift},
	{EvDirtyFault, EvZeroFillFault, EvExcessFault, EvDirtyBitMiss, EvDirtyCheck,
		EvRefFault, EvWriteHitBlock, EvWriteMissBlock, EvWrite, EvWriteMiss,
		EvRead, EvReadMiss, EvPageIn, EvPageOut, EvRefClear, EvPageFlush},
	{EvPageIn, EvPageOut, EvPageReclaim, EvDaemonScan, EvRefClear, EvPageFlush,
		EvBlockFlush, EvBusRead, EvBusWrite, EvInval, EvOwnerShift, EvZeroFillFault,
		EvDirtyFault, EvRefFault, EvRead, EvWrite},
}

// wired[mode][event] is the index of the hardware counter that event drives
// under that mode, or the write-only spill slot (index HardwareCounters)
// when the mode does not wire it. It is the inverse of modeMap, precomputed
// once so folding the shadow into the hardware view indexes a table instead
// of scanning all sixteen wirings.
var wired [NumModes][NumEvents]int8

func init() {
	for m := range modeMap {
		for e := range wired[m] {
			wired[m][e] = HardwareCounters
		}
		for i, ev := range modeMap[m] {
			if wired[m][ev] != HardwareCounters {
				// Each event signal reaches at most one counter per mode
				// (a wiring, not a fan-out); the single-index fold is only
				// equivalent to scanning modeMap under this invariant, so
				// a violation must fail at startup.
				panic(fmt.Sprintf("counters: event %v wired twice in mode %d", ev, m))
			}
			//spurlint:ignore countersafe — i indexes the sixteen hardware counters, always within int8
			wired[m][ev] = int8(i)
		}
	}
}

// Set is one cache controller's performance-counter block: sixteen 32-bit
// hardware counters behind a mode register, plus the 64-bit software shadow
// of every event.
//
// Add — called several times per memory reference, the hottest function in
// the simulator — touches only the shadow. The hardware view is derived
// from it lazily: every event raised since the last fold went to the
// counter the current mode wires it to, so folding adds each event's shadow
// growth since mark to that counter, truncated to 32 bits as the chip would
// have counted it. The view is folded whenever it is read or the wiring
// changes (Hardware, SetMode, InjectWraparound), so it is always exactly
// what eager counting would hold.
type Set struct {
	mode int
	// hw has one extra slot beyond the sixteen physical counters: the
	// write-only spill that absorbs events the current mode leaves
	// unwired. It is part of the copied view, so it is folded like any
	// counter.
	hw     [HardwareCounters + 1]uint32
	shadow [NumEvents]uint64
	// mark is the shadow as of the last fold.
	mark [NumEvents]uint64
}

// New returns a counter set in mode 0 with all counters clear.
func New() *Set { return &Set{} }

// Mode returns the current mode-register value.
func (s *Set) Mode() int { return s.mode }

// SetMode selects one of the four event sets. Like the hardware, changing
// the mode does not clear the counters. SetMode panics on an invalid mode;
// the mode register is two bits wide and the simulator never computes it.
func (s *Set) SetMode(mode int) {
	if mode < 0 || mode >= NumModes {
		panic(fmt.Sprintf("counters: invalid mode %d", mode))
	}
	s.fold()
	s.mode = mode
}

// fold brings the hardware view up to date with the shadow under the
// current wiring.
func (s *Set) fold() {
	w := &wired[s.mode]
	for e := range s.shadow {
		if d := s.shadow[e] - s.mark[e]; d != 0 {
			//spurlint:ignore countersafe — the hardware counters are 32-bit by design; wraparound here is the modeled chip behavior the shadow counters exist to repair
			s.hw[w[e]] += uint32(d)
		}
	}
	s.mark = s.shadow
}

// Add raises event e n times.
func (s *Set) Add(e Event, n uint64) { s.shadow[e] += n }

// Inc raises event e once.
func (s *Set) Inc(e Event) { s.shadow[e]++ }

// Hardware returns the value of physical counter i under the current mode.
func (s *Set) Hardware(i int) uint32 {
	s.fold()
	return s.hw[i]
}

// HardwareEvent returns which event physical counter i counts in the current
// mode.
func (s *Set) HardwareEvent(i int) Event { return modeMap[s.mode][i] }

// Count returns the 64-bit software-shadow total for event e.
func (s *Set) Count(e Event) uint64 { return s.shadow[e] }

// InjectWraparound forces every hardware counter to within slack events of
// the 32-bit limit, so the next few events wrap it to near zero. This is the
// fault-injection hook exercising the software shadow: the shadow is
// untouched, so measurements survive the wrap while the hardware-accurate
// view visibly loses 2^32 counts.
func (s *Set) InjectWraparound(slack uint32) {
	s.fold()
	for i := 0; i < HardwareCounters; i++ {
		s.hw[i] = ^uint32(0) - slack
	}
}

// Snapshot returns a copy of the full software shadow, indexed by Event.
func (s *Set) Snapshot() [NumEvents]uint64 { return s.shadow }

// CopyFrom makes s the counter block src is, as a fanout split copies its
// leader's: the mode register, the hardware counters with the spill slot,
// the software shadow, and how far the hardware view has been folded. The
// hardware view is machine state (the chip does not clear on mode
// changes), so the copy reads every counter as src does, including any
// wraparound already suffered.
func (s *Set) CopyFrom(src *Set) {
	s.mode = src.mode
	s.hw = src.hw
	s.shadow = src.shadow
	s.mark = src.mark
}

// Diff returns the per-event difference s - earlier, saturating at zero if
// the earlier snapshot is somehow ahead (it cannot be in normal use).
func Diff(later, earlier [NumEvents]uint64) [NumEvents]uint64 {
	var d [NumEvents]uint64
	for i := range d {
		if later[i] >= earlier[i] {
			d[i] = later[i] - earlier[i]
		}
	}
	return d
}
