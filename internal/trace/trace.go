// Package trace defines the memory-reference records flowing from the
// workload generators into the simulator, plus a compact binary codec so
// traces can be captured, stored, and replayed.
//
// The paper explains why its authors could not use trace-driven simulation:
// observing enough paging activity needs hundreds of millions of references,
// beyond 1989's ability to store and simulate, which is what pushed them to
// hardware counters. At today's scales the same experiments fit in a
// generated (or recorded) trace, so this reproduction supports both
// streaming generation and record/replay.
package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/addr"
)

// Op is the reference type.
type Op uint8

const (
	// OpIFetch is an instruction fetch.
	OpIFetch Op = iota
	// OpRead is a processor data read.
	OpRead
	// OpWrite is a processor data write.
	OpWrite
)

// String returns the mnemonic.
func (op Op) String() string {
	switch op {
	case OpIFetch:
		return "ifetch"
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// Rec is one memory reference in the global virtual address space.
type Rec struct {
	// PID identifies the process issuing the reference (for reporting;
	// the cache is globally addressed, so no per-process state is kept).
	PID int32
	// Op is the reference type.
	Op Op
	// Addr is the global virtual byte address referenced.
	Addr addr.GVA
}

// Source produces a reference stream. Next returns false when the stream is
// exhausted.
type Source interface {
	Next() (Rec, bool)
}

// BatchSource is a Source that can fill a caller-owned buffer with many
// records per call. The records must be exactly those the same number of
// successive Next calls would have returned — batching changes dispatch
// cost, never the stream — which is what lets the machine runner consume
// buffers while staying bit-identical to per-reference pulls.
type BatchSource interface {
	Source
	// NextBatch fills buf with up to len(buf) records and returns how many
	// it produced. Zero means the stream is exhausted (len(buf) > 0).
	NextBatch(buf []Rec) int
}

// BatchSize is the buffer length the reference loops hand Pump. It
// amortizes the per-reference interface dispatch to one call in a few
// thousand; at 16 bytes a record the buffer is 64 KiB. Smaller buffers
// were not faster: over 22 alternating Table 4.1 runs on a 2-vCPU Intel
// Xeon (Go 1.24.0), 512- and 1024-record batches beat 4096 in 12 and 10.
const BatchSize = 4096

// Pump is the reference loop every consumer of a batch source shares. It
// fills buf from its start and hands f the records a batch at a time until n
// records have been handed over, the source runs dry, or f returns false,
// and returns how many records it handed over. A batch holds at most
// len(buf) records and never straddles a multiple of align (counted from
// the first record of this call; align <= 0 places no bound), so a caller
// that acts every align records finds each of those points at a batch end.
func Pump(src BatchSource, buf []Rec, n, align int64, f func([]Rec) bool) int64 {
	var done int64
	for done < n {
		want := min(n-done, int64(len(buf)))
		if align > 0 {
			want = min(want, align-done%align)
		}
		k := src.NextBatch(buf[:want])
		if k == 0 {
			break
		}
		done += int64(k)
		if !f(buf[:k]) {
			break
		}
	}
	return done
}

// SliceSource replays a fixed slice of records.
type SliceSource struct {
	recs []Rec
	i    int
}

// NewSliceSource returns a Source replaying recs.
func NewSliceSource(recs []Rec) *SliceSource { return &SliceSource{recs: recs} }

// Next implements Source.
func (s *SliceSource) Next() (Rec, bool) {
	if s.i >= len(s.recs) {
		return Rec{}, false
	}
	r := s.recs[s.i]
	s.i++
	return r, true
}

// NextBatch implements BatchSource.
func (s *SliceSource) NextBatch(buf []Rec) int {
	n := copy(buf, s.recs[s.i:])
	s.i += n
	return n
}

// Reset rewinds the source for another replay.
func (s *SliceSource) Reset() { s.i = 0 }

// magic identifies the trace file format.
var magic = [4]byte{'S', 'P', 'T', '1'}

// recSize is the on-disk record size: 4 (pid) + 1 (op) + 8 (addr).
const recSize = 13

// Writer encodes records to a stream.
type Writer struct {
	w     *bufio.Writer
	wrote bool
	n     uint64
}

// NewWriter returns a trace writer over w. The header is emitted lazily on
// the first record (or on Flush).
func NewWriter(w io.Writer) *Writer { return &Writer{w: bufio.NewWriter(w)} }

func (tw *Writer) header() error {
	if tw.wrote {
		return nil
	}
	tw.wrote = true
	_, err := tw.w.Write(magic[:])
	return err
}

// Write appends one record.
func (tw *Writer) Write(r Rec) error {
	if err := tw.header(); err != nil {
		return err
	}
	var buf [recSize]byte
	binary.LittleEndian.PutUint32(buf[0:], uint32(r.PID))
	buf[4] = byte(r.Op)
	binary.LittleEndian.PutUint64(buf[5:], uint64(r.Addr))
	if _, err := tw.w.Write(buf[:]); err != nil {
		return err
	}
	tw.n++
	return nil
}

// Count returns the number of records written.
func (tw *Writer) Count() uint64 { return tw.n }

// Flush completes the stream.
func (tw *Writer) Flush() error {
	if err := tw.header(); err != nil {
		return err
	}
	return tw.w.Flush()
}

// Reader decodes a trace stream and implements BatchSource.
type Reader struct {
	r      *bufio.Reader
	err    error
	header bool
}

// NewReader returns a trace reader over r.
func NewReader(r io.Reader) *Reader { return &Reader{r: bufio.NewReader(r)} }

// Err returns the first error encountered, if any (io.EOF is not an error).
func (tr *Reader) Err() error { return tr.err }

// Next implements Source.
func (tr *Reader) Next() (Rec, bool) {
	if tr.err != nil {
		return Rec{}, false
	}
	if !tr.header {
		var m [4]byte
		if _, err := io.ReadFull(tr.r, m[:]); err != nil {
			tr.fail(err)
			return Rec{}, false
		}
		if m != magic {
			tr.err = fmt.Errorf("trace: bad magic %q", m)
			return Rec{}, false
		}
		tr.header = true
	}
	var buf [recSize]byte
	if _, err := io.ReadFull(tr.r, buf[:]); err != nil {
		tr.fail(err)
		return Rec{}, false
	}
	op := Op(buf[4])
	if op > OpWrite {
		tr.err = fmt.Errorf("trace: bad op %d", buf[4])
		return Rec{}, false
	}
	return Rec{
		PID:  int32(binary.LittleEndian.Uint32(buf[0:])),
		Op:   op,
		Addr: addr.GVA(binary.LittleEndian.Uint64(buf[5:])),
	}, true
}

// NextBatch implements BatchSource: it decodes exactly the records, and
// stops on exactly the error, that successive Next calls would.
func (tr *Reader) NextBatch(buf []Rec) int {
	for i := range buf {
		rec, ok := tr.Next()
		if !ok {
			return i
		}
		buf[i] = rec
	}
	return len(buf)
}

func (tr *Reader) fail(err error) {
	if err == io.EOF {
		return // clean end of stream
	}
	if err == io.ErrUnexpectedEOF {
		tr.err = fmt.Errorf("trace: truncated record")
		return
	}
	tr.err = err
}

// Summary accumulates per-op and footprint statistics over a stream.
type Summary struct {
	Ops    [3]uint64
	Pages  map[addr.GVPN]struct{}
	Blocks map[addr.BlockAddr]struct{}
}

// NewSummary returns an empty summary.
func NewSummary() *Summary {
	return &Summary{
		Pages:  make(map[addr.GVPN]struct{}),
		Blocks: make(map[addr.BlockAddr]struct{}),
	}
}

// Add folds one record into the summary.
func (s *Summary) Add(r Rec) {
	s.Ops[r.Op]++
	s.Pages[r.Addr.Page()] = struct{}{}
	s.Blocks[r.Addr.Block()] = struct{}{}
}

// Total returns the number of records summarized.
func (s *Summary) Total() uint64 { return s.Ops[0] + s.Ops[1] + s.Ops[2] }

// String renders the summary.
func (s *Summary) String() string {
	return fmt.Sprintf("refs=%d (ifetch=%d read=%d write=%d) pages=%d blocks=%d footprint=%.1fMB",
		s.Total(), s.Ops[OpIFetch], s.Ops[OpRead], s.Ops[OpWrite],
		len(s.Pages), len(s.Blocks), float64(len(s.Pages)*addr.PageBytes)/(1<<20))
}
