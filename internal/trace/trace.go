// Package trace records and replays memory traces at the CPU-memory
// interface (loads, stores, cache-line persists, fences, with the
// issuing core), in the spirit of NVMain's trace-driven mode: capture
// a workload once, then replay it against any scheme or machine
// configuration — or import traces produced elsewhere.
//
// The format is line-oriented text, one access per line:
//
//	L <core> <addr-hex> <size>     load
//	S <core> <addr-hex> <size>     store
//	P <core> <addr-hex> <size>     persist (CLWB range + implied data)
//	F <core>                       fence (SFENCE)
//
// Content is not recorded: under counter-mode encryption every write
// costs the same regardless of its bytes, so replay synthesizes
// deterministic data from (address, sequence) and traffic/timing
// results are identical to the original run.
//
// An access size must lie in [1, MaxSize]; the reader rejects any
// other record with an error.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"nvmstar/internal/heap"
)

// Kind is the access type.
type Kind uint8

// Access kinds.
const (
	KindLoad Kind = iota
	KindStore
	KindPersist
	KindFence
)

func (k Kind) letter() byte {
	switch k {
	case KindLoad:
		return 'L'
	case KindStore:
		return 'S'
	case KindPersist:
		return 'P'
	case KindFence:
		return 'F'
	default:
		return '?'
	}
}

// MaxSize bounds the size of one traced access: 1 MiB, twice the
// largest access a built-in workload issues (the array workload's
// 512 KiB set-up persist). Replay materializes loads and stores in a
// buffer of the access size, so an unbounded size from a corrupt or
// hostile trace would otherwise exhaust memory or panic.
const MaxSize = 1 << 20

// Entry is one traced access.
type Entry struct {
	Kind Kind
	Core int
	Addr uint64
	Size int
}

// Writer streams entries to an io.Writer.
type Writer struct {
	bw    *bufio.Writer
	count uint64
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer { return &Writer{bw: bufio.NewWriter(w)} }

// Append writes one entry.
func (w *Writer) Append(e Entry) error {
	w.count++
	var err error
	if e.Kind == KindFence {
		_, err = fmt.Fprintf(w.bw, "F %d\n", e.Core)
	} else {
		_, err = fmt.Fprintf(w.bw, "%c %d %x %d\n", e.Kind.letter(), e.Core, e.Addr, e.Size)
	}
	return err
}

// Count returns the number of entries appended.
func (w *Writer) Count() uint64 { return w.count }

// Flush flushes buffered output.
func (w *Writer) Flush() error { return w.bw.Flush() }

// ReadAll parses a whole trace, skipping blank lines and # comments.
func ReadAll(r io.Reader) ([]Entry, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	var out []Entry
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		e, err := parse(text)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

func parse(text string) (Entry, error) {
	fields := strings.Fields(text)
	if len(fields) == 0 {
		return Entry{}, fmt.Errorf("empty record")
	}
	var e Entry
	switch fields[0] {
	case "L":
		e.Kind = KindLoad
	case "S":
		e.Kind = KindStore
	case "P":
		e.Kind = KindPersist
	case "F":
		e.Kind = KindFence
	default:
		return Entry{}, fmt.Errorf("unknown kind %q", fields[0])
	}
	if e.Kind == KindFence {
		if len(fields) != 2 {
			return Entry{}, fmt.Errorf("fence takes one field, got %d", len(fields)-1)
		}
		core, err := strconv.Atoi(fields[1])
		if err != nil {
			return Entry{}, err
		}
		e.Core = core
		return e, nil
	}
	if len(fields) != 4 {
		return Entry{}, fmt.Errorf("access takes three fields, got %d", len(fields)-1)
	}
	core, err := strconv.Atoi(fields[1])
	if err != nil {
		return Entry{}, err
	}
	addr, err := strconv.ParseUint(fields[2], 16, 64)
	if err != nil {
		return Entry{}, err
	}
	size, err := strconv.Atoi(fields[3])
	if err != nil {
		return Entry{}, err
	}
	if size <= 0 || size > MaxSize {
		return Entry{}, fmt.Errorf("size %d outside [1, %d]", size, MaxSize)
	}
	e.Core, e.Addr, e.Size = core, addr, size
	return e, nil
}

// Recorder wraps a heap.Memory and mirrors every access into a Writer.
// The core is sampled through coreFn at each access (the simulator's
// runner switches cores between operations).
type Recorder struct {
	Inner  heap.Memory
	CoreFn func() int
	W      *Writer
	Err    error // first append error
}

func (t *Recorder) emit(e Entry) {
	if t.Err == nil {
		t.Err = t.W.Append(e)
	}
}

// Load implements heap.Memory.
func (t *Recorder) Load(addr uint64, buf []byte) {
	t.emit(Entry{Kind: KindLoad, Core: t.CoreFn(), Addr: addr, Size: len(buf)})
	t.Inner.Load(addr, buf)
}

// Store implements heap.Memory.
func (t *Recorder) Store(addr uint64, data []byte) {
	t.emit(Entry{Kind: KindStore, Core: t.CoreFn(), Addr: addr, Size: len(data)})
	t.Inner.Store(addr, data)
}

// Persist implements heap.Memory.
func (t *Recorder) Persist(addr uint64, size int) {
	t.emit(Entry{Kind: KindPersist, Core: t.CoreFn(), Addr: addr, Size: size})
	t.Inner.Persist(addr, size)
}

// Fence implements heap.Memory.
func (t *Recorder) Fence() {
	t.emit(Entry{Kind: KindFence, Core: t.CoreFn()})
	t.Inner.Fence()
}

// CoreSetter selects the issuing core before an access is replayed
// (implemented by sim.Machine).
type CoreSetter interface {
	SetCore(core int)
}

// Replay drives every entry through mem. Store data is synthesized
// deterministically from (address, sequence). maxCore bounds the core
// index (entries beyond it wrap), letting a trace from an 8-core run
// replay on a smaller machine. An access whose size lies outside
// [1, MaxSize] is an error, as it is for the reader.
func Replay(mem heap.Memory, cs CoreSetter, entries []Entry, maxCore int) error {
	if maxCore <= 0 {
		return fmt.Errorf("trace: maxCore must be positive")
	}
	buf := make([]byte, 0, 256)
	for seq, e := range entries {
		if e.Kind != KindFence && (e.Size <= 0 || e.Size > MaxSize) {
			return fmt.Errorf("trace: entry %d: size %d outside [1, %d]", seq, e.Size, MaxSize)
		}
		cs.SetCore(e.Core % maxCore)
		switch e.Kind {
		case KindLoad:
			if cap(buf) < e.Size {
				buf = make([]byte, e.Size)
			}
			mem.Load(e.Addr, buf[:e.Size])
		case KindStore:
			if cap(buf) < e.Size {
				buf = make([]byte, e.Size)
			}
			b := buf[:e.Size]
			fill := byte(e.Addr>>6) ^ byte(seq)
			for i := range b {
				b[i] = fill ^ byte(i)
			}
			mem.Store(e.Addr, b)
		case KindPersist:
			mem.Persist(e.Addr, e.Size)
		case KindFence:
			mem.Fence()
		}
	}
	return nil
}
