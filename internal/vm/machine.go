// Package vm implements the instruction-level machine the library's kernels
// run on: a functional emulator for the scalar x86-64, AVX2, AVX-512 and
// MQX instruction subsets defined in internal/isa.
//
// Every operation both computes its exact result (so kernels are bit-exact
// and testable against internal/modmath) and appends an SSA-form record to
// an instruction trace. The trace carries value dependencies, so
// internal/sched can compute port pressure and latency critical paths the
// same way LLVM-MCA does in the paper (Listing 4). MQX instructions execute
// with the semantics of Table 2 — the paper's "functional correctness flag"
// — while their *costs* are resolved through the PISA proxies of Table 3.
package vm

import "mqxgo/internal/isa"

// Vec is a 512-bit vector register: eight 64-bit lanes.
type Vec [8]uint64

// Vec4 is a 256-bit AVX2 vector register: four 64-bit lanes.
type Vec4 [4]uint64

// MaskBits is the raw contents of a k mask register (8 bits used).
type MaskBits uint8

// V is an SSA-tracked 512-bit vector value.
type V struct {
	X  Vec
	id int32
}

// V4 is an SSA-tracked 256-bit vector value.
type V4 struct {
	X  Vec4
	id int32
}

// M is an SSA-tracked mask value.
type M struct {
	K  MaskBits
	id int32
}

// S is an SSA-tracked scalar (64-bit general-purpose register) value.
type S struct {
	X  uint64
	id int32
}

// F is an SSA-tracked flag value (carry/borrow or comparison result)
// produced by scalar instructions.
type F struct {
	B  bool
	id int32
}

// Instr is one recorded instruction. Out and In hold SSA value ids; unused
// slots are negative.
type Instr struct {
	Op  isa.Op
	Out [2]int32
	In  [4]int32
}

const noID = int32(-1)

// TraceMode controls how much the machine records.
type TraceMode int

const (
	// TraceFull records the instruction sequence with dependencies and
	// maintains counts. Use for cost analysis of loop bodies.
	TraceFull TraceMode = iota
	// TraceCounts maintains per-op counts only. Use for long functional runs.
	TraceCounts
	// TraceOff records nothing. Fastest functional execution.
	TraceOff
)

// Machine executes and records instructions.
type Machine struct {
	mode       TraceMode
	inPreamble bool

	body   []Instr
	counts map[isa.Op]int64

	bytesLoaded int64
	bytesStored int64

	nextID int32
}

// New returns a machine in the given trace mode. A new machine starts in
// preamble mode: loop-invariant setup (broadcast constants, precomputed
// masks) recorded before BeginLoop is kept out of the steady-state body.
func New(mode TraceMode) *Machine {
	return &Machine{mode: mode, inPreamble: true, counts: make(map[isa.Op]int64)}
}

// BeginLoop marks the end of loop-invariant setup: subsequent instructions
// belong to the steady-state loop body analyzed by internal/sched.
func (m *Machine) BeginLoop() { m.inPreamble = false }

// InLoop reports whether BeginLoop has been called.
func (m *Machine) InLoop() bool { return !m.inPreamble }

// Body returns the recorded steady-state instructions.
func (m *Machine) Body() []Instr { return m.body }

// Counts returns cumulative per-op counts (body + preamble).
func (m *Machine) Counts() map[isa.Op]int64 { return m.counts }

// BytesLoaded returns the bytes loaded by body instructions.
func (m *Machine) BytesLoaded() int64 { return m.bytesLoaded }

// BytesStored returns the bytes stored by body instructions.
func (m *Machine) BytesStored() int64 { return m.bytesStored }

// TotalOps returns the total dynamic instruction count.
func (m *Machine) TotalOps() int64 {
	var n int64
	for _, c := range m.counts {
		n += c
	}
	return n
}

func (m *Machine) newID() int32 {
	id := m.nextID
	m.nextID++
	return id
}

// rec records an instruction with up to two outputs and four inputs and
// returns fresh ids for the outputs.
func (m *Machine) rec(op isa.Op, nOut int, in ...int32) (int32, int32) {
	if m.mode == TraceOff {
		return noID, noID
	}
	m.counts[op]++
	o0, o1 := noID, noID
	if m.mode == TraceFull {
		if nOut > 0 {
			o0 = m.newID()
		}
		if nOut > 1 {
			o1 = m.newID()
		}
		if !m.inPreamble {
			ins := [4]int32{noID, noID, noID, noID}
			copy(ins[:], in)
			m.body = append(m.body, Instr{Op: op, Out: [2]int32{o0, o1}, In: ins})
		}
	}
	return o0, o1
}

func (m *Machine) noteLoad(bytes int64) {
	if !m.inPreamble {
		m.bytesLoaded += bytes
	}
}
func (m *Machine) noteStore(bytes int64) {
	if !m.inPreamble {
		m.bytesStored += bytes
	}
}

// FalseFlag returns a constant clear flag. No instruction is recorded: on
// x86 a cleared carry falls out of instruction selection (ADD vs ADC).
func FalseFlag() F { return F{B: false, id: noID} }
