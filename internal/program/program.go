// Package program defines the synthetic code image and the architectural
// executor that walks its correct path.
//
// An Image is a flat array of instructions laid out contiguously in virtual
// memory from Base. Everything the paper's mechanisms observe — page
// boundaries, branch targets, the in-page bit — is a function of this layout.
// The Executor interprets the image: control flow follows encoded targets,
// conditional outcomes come from each site's deterministic biased random
// stream, calls and returns use a real call stack, and loads/stores draw
// addresses from per-stream synthetic data generators. The pipeline consumes
// Executor steps as its oracle ("what the program really does") while
// independently fetching — possibly down wrong paths — from the same Image.
package program

import (
	"fmt"

	"itlbcfr/internal/addr"
	"itlbcfr/internal/isa"
	"itlbcfr/internal/xrand"
)

// Image is an executable synthetic code image.
type Image struct {
	Name string
	Base addr.VAddr
	Code []isa.Inst
	Geom addr.Geometry

	// Entry is the address where execution starts (the driver loop).
	Entry addr.VAddr

	// nop backs At() for addresses outside the image (reachable only by
	// wrong-path fetch).
	nop isa.Inst
}

// NewImage wraps code into an image. Entry defaults to Base. The derived
// per-instruction Plain bit is (re)computed here so every constructor path
// agrees with the Kind/BoundaryStub fields it summarizes.
func NewImage(name string, base addr.VAddr, geom addr.Geometry, code []isa.Inst) *Image {
	for i := range code {
		code[i].Plain = !code[i].Kind.IsCTI() && !code[i].BoundaryStub
	}
	im := &Image{Name: name, Base: base, Code: code, Geom: geom, Entry: base}
	im.nop.Plain = true
	return im
}

// Len returns the number of instructions.
func (im *Image) Len() int { return len(im.Code) }

// End returns the first address past the image.
func (im *Image) End() addr.VAddr { return addr.InstAddr(im.Base, len(im.Code)) }

// Contains reports whether pc addresses an instruction of the image.
func (im *Image) Contains(pc addr.VAddr) bool {
	return pc >= im.Base && pc < im.End() && (pc-im.Base)%addr.InstBytes == 0
}

// At returns the instruction at pc. Addresses outside the image decode as a
// harmless IntALU so wrong-path fetch beyond the image never faults; the
// returned pointer must be treated as read-only.
func (im *Image) At(pc addr.VAddr) *isa.Inst {
	if !im.Contains(pc) {
		return &im.nop
	}
	return &im.Code[addr.InstIndex(im.Base, pc)]
}

// Pages returns the number of virtual pages the image spans.
func (im *Image) Pages() int {
	if len(im.Code) == 0 {
		return 0
	}
	first := im.Geom.VPN(im.Base)
	last := im.Geom.VPN(im.End() - 1)
	return int(last-first) + 1
}

// Validate checks that every encoded target lands inside the image on an
// instruction boundary.
func (im *Image) Validate() error {
	for i := range im.Code {
		in := &im.Code[i]
		pc := addr.InstAddr(im.Base, i)
		if in.Kind.IsDirect() {
			if !im.Contains(in.Target) {
				return fmt.Errorf("program %s: %v at %#x targets %#x outside image",
					im.Name, in.Kind, uint64(pc), uint64(in.Target))
			}
		}
		if in.Kind == isa.IndJump {
			if len(in.TargetSet) == 0 {
				return fmt.Errorf("program %s: ijmp at %#x has empty target set", im.Name, uint64(pc))
			}
			for _, tgt := range in.TargetSet {
				if !im.Contains(tgt) {
					return fmt.Errorf("program %s: ijmp at %#x targets %#x outside image",
						im.Name, uint64(pc), uint64(tgt))
				}
			}
		}
	}
	if !im.Contains(im.Entry) {
		return fmt.Errorf("program %s: entry %#x outside image", im.Name, uint64(im.Entry))
	}
	return nil
}

// Step is one architecturally executed instruction.
type Step struct {
	PC    addr.VAddr
	Inst  *isa.Inst
	Taken bool     // CTIs: whether control transferred
	Kind  isa.Kind // copy of Inst.Kind: the pipeline's bulk path reads the
	// kind and plain bits per slot, and the copies keep that read inside the
	// sequentially written step buffer instead of chasing Inst into a code
	// image that may be far larger than the L1 cache.
	Plain bool       // copy of Inst.Plain
	Next  addr.VAddr // address of the next instruction on the correct path
	Data  addr.VAddr // Load/Store: effective data address
}

// SourceState is an opaque deep snapshot of a Source's progress. It must not
// alias mutable source memory: restoring the same state onto several fresh
// sources concurrently must be safe.
type SourceState interface{}

// Source produces the architectural correct-path instruction stream the
// pipeline consumes as its oracle. Executor is the synthetic-workload
// implementation; internal/trace replays stored fetch traces through the
// same contract. Implementations must uphold what the pipeline and the CFR
// engine assume of the correct path: the stream never ends (sources loop),
// PC of each step equals Next of the previous one, and every transition
// where Next is not PC+InstBytes is flagged by a CTI instruction with Taken
// set — a silent non-sequential transition would change pages without
// arming a translation and trip the engine's stale-use detector.
//
// A Source is independent of machine state, so the pipeline may pull steps
// well ahead of what it has consumed, and it is deterministic, so a warm
// machine can be forked: a fresh source built over the same workload and
// restored to a captured position reproduces the exact step sequence the
// original would have produced.
type Source interface {
	// StepN fills dst with the next len(dst) steps.
	StepN(dst []Step)
	// SnapshotState captures the source's current position.
	SnapshotState() SourceState
	// RestoreState rewinds this source to a previously captured position.
	// It fails if the state came from a differently configured source.
	RestoreState(state SourceState) error
}

// DataStreamConfig shapes one synthetic data reference stream.
type DataStreamConfig struct {
	Base addr.VAddr
	// WorkingSetBytes bounds the stream's footprint.
	WorkingSetBytes uint64
	// StrideBytes advances the stream each access.
	StrideBytes uint64
	// JumpProb is the probability of teleporting to a random offset within
	// the working set (breaks spatial locality).
	JumpProb float64
}

// maxCallDepth bounds the call stack against pathological images; the
// generator emits matched call/return pairs so real programs stay far below.
const maxCallDepth = 4096

// Executor interprets an Image along its correct path.
type Executor struct {
	img     *Image
	end     addr.VAddr // cached img.End() for the per-step bounds check
	pc      addr.VAddr
	stack   []addr.VAddr
	rng     *xrand.Source
	streams []dataStream

	steps uint64
}

type dataStream struct {
	cfg DataStreamConfig
	pos uint64

	// Hot-path copies of the configuration, with defaults resolved once.
	ws       uint64
	stride   uint64
	jumpProb float64
	base     addr.VAddr
}

// NewExecutor builds an executor starting at the image entry.
// seed drives branch outcomes, indirect target selection and data streams.
func NewExecutor(img *Image, seed uint64, streams []DataStreamConfig) *Executor {
	ex := &Executor{
		img: img,
		end: img.End(),
		pc:  img.Entry,
		rng: xrand.New(seed ^ 0xA5A5_5A5A_1234_5678),
	}
	if len(streams) == 0 {
		streams = []DataStreamConfig{{
			Base:            0x4000_0000,
			WorkingSetBytes: 1 << 20,
			StrideBytes:     16,
			JumpProb:        0.05,
		}}
	}
	for _, sc := range streams {
		ws := sc.WorkingSetBytes
		if ws == 0 {
			ws = 1 << 16
		}
		ex.streams = append(ex.streams, dataStream{
			cfg: sc, ws: ws, stride: sc.StrideBytes, jumpProb: sc.JumpProb, base: sc.Base,
		})
	}
	return ex
}

// PC returns the address of the next instruction to execute.
func (ex *Executor) PC() addr.VAddr { return ex.pc }

// Steps returns how many instructions have executed.
func (ex *Executor) Steps() uint64 { return ex.steps }

// CallDepth returns the current call-stack depth.
func (ex *Executor) CallDepth() int { return len(ex.stack) }

// Step executes one instruction and returns what happened: a one-slot
// StepN, for callers that walk the correct path outside the pipeline.
func (ex *Executor) Step() Step {
	var st [1]Step
	ex.StepN(st[:])
	return st[0]
}

// StepN executes len(dst) instructions, writing each outcome in place. It is
// the executor's one interpreter: the image, code slice and PC stay in
// locals across the whole batch instead of being reloaded through ex per
// instruction, and the cursor writes back once at the end.
func (ex *Executor) StepN(dst []Step) {
	img := ex.img
	base, end := img.Base, ex.end
	code := img.Code
	pc := ex.pc
	for i := range dst {
		st := &dst[i]
		if pc < base || pc >= end {
			panic(fmt.Sprintf("program %s: correct path escaped image at %#x", img.Name, uint64(pc)))
		}
		in := &code[(pc-base)/addr.InstBytes]
		st.PC = pc
		st.Inst = in
		st.Taken = false
		st.Kind = in.Kind
		st.Plain = in.Plain
		st.Data = 0
		next := pc + addr.InstBytes
		switch in.Kind {
		case isa.CondBranch:
			if ex.rng.Bool(float64(in.TakenBias)) {
				st.Taken = true
				next = in.Target
			}
		case isa.Jump:
			st.Taken = true
			next = in.Target
		case isa.Call:
			st.Taken = true
			next = in.Target
			if len(ex.stack) < maxCallDepth {
				ex.stack = append(ex.stack, pc+addr.InstBytes)
			}
		case isa.Ret:
			st.Taken = true
			if n := len(ex.stack); n > 0 {
				next = ex.stack[n-1]
				ex.stack = ex.stack[:n-1]
			} else {
				// Unmatched return: restart at the entry. The generator
				// emits matched pairs, so this is a safety net.
				next = img.Entry
			}
		case isa.IndJump:
			st.Taken = true
			next = ex.pickIndirect(in)
		case isa.Load, isa.Store:
			st.Data = ex.nextData(int(in.DataStream))
		}
		st.Next = next
		pc = next
	}
	ex.pc = pc
	ex.steps += uint64(len(dst))
}

// executorState is the Executor's SourceState: position, call stack, RNG
// cursor and per-stream data positions. Everything is copied, nothing
// aliased, so a published state can seed many executors concurrently.
type executorState struct {
	pc    addr.VAddr
	stack []addr.VAddr
	rng   uint64
	pos   []uint64
	steps uint64
}

// SnapshotState captures the executor's exact position.
func (ex *Executor) SnapshotState() SourceState {
	s := &executorState{
		pc:    ex.pc,
		stack: append([]addr.VAddr(nil), ex.stack...),
		rng:   ex.rng.State(),
		pos:   make([]uint64, len(ex.streams)),
		steps: ex.steps,
	}
	for i := range ex.streams {
		s.pos[i] = ex.streams[i].pos
	}
	return s
}

// RestoreState rewinds the executor to a position captured by SnapshotState
// on an executor built over the same image, seed and stream configuration.
func (ex *Executor) RestoreState(state SourceState) error {
	s, ok := state.(*executorState)
	if !ok {
		return fmt.Errorf("program: %T is not an executor state", state)
	}
	if len(s.pos) != len(ex.streams) {
		return fmt.Errorf("program: state has %d data streams, executor has %d",
			len(s.pos), len(ex.streams))
	}
	ex.pc = s.pc
	ex.stack = append(ex.stack[:0], s.stack...)
	ex.rng.SetState(s.rng)
	for i := range ex.streams {
		ex.streams[i].pos = s.pos[i]
	}
	ex.steps = s.steps
	return nil
}

// pickIndirect selects an indirect target, skewed toward the first entry so
// the BTB retains usable accuracy (real indirect branches are dominated by
// one hot target).
func (ex *Executor) pickIndirect(in *isa.Inst) addr.VAddr {
	ts := in.TargetSet
	if len(ts) == 1 {
		return ts[0]
	}
	if ex.rng.Bool(0.70) {
		return ts[0]
	}
	return ts[1+ex.rng.Intn(len(ts)-1)]
}

func (ex *Executor) nextData(stream int) addr.VAddr {
	if stream >= len(ex.streams) {
		stream = stream % len(ex.streams)
	}
	ds := &ex.streams[stream]
	if ds.jumpProb > 0 && ex.rng.Bool(ds.jumpProb) {
		ds.pos = ex.rng.Uint64() % ds.ws
	} else {
		// pos stays < ws between calls, so one add plus a rare reduction is
		// exactly (pos+stride) % ws without the per-access integer division.
		ds.pos += ds.stride
		if ds.pos >= ds.ws {
			ds.pos %= ds.ws
		}
	}
	return ds.base + addr.VAddr(ds.pos)
}
