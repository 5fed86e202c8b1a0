package trace

import (
	"crypto/sha256"
	"fmt"
	"io"

	"itlbcfr/internal/addr"
	"itlbcfr/internal/compiler"
	"itlbcfr/internal/isa"
	"itlbcfr/internal/program"
)

// maxIndirectTargets bounds the reconstructed target set of one indirect
// site; targets beyond the cap are dropped from the set (they still replay
// — the set only feeds image validation and wrong-path plausibility).
const maxIndirectTargets = 8

// site accumulates what the trace reveals about one branch PC.
type site struct {
	taken    uint64
	notTaken uint64
	targets  []uint64 // distinct taken targets, insertion order
}

func (s *site) addTarget(t uint64) {
	for _, x := range s.targets {
		if x == t {
			return
		}
	}
	if len(s.targets) < maxIndirectTargets {
		s.targets = append(s.targets, t)
	}
}

// Replay drives a stored trace through the pipeline as a program.Source.
//
// Construction makes two streaming passes over the canonical bytes. Pass 1
// reconstructs a code image from the observed footprint: every non-branch
// PC becomes an IntALU slot, every branch site is classified from its
// outcomes (one taken target with fall-throughs → CondBranch, always-taken
// single target → Jump, several targets → IndJump), and the image is
// compiled with BOUNDARY stubs when the scheme needs them — the same pass
// the synthetic workloads get. Pass 2 (StepN) replays the records through
// the relocation map, synthesizing the stub steps the compiler inserted
// between old-sequential neighbors and, at end of trace, one Jump back to
// the first record so the source loops forever as the contract requires.
type Replay struct {
	img   *program.Image
	amap  *compiler.AddrMap
	open  func() (io.ReadCloser, error)
	stats Stats

	rc  io.ReadCloser
	rd  *Reader
	cur Rec

	first    Rec
	entry    addr.VAddr
	wrapInst isa.Inst

	stubPC   addr.VAddr
	stubNext addr.VAddr

	wraps    uint64
	produced uint64 // total steps handed out, including synthesized stubs/wraps
}

// NewReplay builds a Replay. open must return a fresh canonical-binary
// stream on every call (a content-addressed store file). When wantKey is
// non-empty, pass 1 verifies the stream's SHA-256 content address against
// it, so a corrupted store file fails loudly here instead of desyncing the
// replay later. stubs selects BOUNDARY-stub compilation (scheme-dependent).
func NewReplay(open func() (io.ReadCloser, error), wantKey string, geom addr.Geometry, stubs bool) (*Replay, error) {
	if open == nil {
		return nil, fmt.Errorf("trace: replay needs an open function")
	}
	r := &Replay{open: open}
	if err := r.build(wantKey, geom, stubs); err != nil {
		return nil, err
	}
	if err := r.rewind(); err != nil {
		return nil, err
	}
	return r, nil
}

// Image returns the compiled image the replay executes — hand it to
// pipeline.New alongside the Replay itself.
func (r *Replay) Image() *program.Image { return r.img }

// TraceStats returns the pass-1 census of the trace.
func (r *Replay) TraceStats() Stats { return r.stats }

// Wraps reports how many times the replay has looped back to the first
// record.
func (r *Replay) Wraps() uint64 { return r.wraps }

// Close releases the open stream. The pipeline never calls this; sim.Run
// does after the machine finishes.
func (r *Replay) Close() error {
	if r.rc != nil {
		err := r.rc.Close()
		r.rc = nil
		return err
	}
	return nil
}

// build is pass 1: validate, hash, census, reconstruct, compile.
func (r *Replay) build(wantKey string, geom addr.Geometry, stubs bool) error {
	rc, err := r.open()
	if err != nil {
		return err
	}
	defer rc.Close()
	h := sha256.New()
	rd, err := NewReader(io.TeeReader(rc, h))
	if err != nil {
		return err
	}

	sites := make(map[uint64]*site)
	var st Stats
	var prev, first, last Rec
	for {
		rec, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if st.Instructions == 0 {
			first = rec
			st.MinPC, st.MaxPC = rec.PC, rec.PC
		} else {
			if err := checkTransition(prev, rec); err != nil {
				return err
			}
			if rec.PC < st.MinPC {
				st.MinPC = rec.PC
			}
			if rec.PC > st.MaxPC {
				st.MaxPC = rec.PC
			}
		}
		if span := st.MaxPC - st.MinPC; span > MaxSpanBytes {
			return formatErrf("code footprint %d bytes exceeds the %d-byte limit", span, MaxSpanBytes)
		}
		st.Instructions++
		if rec.Branch {
			st.Branches++
			sp := sites[rec.PC]
			if sp == nil {
				sp = &site{}
				sites[rec.PC] = sp
			}
			if rec.Taken {
				sp.taken++
			} else {
				sp.notTaken++
			}
		}
		if rec.Taken {
			st.Taken++
		}
		if st.Instructions > 1 && prev.Taken {
			sites[prev.PC].addTarget(rec.PC)
		}
		last, prev = rec, rec
	}
	if st.Instructions == 0 {
		return formatErrf("empty trace (no records)")
	}
	if wantKey != "" {
		got := fmt.Sprintf("t%d-%x", SchemaVersion, h.Sum(nil))
		if got != wantKey {
			return fmt.Errorf("trace: content address mismatch: stream hashes to %s, expected %s (corrupt store object?)", got, wantKey)
		}
	}
	// The final record's own behavior is replaced by the wrap-around jump,
	// so a trace ending on a taken branch whose target was never observed
	// does not need that target in the image.
	r.stats = st
	r.first = first

	base := geom.PageBase(addr.VAddr(st.MinPC))
	slots := int((st.MaxPC-uint64(base))/addr.InstBytes) + 1
	code := make([]isa.Inst, slots) // zero value = IntALU
	for pc, sp := range sites {
		code[(pc-uint64(base))/addr.InstBytes] = classify(addr.VAddr(pc), sp)
	}
	img := program.NewImage("trace", base, geom, code)
	img.Entry = addr.VAddr(first.PC)

	compiled, amap, _, err := compiler.CompileWithMap(img, compiler.Options{InsertBoundaryStubs: stubs})
	if err != nil {
		return err
	}
	r.img = compiled
	r.amap = amap
	r.entry = amap.Map(addr.VAddr(first.PC))
	r.wrapInst = isa.Inst{
		Kind:   isa.Jump,
		Target: r.entry,
		InPage: geom.SamePage(amap.Map(addr.VAddr(last.PC)), r.entry),
	}
	return nil
}

// classify turns one observed branch site into an instruction.
func classify(pc addr.VAddr, sp *site) isa.Inst {
	switch {
	case len(sp.targets) == 0:
		// Never seen taken (or its only taken occurrence ended the trace):
		// a conditional that falls through. Target self-fall-through keeps
		// the image valid without inventing control flow.
		return isa.Inst{Kind: isa.CondBranch, Target: pc + addr.InstBytes, TakenBias: 0}
	case len(sp.targets) == 1 && sp.notTaken > 0:
		bias := float64(sp.taken) / float64(sp.taken+sp.notTaken)
		return isa.Inst{Kind: isa.CondBranch, Target: addr.VAddr(sp.targets[0]), TakenBias: float32(bias)}
	case len(sp.targets) == 1:
		return isa.Inst{Kind: isa.Jump, Target: addr.VAddr(sp.targets[0]), TakenBias: 1}
	default:
		ts := make([]addr.VAddr, len(sp.targets))
		for i, t := range sp.targets {
			ts[i] = addr.VAddr(t)
		}
		return isa.Inst{Kind: isa.IndJump, TargetSet: ts, TakenBias: 1}
	}
}

// rewind (re)opens the stream and positions cur on the first record.
func (r *Replay) rewind() error {
	if r.rc != nil {
		r.rc.Close()
		r.rc = nil
	}
	rc, err := r.open()
	if err != nil {
		return err
	}
	rd, err := NewReader(rc)
	if err != nil {
		rc.Close()
		return err
	}
	cur, err := rd.Next()
	if err != nil {
		rc.Close()
		return fmt.Errorf("trace: rewinding: %w", err)
	}
	r.rc, r.rd, r.cur = rc, rd, cur
	return nil
}

// StepN implements program.Source. Pass 1 validated the whole stream and
// its content address, so decode or contract errors here mean the backing
// file changed mid-run; they panic like the pipeline's own desync check.
func (r *Replay) StepN(dst []program.Step) {
	for i := range dst {
		dst[i] = r.step()
	}
	r.produced += uint64(len(dst))
}

// replayState is the Replay's SourceState. A replay's position is fully
// determined by how many steps it has produced — stub interleaving, wrap
// jumps and the reader cursor all replay deterministically from the start —
// so the snapshot is a single counter and restore is rewind + fast-forward.
type replayState struct {
	produced uint64
}

// SnapshotState captures the replay position.
func (r *Replay) SnapshotState() program.SourceState {
	return &replayState{produced: r.produced}
}

// RestoreState repositions the replay at a previously captured position. The
// state carries no stream data, so it can seed any replay built over the same
// trace. Restoring an earlier position (or onto a fresh replay) re-reads the
// stream from the start.
func (r *Replay) RestoreState(state program.SourceState) error {
	s, ok := state.(*replayState)
	if !ok {
		return fmt.Errorf("trace: %T is not a replay state", state)
	}
	if s.produced < r.produced {
		if err := r.rewind(); err != nil {
			return err
		}
		r.stubPC, r.stubNext = 0, 0
		r.wraps = 0
		r.produced = 0
	}
	for ; r.produced < s.produced; r.produced++ {
		r.step()
	}
	return nil
}

func (r *Replay) step() program.Step {
	if r.stubPC != 0 {
		in := r.img.At(r.stubPC)
		if !in.BoundaryStub {
			panic(fmt.Sprintf("trace: expected BOUNDARY stub at %#x", uint64(r.stubPC)))
		}
		st := program.Step{PC: r.stubPC, Inst: in, Taken: true, Kind: in.Kind, Plain: in.Plain, Next: r.stubNext}
		r.stubPC, r.stubNext = 0, 0
		return st
	}

	cur := r.cur
	pcN := r.amap.Map(addr.VAddr(cur.PC))
	nx, err := r.rd.Next()
	if err == io.EOF {
		// End of trace: the last record becomes a synthetic jump back to
		// the entry, so the page change is a CTI event every scheme can
		// arm a translation for — never a silent teleport.
		r.wraps++
		if err := r.rewind(); err != nil {
			panic(fmt.Sprintf("trace: %v", err))
		}
		return program.Step{PC: pcN, Inst: &r.wrapInst, Taken: true, Kind: r.wrapInst.Kind, Plain: r.wrapInst.Plain, Next: r.entry}
	}
	if err != nil {
		panic(fmt.Sprintf("trace: replay desynchronized from validated stream: %v", err))
	}
	if err := checkTransition(cur, nx); err != nil {
		panic(fmt.Sprintf("trace: replay desynchronized from validated stream: %v", err))
	}
	r.cur = nx

	in := r.img.At(pcN)
	st := program.Step{PC: pcN, Inst: in, Taken: cur.Taken, Kind: in.Kind, Plain: in.Plain}
	nxN := r.amap.Map(addr.VAddr(nx.PC))
	if cur.Taken {
		st.Next = nxN
		return st
	}
	if nxN != pcN+addr.InstBytes {
		// The compiler inserted a stub between these old-sequential
		// neighbors; replay it as its own step, exactly as the synthetic
		// executor walks through it.
		r.stubPC, r.stubNext = pcN+addr.InstBytes, nxN
		st.Next = r.stubPC
		return st
	}
	st.Next = nxN
	return st
}
