// Package pipeline is the cycle-level machine model: a detailed front end
// (fetch groups, iL1 lookups under all three addressing styles, the CFR
// translation engine, branch prediction with speculative wrong-path fetch,
// iTLB walk stalls) over a bandwidth/occupancy back end (issue and commit
// width, RUU run-ahead slack, dL1/dTLB/L2/DRAM latencies).
//
// Everything the paper measures lives in the front end, which this model
// simulates instruction by instruction, including the wrong paths fetched
// during the 7 cycles between a misprediction and its resolution — those
// fetches consume iTLB/CFR energy and pollute the iTLB and iL1, exactly the
// effects that separate the paper's schemes on small TLB configurations.
// The back end abstracts the out-of-order core as two clocks:
//
//	frontCycle — when the current fetch group completes (stalls from iL1
//	             misses, page walks, PI-PT serialization, redirects);
//	backCycle  — when the core has consumed everything delivered so far
//	             (issue bandwidth plus exposed memory latency).
//
// The front end may run ahead of the back end by at most the RUU's worth of
// cycles; total execution time is the later of the two clocks. This is the
// "timing model" substitution documented in DESIGN.md: absolute CPI differs
// from sim-outorder, front-end-driven deltas (the paper's subject) are
// modelled directly.
package pipeline

import (
	"fmt"
	"math/bits"
	"time"

	"itlbcfr/internal/addr"
	"itlbcfr/internal/bpred"
	"itlbcfr/internal/cache"
	"itlbcfr/internal/core"
	"itlbcfr/internal/isa"
	"itlbcfr/internal/program"
	"itlbcfr/internal/tlb"
	"itlbcfr/internal/vm"
)

// Config sizes the machine (Table 1 of the paper).
type Config struct {
	FetchWidth  int
	IssueWidth  int
	CommitWidth int
	RUUSize     int
	LSQSize     int

	IL1Style    cache.Style
	IL1         cache.Config
	DL1         cache.Config
	L2          cache.Config
	DRAMLatency int

	DTLB  tlb.Config
	Bpred bpred.Config

	// MLPFactor is the fraction of data-miss latency exposed to the back
	// end (memory-level parallelism hides the rest).
	MLPFactor float64

	// DataCFR enables the paper's future-work extension (§5): a Current
	// Frame Register on the data side, compared HoA-style against every
	// load/store page so dTLB lookups are skipped while data references
	// stay within the current data page.
	DataCFR bool

	// ContextSwitchEvery injects a context switch every N committed
	// instructions over the machine's lifetime — warm-up included; the
	// cadence does not restart at ResetStats (0 = never). Both TLBs flush,
	// the CFR is saved and restored per §3.2, and the pipeline drains (one
	// redirect penalty).
	ContextSwitchEvery uint64

	// RemapEvery injects OS page-remap pressure every N committed
	// instructions over the machine's lifetime, on the same lifetime counter
	// as ContextSwitchEvery (0 = never): a rotating code page is migrated to
	// a new frame, exercising the §3.2 invalidation contract (pinned pages
	// are skipped, exactly as the OS defers moving the CFR-resident page).
	RemapEvery uint64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.FetchWidth < 1 || c.IssueWidth < 1 || c.CommitWidth < 1 {
		return fmt.Errorf("pipeline: non-positive widths")
	}
	if c.RUUSize < c.IssueWidth {
		return fmt.Errorf("pipeline: RUU smaller than issue width")
	}
	for _, cc := range []cache.Config{c.IL1, c.DL1, c.L2} {
		if err := cc.Validate(); err != nil {
			return err
		}
	}
	if err := c.DTLB.Validate(); err != nil {
		return err
	}
	if err := c.Bpred.Validate(); err != nil {
		return err
	}
	if c.MLPFactor < 0 || c.MLPFactor > 1 {
		return fmt.Errorf("pipeline: MLPFactor %v outside [0,1]", c.MLPFactor)
	}
	return nil
}

// Result is one simulation's outcome.
type Result struct {
	Committed uint64 // non-stub instructions executed
	Stubs     uint64 // BOUNDARY stub instructions executed
	Cycles    uint64

	// Front-end structures.
	IL1  cache.Stats
	L2   cache.Stats
	DL1  cache.Stats
	DTLB tlb.Stats

	// Paper accounting.
	Engine           core.Stats
	ITLB             tlb.Stats
	EnergyMJ         float64 // iTLB + CFR energy, millijoules
	Bpred            bpred.Stats
	WrongPathFetches uint64

	// Correct-path page crossings (Table 2).
	CrossBoundary uint64
	CrossBranch   uint64

	// Correct-path dynamic branch statistics (Table 4).
	DynBranches     uint64
	DynAnalyzable   uint64
	DynInPage       uint64 // analyzable with the in-page bit
	DynCrossingBits uint64 // analyzable without the in-page bit

	// Data-side CFR extension (§5 future work).
	DCFRHits    uint64 // dTLB lookups avoided by the data CFR
	DCFRLookups uint64 // dTLB lookups that refilled the data CFR

	// OS-pressure injection (§3.2 contract).
	ContextSwitches uint64
	Remaps          uint64
	RemapsDeferred  uint64 // remaps refused because the page was pinned

	// WallSeconds is the host wall-clock time the producing Run call took —
	// a phase timer for observability, not a simulated quantity. ResetStats
	// zeroes it with the rest of the statistics.
	WallSeconds float64
}

// InstPerSec returns the simulator's own throughput for the producing Run
// call: committed instructions per host wall second.
func (r Result) InstPerSec() float64 {
	if r.WallSeconds <= 0 {
		return 0
	}
	return float64(r.Committed) / r.WallSeconds
}

// IL1MissRate returns the instruction-cache miss rate over fetch accesses.
func (r Result) IL1MissRate() float64 {
	if r.IL1.Accesses == 0 {
		return 0
	}
	return float64(r.IL1.Misses) / float64(r.IL1.Accesses)
}

// IPC returns committed instructions per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Committed) / float64(r.Cycles)
}

// stepBufLen sizes the correct-path step read-ahead buffer: large enough to
// amortize the batched-call and pre-refill snapshot overhead, small enough
// that a checkpoint replays it instantly.
const stepBufLen = 256

// Machine wires one benchmark image to one scheme/style configuration.
type Machine struct {
	cfg    Config
	geom   addr.Geometry
	img    *program.Image
	ex     program.Source
	engine *core.Engine
	space  *vm.AddressSpace
	il1    *cache.Cache
	dl1    *cache.Cache
	l2     *cache.Cache
	dtlb   *tlb.TLB
	pred   *bpred.Predictor

	// Hot-path precomputation: every value below is fixed at construction
	// and replaces a per-instruction switch, division, field chain or method
	// call.
	eager         bool                    // IL1Style is VIPT or PIPT (translate at fetch)
	pipt          bool                    // IL1Style is PIPT
	schemeBase    bool                    // engine scheme is core.Base
	bulk          bool                    // bulkGroups may run: no periodic OS-pressure events configured
	hasDataCFR    bool                    // cfg.DataCFR (§5 extension enabled)
	il1BlockShift uint                    // log2(IL1.BlockBytes)
	invWidth      float64                 // 1 / min(IssueWidth, CommitWidth)
	l2Latency     int                     // cfg.L2.LatencyCycles
	dramLatency   int                     // cfg.DRAMLatency
	mlp           float64                 // cfg.MLPFactor
	walkFn        func(vpn uint64) uint64 // bound m.space.Walk (avoids a per-miss closure)

	// Correct-path step read-ahead. Steps are pulled stepBufLen at a time
	// into stepBuf and consumed from stepPos; srcState holds the source's
	// position captured just before the last refill, so the source always
	// sits one buffer past srcState and the read-ahead is checkpointable.
	stepBuf  []program.Step
	stepPos  int
	srcState program.SourceState

	frontCycle uint64
	backCycle  float64
	cycleBase  uint64 // clock values at the last ResetStats
	backBase   float64
	slack      float64 // RUU run-ahead in cycles

	// Data-side CFR (future-work extension).
	dcfrVPN   uint64
	dcfrPFN   uint64
	dcfrValid bool

	fetchPC    addr.VAddr
	runTarget  uint64 // commit count at which the current Run stops
	sequential bool   // next fetch follows the previous without redirect
	lastBlock  uint64
	haveBlock  bool

	// totalCommitted and totalRemaps count over the machine's whole
	// lifetime, unlike their res counterparts which ResetStats zeroes at the
	// warm-up boundary. The periodic OS-pressure events key off these so
	// their cadence — and the remap page rotation — is a property of the
	// run, not of where the measurement phase starts.
	totalCommitted uint64
	totalRemaps    uint64

	res Result
}

// New builds a machine. The engine must have been constructed over the same
// address space and geometry, and ex must walk the correct path of img
// (program.NewExecutor for synthetic workloads, a trace replay source for
// captured ones). New pulls the first stepBufLen steps from ex.
func New(cfg Config, img *program.Image, ex program.Source,
	engine *core.Engine, space *vm.AddressSpace) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{
		cfg:    cfg,
		geom:   img.Geom,
		img:    img,
		ex:     ex,
		engine: engine,
		space:  space,
		il1:    cache.New(cfg.IL1),
		dl1:    cache.New(cfg.DL1),
		l2:     cache.New(cfg.L2),
		dtlb:   tlb.New(cfg.DTLB),
		pred:   bpred.New(cfg.Bpred),
		slack:  float64(cfg.RUUSize) / float64(cfg.IssueWidth),
	}
	m.eager = cfg.IL1Style == cache.VIPT || cfg.IL1Style == cache.PIPT
	m.pipt = cfg.IL1Style == cache.PIPT
	m.schemeBase = engine.Scheme() == core.Base
	m.bulk = cfg.ContextSwitchEvery == 0 && cfg.RemapEvery == 0
	m.hasDataCFR = cfg.DataCFR
	m.il1BlockShift = uint(bits.TrailingZeros64(uint64(cfg.IL1.BlockBytes)))
	width := cfg.IssueWidth
	if cfg.CommitWidth < width {
		width = cfg.CommitWidth
	}
	m.invWidth = 1 / float64(width)
	m.l2Latency = cfg.L2.LatencyCycles
	m.dramLatency = cfg.DRAMLatency
	m.mlp = cfg.MLPFactor
	m.walkFn = space.Walk
	m.stepBuf = make([]program.Step, stepBufLen)
	m.refill()
	m.fetchPC = img.Entry
	m.sequential = true
	// The OS invalidates the data CFR alongside the dTLB entry when the
	// resident page is remapped, mirroring the instruction-side contract
	// (§3.2).
	space.OnInvalidate(func(vpn uint64) {
		if m.dcfrValid && m.dcfrVPN == vpn {
			m.dcfrValid = false
		}
	})
	return m, nil
}

// physAccess probes a physically-indexed, physically-tagged cache: the dL1
// and the unified L2 always, and (via explicit call sites in fetch) the iL1
// under PI-PT. Index and tag both derive from the same physical address —
// the PIPT index==tag invariant — so this helper is the single place that
// spells cache.Access(pa, pa, ...); routing every physical probe through it
// keeps the invariant from silently drifting if the per-structure addressing
// styles ever diverge.
func physAccess(c *cache.Cache, pa addr.PAddr, write bool) cache.Result {
	return c.Access(uint64(pa), uint64(pa), write)
}

// ResetStats discards all statistics gathered so far (warm-up) while keeping
// microarchitectural state — cache/TLB/predictor contents, the CFR and the
// clocks — intact. The periodic OS-pressure cadences (ContextSwitchEvery,
// RemapEvery) are keyed to the lifetime commit counter and deliberately do
// not restart here: resetting statistics must not move injected events.
func (m *Machine) ResetStats() {
	m.res = Result{}
	m.cycleBase = m.frontCycle
	m.backBase = m.backCycle
	m.il1.ResetStats()
	m.dl1.ResetStats()
	m.l2.ResetStats()
	m.dtlb.ResetStats()
	m.pred.ResetStats()
	m.engine.ResetStats()
}

// Run executes until n non-stub instructions have committed (beyond any
// prior calls) and returns the accumulated result.
func (m *Machine) Run(n uint64) Result {
	t0 := time.Now()
	m.runTarget = n
	for m.res.Committed < n {
		m.stepGroup()
	}
	m.res.WallSeconds += time.Since(t0).Seconds()
	m.res.Cycles = m.frontCycle - m.cycleBase
	if b := uint64(m.backCycle - m.backBase); b > m.res.Cycles {
		m.res.Cycles = b
	}
	m.res.Engine = m.engine.Stats()
	m.res.Bpred = m.pred.Stats()
	m.res.IL1 = m.il1.Stats()
	m.res.L2 = m.l2.Stats()
	m.res.DL1 = m.dl1.Stats()
	m.res.DTLB = m.dtlb.Stats()
	return m.res
}

// fetchInst performs the front-end work for fetching one instruction at pc:
// translation per the engine/style and the iL1 (and L2/DRAM) accesses.
// It returns the stall cycles charged to this fetch group and whether the
// iTLB was consulted.
func (m *Machine) fetchInst(pc addr.VAddr, wrongPath bool) (stall int, usedTLB bool) {
	var pa addr.PAddr
	if m.eager { // VIPT/PIPT translate at fetch
		out := m.engine.FetchTranslate(pc, m.sequential, wrongPath)
		stall += out.StallCycles
		usedTLB = out.UsedTLB
		pa = out.PFN
	} else { // VIVT
		m.engine.OnFetchObserved(pc)
	}

	// One iL1 probe per block touched.
	blk := uint64(pc) >> m.il1BlockShift
	if m.haveBlock && blk == m.lastBlock {
		return stall, usedTLB
	}
	m.lastBlock, m.haveBlock = blk, true

	// VIVT indexes and tags virtually, VIPT indexes virtually and tags
	// physically, PIPT does both physically.
	idx, tag := uint64(pc), uint64(pc)
	if m.eager {
		tag = uint64(pa)
		if m.pipt {
			idx = uint64(pa)
		}
	}
	r := m.il1.Access(idx, tag, false)
	if r.Hit {
		return stall, usedTLB
	}

	// iL1 miss: for VI-VT the translation happens now (Figure 1(c));
	// eager styles already have the physical address.
	if !m.eager {
		out := m.engine.OnIL1Miss(pc, m.sequential, wrongPath)
		stall += out.StallCycles
		usedTLB = usedTLB || out.UsedTLB
		pa = out.PFN
	}
	stall += m.cfg.L2.LatencyCycles
	if lr := physAccess(m.l2, pa, false); !lr.Hit {
		stall += m.cfg.DRAMLatency
	}
	return stall, usedTLB
}

// refill pulls the next stepBufLen correct-path steps into the buffer. It
// captures the source's position first, so Checkpoint can reproduce the
// read-ahead exactly; it is the only code that fills the buffer.
func (m *Machine) refill() {
	m.srcState = m.ex.SnapshotState()
	m.ex.StepN(m.stepBuf)
	m.stepPos = 0
}

// nextStep returns the next correct-path step.
func (m *Machine) nextStep() *program.Step {
	if m.stepPos == stepBufLen {
		m.refill()
	}
	s := &m.stepBuf[m.stepPos]
	m.stepPos++
	return s
}

// chargeGroup closes one fetch group on the front-end clock: the base cycle,
// the group's accumulated stalls, and — under PI-PT — the serialized
// translation cycle when the group consulted the iTLB (or always, under the
// Base scheme, which has no CFR to concatenate from). Every group that
// fetched instructions must be charged through here, whether it ended
// normally, on a redirect, or on a misprediction (§2, Table 8).
func (m *Machine) chargeGroup(groupStall int, groupUsedTLB bool) {
	m.frontCycle += uint64(1 + groupStall)
	if m.pipt && (groupUsedTLB || m.schemeBase) {
		m.frontCycle++
	}
	m.syncBackend()
}

// stepGroup fetches and executes one correct-path fetch group.
func (m *Machine) stepGroup() {
	if m.bulk && m.bulkGroups() {
		return
	}
	groupStall := 0
	groupUsedTLB := false
	redirect := false

	for slot := 0; slot < m.cfg.FetchWidth && !redirect; slot++ {
		if m.res.Committed >= m.runTarget {
			break
		}
		pc := m.fetchPC
		s := m.nextStep()
		if s.PC != pc {
			panic(fmt.Sprintf("pipeline: fetch desynchronized: fetch %#x, oracle %#x",
				uint64(pc), uint64(s.PC)))
		}
		st, used := m.fetchInst(pc, false)
		groupStall += st
		groupUsedTLB = groupUsedTLB || used
		m.sequential = true

		m.accountCommit(s)

		if !s.Inst.Kind.IsCTI() {
			m.fetchPC = s.Next
			continue
		}

		// Branch machinery.
		pred := m.pred.Predict(pc, s.Inst.Kind)
		ck := m.engine.Checkpoint()
		groupStall += m.engine.OnCTIPredicted(pc, s.Inst, pred)
		tookLookup := m.engine.TookLookupAtPred()
		correct := m.pred.Resolve(pc, s.Inst.Kind, pred, s.Taken, s.Next)

		if correct {
			m.fetchPC = s.Next
			if s.Taken {
				// Predicted-taken redirect ends the group.
				m.sequential = false
				redirect = true
			}
			continue
		}

		// Misprediction: finish this group — including its PI-PT
		// serialization cycle, which this group incurred like any other —
		// fetch down the wrong path for the redirect penalty, then squash
		// and restart at the real target.
		m.chargeGroup(groupStall, groupUsedTLB)
		wrongPC := pc + addr.InstBytes
		if pred.Taken {
			wrongPC = pred.Target
		}
		m.runWrongPath(wrongPC, uint64(m.cfg.Bpred.MispredictPenalty))
		m.engine.Restore(ck)
		m.frontCycle += uint64(m.engine.OnCTIResolved(pc, s.Inst, pred, s.Taken, s.Next, true, tookLookup))
		m.fetchPC = s.Next
		m.sequential = false
		m.haveBlock = false
		return
	}

	m.chargeGroup(groupStall, groupUsedTLB)
}

// bulkGroups retires a run of whole fetch groups on a fast path. The run is
// the longest prefix of buffered read-ahead steps that is plain — sequential
// non-CTI, non-stub instructions whose successors stay inside the current
// virtual page — trimmed to whole groups and to the current Run target. Such
// a run cannot redirect, cross a page, touch the predictor, or (with the
// periodic OS-pressure events disabled) mutate the CFR/iTLB under an eager
// style, so the per-fetch engine work collapses into one counter-only
// FetchTranslateRun call and the per-slot work reduces to block fills and
// back-end accounting. Every architectural side effect — cache/TLB state,
// clocks, statistics, energy — is bit-identical to the scalar path; the lazy
// VI-VT style still routes iL1 misses through the ordinary OnIL1Miss event in
// program order so CFR and iTLB state evolve exactly as they would scalar.
// Returns false (having changed nothing) when no full group qualifies.
func (m *Machine) bulkGroups() bool {
	if m.stepPos == stepBufLen {
		m.refill()
	}
	w := m.cfg.FetchWidth
	// Under an eager style nothing retired in bulk can refill or invalidate
	// the CFR, so its frame number is a constant for the whole call. (Unused
	// under VI-VT, where OnIL1Miss translates at misses.)
	cfrPFN := m.engine.CFRState().PFN
	// Loop-invariant hoists: field loads the compiler cannot keep in
	// registers across the accountMem/bulkBlockFill calls below.
	stepBuf := m.stepBuf
	invWidth := m.invWidth
	blockShift := m.il1BlockShift
	did := false
	for {
		avail := stepBufLen - m.stepPos
		if remain := m.runTarget - m.res.Committed; uint64(avail) > remain {
			avail = int(remain)
		}
		if avail < w {
			return did
		}
		i := m.stepPos
		pc := m.fetchPC
		if stepBuf[i].PC != pc {
			// Machine and buffer disagree; the scalar path owns the desync
			// panic.
			return did
		}
		vpn := m.geom.VPN(pc)
		// Qualify a whole page-bounded run of plain steps before touching any
		// state. The Source contract pins each step's PC to the previous
		// step's Next and every plain step's Next to PC+InstBytes, so a run
		// of plain steps starting at pc is w·G sequential instructions; its
		// successors form the contiguous range pc+IB..pc+n·IB, which stays in
		// pc's page iff the endpoint does (pages are power-of-two aligned).
		// The per-slot PC/Next/VPN tests therefore collapse to one run-length
		// bound plus a per-slot plain bit.
		n := avail
		if lim := int((((vpn + 1) << m.geom.PageBits) - 1 - uint64(pc)) / addr.InstBytes); n > lim {
			n = lim
		}
		n -= n % w
		if n < w {
			return did
		}
		q := 0
		for q < n && stepBuf[i+q].Plain {
			q++
		}
		q -= q % w
		if q < w {
			return did
		}
		// The engine's per-fetch work is linear in the count and its qualify
		// condition depends only on CFR state, which nothing retired in bulk
		// can change — one call covers the whole run exactly.
		if !m.engine.FetchTranslateRun(vpn, uint64(q)) {
			return did
		}
		// Each group's back-end accounting runs on a register-resident copy
		// of the clock (bc), written back once per group: the same float
		// additions in the same order as the scalar path — invWidth per
		// instruction, never w·invWidth, interleaved with each memory op's
		// latency, with syncBackend's clamp between groups — so the sum is
		// bit-identical, without a field read-modify-write per slot.
		for g := 0; g < q; g += w {
			groupStall := 0
			bc := m.backCycle
			for k := 0; k < w; k++ {
				s := &stepBuf[i+g+k]
				if blk := uint64(s.PC) >> blockShift; !m.haveBlock || blk != m.lastBlock {
					m.lastBlock, m.haveBlock = blk, true
					groupStall += m.bulkBlockFill(s.PC, cfrPFN)
				}
				// The first instruction after a redirect carries
				// sequential=false into its (possible) VI-VT miss
				// attribution, exactly like the scalar path; every later one
				// is sequential.
				m.sequential = true
				bc += invWidth
				if s.Kind.IsMem() {
					bc = m.accountMem(s, bc)
				}
			}
			m.backCycle = bc
			m.frontCycle += uint64(1 + groupStall)
			m.syncBackend()
		}
		m.res.Committed += uint64(q)
		m.totalCommitted += uint64(q)
		m.stepPos = i + q
		m.fetchPC = pc + addr.VAddr(q)*addr.InstBytes
		did = true
	}
}

// bulkBlockFill charges one iL1 block probe (and any L2/DRAM fill) on the
// bulk path. Eager styles already hold the translation (pfn); the lazy style
// translates at the miss through the ordinary OnIL1Miss event.
func (m *Machine) bulkBlockFill(pc addr.VAddr, pfn uint64) int {
	if m.eager {
		pa := m.geom.Translate(pfn, pc)
		idx := uint64(pc)
		if m.pipt {
			idx = uint64(pa)
		}
		if r := m.il1.Access(idx, uint64(pa), false); r.Hit {
			return 0
		}
		stall := m.l2Latency
		if lr := physAccess(m.l2, pa, false); !lr.Hit {
			stall += m.dramLatency
		}
		return stall
	}
	if r := m.il1.Access(uint64(pc), uint64(pc), false); r.Hit {
		return 0
	}
	out := m.engine.OnIL1Miss(pc, m.sequential, false)
	stall := out.StallCycles + m.l2Latency
	if lr := physAccess(m.l2, out.PFN, false); !lr.Hit {
		stall += m.dramLatency
	}
	return stall
}

// runWrongPath fetches down the mispredicted path for `penalty` cycles.
// Wrong-path instructions consume translation energy and pollute the iTLB
// and iL1, and perturb the predictor's speculative structures — Predict
// pushes and pops the RAS and touches BTB LRU — but never reach resolution,
// so direction counters and BTB contents are not trained by them (matching
// hardware, where bimodal/BTB updates happen at branch resolution).
func (m *Machine) runWrongPath(start addr.VAddr, penalty uint64) {
	deadline := m.frontCycle + penalty
	wp := start
	m.sequential = false
	m.haveBlock = false
	for m.frontCycle < deadline {
		groupStall := 0
		for slot := 0; slot < m.cfg.FetchWidth; slot++ {
			in := m.img.At(wp)
			st, _ := m.fetchInst(wp, true)
			groupStall += st
			m.res.WrongPathFetches++
			m.sequential = true
			if !in.Kind.IsCTI() {
				wp += addr.InstBytes
				continue
			}
			pred := m.pred.Predict(wp, in.Kind)
			m.engine.OnCTIPredicted(wp, in, pred)
			if pred.Taken {
				wp = pred.Target
				m.sequential = false
				break
			}
			wp += addr.InstBytes
		}
		m.frontCycle += uint64(1 + groupStall)
	}
}

// accountCommit charges the back end for one committed instruction and
// maintains the correct-path statistics. The periodic OS-pressure events key
// off the lifetime commit counter, not the resettable statistic, so their
// cadence is unaffected by where the warm-up boundary falls.
func (m *Machine) accountCommit(s *program.Step) {
	if s.Inst.BoundaryStub {
		m.res.Stubs++
	} else {
		m.res.Committed++
		m.totalCommitted++
		if m.cfg.ContextSwitchEvery > 0 && m.totalCommitted%m.cfg.ContextSwitchEvery == 0 {
			m.contextSwitch()
		}
		if m.cfg.RemapEvery > 0 && m.totalCommitted%m.cfg.RemapEvery == 0 {
			m.injectRemap()
		}
	}

	// Back-end bandwidth.
	bc := m.backCycle + m.invWidth

	if s.Kind.IsMem() {
		bc = m.accountMem(s, bc)
	}
	m.backCycle = bc

	// Correct-path page-crossing statistics (Table 2).
	m.accountCross(s)
}

// accountMem charges one memory instruction: dTLB (or data CFR) and the
// dL1/L2/DRAM hierarchy, with MLP-scaled exposed latency. The back-end clock
// is threaded through by value (bc in, updated bc out) so the bulk path can
// keep it in a register across a whole fetch group's memory ops instead of
// re-reading and re-writing the field per op; the float additions happen in
// exactly the order the clock field would have seen them, so the sum is
// bit-identical. Translation layering: the data CFR (when enabled) is
// checked first, and only on a miss the dTLB.
func (m *Machine) accountMem(s *program.Step, bc float64) float64 {
	// With the data-CFR extension enabled, same-page references ride the
	// register instead of the dTLB.
	vpn := m.geom.VPN(s.Data)
	var pa addr.PAddr
	if m.hasDataCFR && m.dcfrValid && m.dcfrVPN == vpn {
		m.res.DCFRHits++
		pa = m.geom.Translate(m.dcfrPFN, s.Data)
	} else {
		tr := m.dtlb.Lookup(vpn, m.walkFn)
		if tr.ExtraCycles != 0 {
			// Skipping the += 0.0 of a hit is exact: adding +0.0 to a
			// non-negative float is the identity.
			bc += float64(tr.ExtraCycles)
		}
		if m.hasDataCFR {
			m.res.DCFRLookups++
			m.dcfrVPN, m.dcfrPFN, m.dcfrValid = vpn, tr.PFN, true
		}
		pa = m.geom.Translate(tr.PFN, s.Data)
	}
	dr := physAccess(m.dl1, pa, s.Kind == isa.Store)
	if !dr.Hit {
		lat := m.l2Latency
		if lr := physAccess(m.l2, pa, dr.WriteBack); !lr.Hit {
			lat += m.dramLatency
		}
		bc += float64(lat) * m.mlp
	}
	return bc
}

// accountCross maintains the page-crossing and dynamic-branch statistics
// (Tables 2 and 4) for one committed instruction.
func (m *Machine) accountCross(s *program.Step) {
	if !m.geom.SamePage(s.PC, s.Next) {
		if s.Next == s.PC+addr.InstBytes || s.Inst.BoundaryStub {
			m.res.CrossBoundary++
		} else {
			m.res.CrossBranch++
		}
	}

	// Dynamic branch statistics (Table 4); stubs are compiler artifacts.
	if s.Inst.Kind.IsCTI() && !s.Inst.BoundaryStub {
		m.res.DynBranches++
		if s.Inst.Kind.IsDirect() {
			m.res.DynAnalyzable++
			if s.Inst.InPage {
				m.res.DynInPage++
			} else {
				m.res.DynCrossingBits++
			}
		}
	}
}

// contextSwitch models the OS taking the core away and handing it back:
// TLBs flush, the CFR survives as saved/restored register state (§3.2), the
// pipeline drains and refills.
func (m *Machine) contextSwitch() {
	m.res.ContextSwitches++
	m.engine.OnContextSwitch()
	m.dtlb.Flush()
	m.dcfrValid = false
	m.frontCycle += uint64(m.cfg.Bpred.MispredictPenalty) // drain/refill
	m.haveBlock = false
	m.sequential = false
}

// injectRemap migrates one code page to a fresh frame, cycling through the
// image. The OS refuses to move the pinned (CFR-resident) page and defers —
// the Denied path of the §3.2 contract.
func (m *Machine) injectRemap() {
	m.res.Remaps++
	m.totalRemaps++
	pages := uint64(m.img.Pages())
	if pages == 0 {
		return
	}
	vpn := m.geom.VPN(m.img.Base) + (m.totalRemaps % pages)
	if _, err := m.space.Remap(vpn); err != nil {
		m.res.RemapsDeferred++
	}
}

// syncBackend enforces the RUU run-ahead window: the front end cannot be
// more than `slack` cycles ahead of the back end, and the back end never
// lags behind what has been delivered.
func (m *Machine) syncBackend() {
	// The two clamps are mutually exclusive (raising backCycle to f-slack
	// cannot push it past f+slack), so else-if is exact and the common
	// no-clamp path costs one conversion and two compares.
	f := float64(m.frontCycle)
	if m.backCycle < f-m.slack {
		m.backCycle = f - m.slack
	} else if m.backCycle > f+m.slack {
		m.frontCycle = uint64(m.backCycle - m.slack)
	}
}

// MachineState is a deep snapshot of everything a Machine owns: its clocks,
// fetch state, statistics, the iL1/dL1/L2/dTLB/predictor contents, and the
// correct-path source position (including the step read-ahead buffer). It
// does NOT cover the components the machine borrows — the engine (CFR), the
// iTLB and the address space belong to the caller, which must snapshot them
// alongside (core.Engine.Snapshot, tlb.TLB.Snapshot, vm.AddressSpace.Snapshot)
// for a complete warm image. The state shares no mutable memory with the
// machine, so one snapshot can seed many machines concurrently.
type MachineState struct {
	frontCycle uint64
	backCycle  float64
	cycleBase  uint64
	backBase   float64

	dcfrVPN   uint64
	dcfrPFN   uint64
	dcfrValid bool

	fetchPC        addr.VAddr
	sequential     bool
	lastBlock      uint64
	haveBlock      bool
	totalCommitted uint64
	totalRemaps    uint64
	res            Result

	il1  *cache.State
	dl1  *cache.State
	l2   *cache.State
	dtlb *tlb.State
	pred *bpred.State

	// Source position: src is the source's position from just before the
	// last buffer refill, and stepPos how far the machine had consumed that
	// buffer. Restore re-runs the refill to rebuild the identical contents.
	src     program.SourceState
	stepPos int
}

// Checkpoint captures the machine's warm state.
func (m *Machine) Checkpoint() *MachineState {
	return &MachineState{
		frontCycle:     m.frontCycle,
		backCycle:      m.backCycle,
		cycleBase:      m.cycleBase,
		backBase:       m.backBase,
		dcfrVPN:        m.dcfrVPN,
		dcfrPFN:        m.dcfrPFN,
		dcfrValid:      m.dcfrValid,
		fetchPC:        m.fetchPC,
		sequential:     m.sequential,
		lastBlock:      m.lastBlock,
		haveBlock:      m.haveBlock,
		totalCommitted: m.totalCommitted,
		totalRemaps:    m.totalRemaps,
		res:            m.res,
		il1:            m.il1.Snapshot(),
		dl1:            m.dl1.Snapshot(),
		l2:             m.l2.Snapshot(),
		dtlb:           m.dtlb.Snapshot(),
		pred:           m.pred.Snapshot(),
		src:            m.srcState,
		stepPos:        m.stepPos,
	}
}

// Restore reinstates a state captured by Checkpoint on a machine built with
// the same configuration, image and source kind. The caller is responsible
// for restoring the borrowed components (engine, iTLB, address space) to the
// matching snapshot — a machine restored without them will desynchronize.
func (m *Machine) Restore(st *MachineState) error {
	if err := m.il1.Restore(st.il1); err != nil {
		return fmt.Errorf("pipeline: iL1: %w", err)
	}
	if err := m.dl1.Restore(st.dl1); err != nil {
		return fmt.Errorf("pipeline: dL1: %w", err)
	}
	if err := m.l2.Restore(st.l2); err != nil {
		return fmt.Errorf("pipeline: L2: %w", err)
	}
	if err := m.dtlb.Restore(st.dtlb); err != nil {
		return fmt.Errorf("pipeline: dTLB: %w", err)
	}
	if err := m.pred.Restore(st.pred); err != nil {
		return fmt.Errorf("pipeline: predictor: %w", err)
	}
	if err := m.ex.RestoreState(st.src); err != nil {
		return fmt.Errorf("pipeline: source: %w", err)
	}
	// Re-run the refill the checkpointed machine had already done; the
	// source is deterministic, so the buffer contents come out identical.
	m.refill()
	m.stepPos = st.stepPos
	m.frontCycle = st.frontCycle
	m.backCycle = st.backCycle
	m.cycleBase = st.cycleBase
	m.backBase = st.backBase
	m.dcfrVPN = st.dcfrVPN
	m.dcfrPFN = st.dcfrPFN
	m.dcfrValid = st.dcfrValid
	m.fetchPC = st.fetchPC
	m.sequential = st.sequential
	m.lastBlock = st.lastBlock
	m.haveBlock = st.haveBlock
	m.totalCommitted = st.totalCommitted
	m.totalRemaps = st.totalRemaps
	m.res = st.res
	return nil
}
