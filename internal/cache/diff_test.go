package cache

import (
	"testing"
)

// refCache is a deliberately naive array-of-structs reference model of the
// cache: one struct per line, linear probe, linear victim search. It encodes
// the replacement contract (hit → LRU stamp; victim = first invalid way,
// else strictly-minimum LRU with ties to the lowest way) without the
// production layout trick of packed tag words, so the fuzz target below can
// check that the struct-of-arrays Cache is a pure re-layout.
type refLine struct {
	valid, dirty bool
	tag, lru     uint64
}

type refCache struct {
	cfg       Config
	blockBits uint
	setMask   uint64
	assoc     int
	lines     []refLine
	tick      uint64
	stats     Stats
}

func newRef(cfg Config) *refCache {
	bb := uint(0)
	for b := cfg.BlockBytes; b > 1; b >>= 1 {
		bb++
	}
	return &refCache{
		cfg:       cfg,
		blockBits: bb,
		setMask:   uint64(cfg.Sets() - 1),
		assoc:     cfg.Assoc,
		lines:     make([]refLine, cfg.Sets()*cfg.Assoc),
	}
}

func (c *refCache) access(indexAddr, tagAddr uint64, write bool) Result {
	ib := indexAddr >> c.blockBits
	tb := tagAddr >> c.blockBits
	c.stats.Accesses++
	c.tick++
	base := int(ib&c.setMask) * c.assoc
	set := c.lines[base : base+c.assoc]
	for i := range set {
		if set[i].valid && set[i].tag == tb {
			set[i].lru = c.tick
			if write && c.cfg.WriteBack {
				set[i].dirty = true
			}
			return Result{Hit: true}
		}
	}
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	c.stats.Misses++
	wb := set[victim].valid && set[victim].dirty
	if wb {
		c.stats.WriteBacks++
	}
	set[victim] = refLine{valid: true, dirty: write && c.cfg.WriteBack, tag: tb, lru: c.tick}
	return Result{Hit: false, WriteBack: wb}
}

func (c *refCache) probe(indexAddr, tagAddr uint64) bool {
	ib := indexAddr >> c.blockBits
	tb := tagAddr >> c.blockBits
	base := int(ib&c.setMask) * c.assoc
	for _, ln := range c.lines[base : base+c.assoc] {
		if ln.valid && ln.tag == tb {
			return true
		}
	}
	return false
}

// fuzzConfigs spans direct-mapped, two-way and four-way geometries, with and
// without write-back. Small caches so a one-byte address stream produces
// conflicts, evictions and write-backs.
var fuzzConfigs = []Config{
	{SizeBytes: 256, BlockBytes: 16, Assoc: 1, WriteBack: true},
	{SizeBytes: 256, BlockBytes: 16, Assoc: 2, WriteBack: true},
	{SizeBytes: 256, BlockBytes: 16, Assoc: 2, WriteBack: false},
	{SizeBytes: 512, BlockBytes: 32, Assoc: 4, WriteBack: true},
}

// runDiff drives one op stream through the production cache and the
// reference, failing on the first divergence. Ops are 3 bytes: index
// address, tag address (decoupled, as VI-PT callers decouple them), flags.
func runDiff(t *testing.T, data []byte) {
	if len(data) < 1 {
		return
	}
	cfg := fuzzConfigs[int(data[0])%len(fuzzConfigs)]
	c := New(cfg)
	r := newRef(cfg)
	for i := 1; i+2 < len(data); i += 3 {
		ia := uint64(data[i]) * 8
		ta := uint64(data[i+1]) * 8
		write := data[i+2]&1 != 0
		if data[i+2]&2 != 0 {
			ta = ia // same-address ops give back-to-back same-block hits
		}
		got := c.Access(ia, ta, write)
		want := r.access(ia, ta, write)
		if got != want {
			t.Fatalf("op %d: Access(%#x, %#x, %v) = %+v, reference %+v",
				i/3, ia, ta, write, got, want)
		}
		if gp, wp := c.Probe(ia, ta), r.probe(ia, ta); gp != wp {
			t.Fatalf("op %d: Probe(%#x, %#x) = %v, reference %v", i/3, ia, ta, gp, wp)
		}
	}
	if got, want := c.Stats(), r.stats; got != want {
		t.Fatalf("stats diverge: %+v, reference %+v", got, want)
	}
}

// FuzzAccessMatchesReference asserts the packed struct-of-arrays cache and
// the scalar array-of-structs reference produce identical Results, Probe
// answers and Stats on arbitrary access streams.
func FuzzAccessMatchesReference(f *testing.F) {
	f.Add([]byte{0, 10, 10, 1, 10, 10, 0, 42, 42, 3})
	f.Add([]byte{1, 0, 0, 0, 128, 128, 1, 0, 64, 0, 0, 0, 2})
	f.Add([]byte{3, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Fuzz(runDiff)
}

// TestAccessMatchesReferenceSweep is the deterministic always-on slice of the
// fuzz target: a fixed LCG stream long enough to cycle every config through
// hits, misses, evictions and write-backs.
func TestAccessMatchesReferenceSweep(t *testing.T) {
	for seed := range fuzzConfigs {
		data := make([]byte, 1+3*4096)
		data[0] = byte(seed)
		x := uint32(seed)*2654435761 + 12345
		for i := 1; i < len(data); i++ {
			x = x*1664525 + 1013904223
			data[i] = byte(x >> 24)
		}
		runDiff(t, data)
	}
}

// TestRestoreGeometryMismatch pins the Restore error contract: a snapshot
// only fits an identically shaped cache.
func TestRestoreGeometryMismatch(t *testing.T) {
	s := New(Config{SizeBytes: 256, BlockBytes: 16, Assoc: 2}).Snapshot()
	bigger := New(Config{SizeBytes: 512, BlockBytes: 16, Assoc: 2})
	if err := bigger.Restore(s); err == nil {
		t.Fatal("restoring a 256B snapshot into a 512B cache succeeded")
	}
	same := New(Config{SizeBytes: 256, BlockBytes: 16, Assoc: 2})
	if err := same.Restore(s); err != nil {
		t.Fatalf("restoring into an identical geometry failed: %v", err)
	}
}

// TestSnapshotRestoreFidelity checks that a restored cache is observationally
// identical to the snapshotted one — dirty bits (write-back results), LRU
// order (victim choice) and statistics all carry over, and the snapshot is
// not aliased by the restored cache.
func TestSnapshotRestoreFidelity(t *testing.T) {
	cfg := Config{SizeBytes: 256, BlockBytes: 16, Assoc: 2, WriteBack: true}
	warm := func(c *Cache) {
		// Dirty some lines and skew the LRU order so the tail below exercises
		// both write-back eviction and LRU-sensitive victim choice.
		for i := uint64(0); i < 64; i++ {
			c.Access(i*16, i*16, i%3 == 0)
		}
		c.Access(0, 0, true)
	}
	a := New(cfg)
	warm(a)
	snap := a.Snapshot()

	b := New(cfg)
	if err := b.Restore(snap); err != nil {
		t.Fatal(err)
	}
	tail := func(c *Cache) []Result {
		var rs []Result
		for i := uint64(0); i < 96; i++ {
			rs = append(rs, c.Access(i*48, i*48, i%2 == 0))
		}
		return rs
	}
	ra, rb := tail(a), tail(b)
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatalf("op %d after restore: %+v, original %+v", i, rb[i], ra[i])
		}
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("stats diverge after restore: %+v vs %+v", b.Stats(), a.Stats())
	}

	// The tail above mutated b; the snapshot must still reinstate the
	// original state (copied, never aliased).
	c2 := New(cfg)
	if err := c2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	b2 := New(cfg)
	if err := b2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 32; i++ {
		if r1, r2 := c2.Access(i*80, i*80, false), b2.Access(i*80, i*80, false); r1 != r2 {
			t.Fatalf("snapshot aliased: second restore diverges at op %d", i)
		}
	}
}
