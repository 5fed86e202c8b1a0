// Package cache models set-associative caches with LRU replacement.
//
// The same structure serves the iL1, dL1 and unified L2 of the paper's
// Table 1. Cache addressing style (VI-VT, VI-PT, PI-PT — §2 of the paper) is
// a property of *how the caller forms the index and tag*, not of the array
// itself, so Access takes the two addresses separately: the pipeline passes
// (virtual, virtual) for VI-VT, (virtual, physical) for VI-PT and
// (physical, physical) for PI-PT.
package cache

import (
	"fmt"
	"strings"
)

// Style enumerates iL1 lookup disciplines (§2).
type Style int

const (
	// VIVT indexes and tags with the virtual address; the iTLB is needed
	// only on a miss (StrongARM-style).
	VIVT Style = iota
	// VIPT indexes with the virtual address and tags with the physical
	// address; the iTLB is probed in parallel on every fetch.
	VIPT
	// PIPT indexes and tags with the physical address; translation
	// serializes before cache indexing.
	PIPT
)

func (s Style) String() string {
	switch s {
	case VIVT:
		return "VI-VT"
	case VIPT:
		return "VI-PT"
	case PIPT:
		return "PI-PT"
	}
	return fmt.Sprintf("style(%d)", int(s))
}

// ParseStyle converts a style name to a Style; dashes are optional and case
// is ignored ("VI-PT", "vipt").
func ParseStyle(s string) (Style, error) {
	switch strings.ToUpper(strings.ReplaceAll(s, "-", "")) {
	case "VIVT":
		return VIVT, nil
	case "VIPT":
		return VIPT, nil
	case "PIPT":
		return PIPT, nil
	}
	return 0, fmt.Errorf("cache: unknown style %q (VI-VT, VI-PT, PI-PT)", s)
}

// Known reports whether s is one of the defined styles.
func (s Style) Known() bool { return s >= VIVT && s <= PIPT }

// MarshalText encodes the style by name, so JSON carries "VI-PT" rather
// than an ordinal that would silently re-map if the constant order changed.
func (s Style) MarshalText() ([]byte, error) {
	if !s.Known() {
		return nil, fmt.Errorf("cache: cannot marshal unknown style %d", int(s))
	}
	return []byte(s.String()), nil
}

// UnmarshalText decodes a style name.
func (s *Style) UnmarshalText(text []byte) error {
	st, err := ParseStyle(string(text))
	if err != nil {
		return err
	}
	*s = st
	return nil
}

// NeedsTranslationEveryFetch reports whether the style consumes a physical
// address on every instruction fetch (the "eager" styles).
func (s Style) NeedsTranslationEveryFetch() bool { return s != VIVT }

// Config describes one cache.
type Config struct {
	SizeBytes  int
	BlockBytes int
	Assoc      int
	// LatencyCycles is the hit latency.
	LatencyCycles int
	// WriteBack enables dirty-bit tracking and write-back victims.
	WriteBack bool
}

// Validate checks the geometry.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.BlockBytes <= 0 || c.Assoc <= 0 {
		return fmt.Errorf("cache: non-positive geometry %+v", c)
	}
	if c.SizeBytes%(c.BlockBytes*c.Assoc) != 0 {
		return fmt.Errorf("cache: size %d not divisible by block*assoc", c.SizeBytes)
	}
	if c.BlockBytes&(c.BlockBytes-1) != 0 {
		return fmt.Errorf("cache: block size %d not a power of two", c.BlockBytes)
	}
	sets := c.SizeBytes / (c.BlockBytes * c.Assoc)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d not a power of two", sets)
	}
	return nil
}

// Sets returns the number of sets.
func (c Config) Sets() int { return c.SizeBytes / (c.BlockBytes * c.Assoc) }

// Line state flags, stored in the high bits of each packed tag word. Block
// numbers are addresses shifted right by blockBits, far below 2^62 for any
// address space this simulator models, so the flags can never collide with
// tag bits.
const (
	validFlag = 1 << 63
	dirtyFlag = 1 << 62
)

// Stats counts cache activity.
type Stats struct {
	Accesses   uint64
	Misses     uint64
	WriteBacks uint64
}

// Cache is a set-associative, LRU, optionally write-back cache.
//
// Line state is held struct-of-arrays — parallel tag and LRU slices indexed
// by set*assoc+way — rather than as a slice of line structs, with the valid
// and dirty bits packed into the high bits of each tag word: a probe touches
// only the dense tag array (8 bytes per way, both ways of a 2-way set on one
// host cache line) and a whole-way match is a single masked compare, which
// keeps more of the simulated cache's directory in the host's cache.
type Cache struct {
	cfg       Config
	sets      int
	assoc     int
	writeBack bool
	blockBits uint
	setMask   uint64

	// Struct-of-arrays line state, indexed set*assoc+way. A tags word is
	// validFlag|dirtyFlag|block-number; a valid clean way holding block b
	// compares equal to b|validFlag after masking off dirtyFlag.
	tags []uint64
	lru  []uint64

	tick  uint64
	stats Stats
}

// New builds a cache, panicking on invalid geometry (a programming error).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	bb := uint(0)
	for b := cfg.BlockBytes; b > 1; b >>= 1 {
		bb++
	}
	n := cfg.Sets() * cfg.Assoc
	return &Cache{
		cfg:       cfg,
		sets:      cfg.Sets(),
		assoc:     cfg.Assoc,
		writeBack: cfg.WriteBack,
		blockBits: bb,
		setMask:   uint64(cfg.Sets() - 1),
		tags:      make([]uint64, n),
		lru:       make([]uint64, n),
	}
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Result describes one access.
type Result struct {
	Hit bool
	// WriteBack reports that a dirty victim was evicted and must be written
	// to the next level.
	WriteBack bool
}

// Access looks up the block containing the address. indexAddr selects the
// set, tagAddr provides the tag (see package comment). On a miss the block is
// filled. write marks the block dirty (for write-back caches).
func (c *Cache) Access(indexAddr, tagAddr uint64, write bool) Result {
	c.stats.Accesses++
	c.tick++
	base := int((indexAddr>>c.blockBits)&c.setMask) * c.assoc
	tb := tagAddr >> c.blockBits
	want := tb | validFlag
	for w := base; w < base+c.assoc; w++ {
		if c.tags[w]&^uint64(dirtyFlag) == want {
			return c.hitWay(w, write)
		}
	}
	victim := base
	for w := base; w < base+c.assoc; w++ {
		if c.tags[w]&validFlag == 0 {
			victim = w
			break
		}
		if c.lru[w] < c.lru[victim] {
			victim = w
		}
	}
	return c.fillWay(victim, tb, write)
}

// hitWay records a hit in way w. The caller has already counted the access
// and advanced the tick.
func (c *Cache) hitWay(w int, write bool) Result {
	c.lru[w] = c.tick
	if write && c.writeBack {
		c.tags[w] |= dirtyFlag
	}
	return Result{Hit: true}
}

// fillWay evicts way w (counting a write-back if it was dirty) and fills it
// with block tb. The caller has already counted the access and advanced the
// tick.
func (c *Cache) fillWay(w int, tb uint64, write bool) Result {
	c.stats.Misses++
	wb := c.tags[w]&(validFlag|dirtyFlag) == validFlag|dirtyFlag
	if wb {
		c.stats.WriteBacks++
	}
	e := tb | validFlag
	if write && c.writeBack {
		e |= dirtyFlag
	}
	c.tags[w] = e
	c.lru[w] = c.tick
	return Result{Hit: false, WriteBack: wb}
}

// Probe reports whether the block is resident without updating LRU or
// filling — used by oracle accounting.
func (c *Cache) Probe(indexAddr, tagAddr uint64) bool {
	base := int((indexAddr>>c.blockBits)&c.setMask) * c.assoc
	want := tagAddr>>c.blockBits | validFlag
	for w := base; w < base+c.assoc; w++ {
		if c.tags[w]&^uint64(dirtyFlag) == want {
			return true
		}
	}
	return false
}

// Flush invalidates every line, returning how many dirty lines were dropped.
func (c *Cache) Flush() int {
	dirty := 0
	for i := range c.tags {
		if c.tags[i]&(validFlag|dirtyFlag) == validFlag|dirtyFlag {
			dirty++
		}
		c.tags[i] = 0
		c.lru[i] = 0
	}
	return dirty
}

// State is a deep snapshot of a cache's contents and statistics, taken with
// Snapshot and reinstated with Restore. It shares no memory with the cache
// it came from, so one snapshot can seed many caches concurrently.
type State struct {
	tags  []uint64
	lru   []uint64
	tick  uint64
	stats Stats
}

// Snapshot captures the cache's full state: every line (tag, valid, dirty,
// LRU), the LRU tick and the statistics.
func (c *Cache) Snapshot() *State {
	return &State{
		tags:  append([]uint64(nil), c.tags...),
		lru:   append([]uint64(nil), c.lru...),
		tick:  c.tick,
		stats: c.stats,
	}
}

// Restore overwrites the cache's state from a snapshot. The snapshot must
// come from an identically configured cache; the state is copied, never
// aliased, so the snapshot stays reusable.
func (c *Cache) Restore(s *State) error {
	if len(s.tags) != len(c.tags) {
		return fmt.Errorf("cache: snapshot has %d lines, cache has %d (geometry mismatch)",
			len(s.tags), len(c.tags))
	}
	copy(c.tags, s.tags)
	copy(c.lru, s.lru)
	c.tick = s.tick
	c.stats = s.stats
	return nil
}

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the counters without touching cache contents (used to
// discard warm-up statistics).
func (c *Cache) ResetStats() { c.stats = Stats{} }

// MissRate returns misses/accesses, 0 when idle.
func (c *Cache) MissRate() float64 {
	if c.stats.Accesses == 0 {
		return 0
	}
	return float64(c.stats.Misses) / float64(c.stats.Accesses)
}

// BlockBytes returns the block size.
func (c *Cache) BlockBytes() int { return c.cfg.BlockBytes }

// SameBlock reports whether two addresses fall in the same cache block.
func (c *Cache) SameBlock(a, b uint64) bool {
	return a>>c.blockBits == b>>c.blockBits
}
