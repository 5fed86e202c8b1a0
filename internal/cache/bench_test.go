package cache

import "testing"

// dl1Config is the default pipeline's dL1 geometry — the cache the data-side
// fast path hammers hardest.
var dl1Config = Config{SizeBytes: 8 << 10, BlockBytes: 32, Assoc: 2, WriteBack: true}

// BenchmarkCacheAccess measures Access under four access patterns:
// back-to-back references into one block, a two-way streaming hit pattern,
// a conflict stream that misses and evicts on nearly every access, and a
// direct-mapped streaming hit pattern. Keeping them visible in one table
// shows where a layout change pays and where it costs.
func BenchmarkCacheAccess(b *testing.B) {
	b.Run("same-block", func(b *testing.B) {
		c := New(dl1Config)
		c.Access(64, 64, false)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Access(64, 72, false)
		}
	})
	b.Run("two-way-hit", func(b *testing.B) {
		c := New(dl1Config)
		// Resident working set: half the cache, touched round-robin so
		// consecutive accesses never share a block but every probe hits.
		const blocks = 128
		for i := uint64(0); i < blocks; i++ {
			c.Access(i*32, i*32, false)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a := uint64(i%blocks) * 32
			c.Access(a, a, false)
		}
	})
	b.Run("miss-evict", func(b *testing.B) {
		c := New(dl1Config)
		// Three-way conflict over a two-way set: every access misses, evicts
		// and (dirty fills) writes back.
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a := uint64(i%3) * (8 << 10)
			c.Access(a, a, true)
		}
	})
	b.Run("direct-mapped-hit", func(b *testing.B) {
		c := New(Config{SizeBytes: 8 << 10, BlockBytes: 32, Assoc: 1})
		const blocks = 128
		for i := uint64(0); i < blocks; i++ {
			c.Access(i*32, i*32, false)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a := uint64(i%blocks) * 32
			c.Access(a, a, false)
		}
	})
}
