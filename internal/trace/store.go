package trace

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"

	"itlbcfr/internal/addr"
	"itlbcfr/internal/fsutil"
)

// SchemaVersion stamps trace keys ("t<version>-<sha256>") and meta files,
// mirroring internal/store's discipline: bump it when the canonical
// encoding or Meta layout changes meaning, and old objects become
// unreachable rather than misread.
const SchemaVersion = 1

// keyRE matches a well-formed trace key. Resolution validates against it
// before touching the filesystem, so a hostile "name" can never traverse
// paths.
var keyRE = regexp.MustCompile(`^t[0-9]+-[0-9a-f]{64}$`)

// nameRE constrains upload aliases to filesystem- and URL-safe tokens.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$`)

// Stats summarizes one trace's content, gathered during ingest.
type Stats struct {
	Instructions uint64 `json:"instructions"`
	Branches     uint64 `json:"branches"`
	Taken        uint64 `json:"taken"`
	MinPC        uint64 `json:"min_pc"`
	MaxPC        uint64 `json:"max_pc"`
	// Pages counts distinct 4 KiB pages touched (the default geometry;
	// page-size sweeps recompute their own footprints at simulation time).
	Pages int `json:"pages"`
}

// SpanBytes is the trace's code footprint.
func (s Stats) SpanBytes() uint64 {
	if s.Instructions == 0 {
		return 0
	}
	return s.MaxPC - s.MinPC + addr.InstBytes
}

// Meta is the stored description of one trace, kept as a sidecar JSON file
// next to the canonical bytes.
type Meta struct {
	Schema int    `json:"schema"`
	Key    string `json:"key"`
	Bytes  int64  `json:"bytes"` // canonical binary size
	Stats  Stats  `json:"stats"`
}

// Bench returns the workload name a simulation request uses to run this
// trace: "trace:" plus the content key. It is stable across aliases, so
// cached results always carry one canonical identity.
func (m Meta) Bench() string { return "trace:" + m.Key }

// StoreStats counts store activity plus the current registry size.
type StoreStats struct {
	Ingested     uint64 `json:"ingested"`
	Deduped      uint64 `json:"deduped"`
	IngestErrors uint64 `json:"ingest_errors"`
	Count        int    `json:"count"`
	Bytes        int64  `json:"bytes"`
}

// Store is a disk-backed, content-addressed trace store. Layout mirrors
// internal/store: objects shard by the last two key characters
// (<dir>/<shard>/<key>.itrc plus <key>.meta.json), writes are temp-file +
// rename atomic, and names/<alias>.json files map human aliases to keys.
// It is safe for concurrent use.
type Store struct {
	dir string

	mu    sync.Mutex
	stats StoreStats
}

// OpenStore prepares dir as a trace store, creating it if needed.
func OpenStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("trace: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) path(key string) string {
	shard := key
	if len(key) > 2 {
		shard = key[len(key)-2:]
	}
	return filepath.Join(s.dir, shard, key+".itrc")
}

func (s *Store) metaPath(key string) string {
	return strings.TrimSuffix(s.path(key), ".itrc") + ".meta.json"
}

func (s *Store) namePath(alias string) string {
	return filepath.Join(s.dir, "names", alias+".json")
}

func (s *Store) count(f func(*StoreStats)) {
	s.mu.Lock()
	f(&s.stats)
	s.mu.Unlock()
}

// Ingest streams one upload (binary or NDJSON, sniffed), validates every
// record and transition, re-encodes to the canonical binary form, and
// installs it under its content key. The second return is false when an
// identical trace was already stored (the upload deduped). The input is
// never buffered whole: records stream through a fixed-size window into a
// temp file while the hash and statistics accumulate.
func (s *Store) Ingest(r io.Reader) (Meta, bool, error) {
	m, created, err := s.ingest(r)
	if err != nil {
		s.count(func(st *StoreStats) { st.IngestErrors++ })
		return Meta{}, false, err
	}
	s.count(func(st *StoreStats) {
		st.Ingested++
		if !created {
			st.Deduped++
		}
	})
	return m, created, nil
}

func (s *Store) ingest(r io.Reader) (Meta, bool, error) {
	rr, err := SniffReader(r)
	if err != nil {
		return Meta{}, false, err
	}
	tmp, err := os.CreateTemp(s.dir, ".ingest-*")
	if err != nil {
		return Meta{}, false, fmt.Errorf("trace: %w", err)
	}
	defer func() {
		tmp.Close()
		os.Remove(tmp.Name())
	}()

	h := sha256.New()
	cw := &countingWriter{w: io.MultiWriter(tmp, h)}
	w := NewWriter(cw)

	var st Stats
	var prev Rec
	pages := make(map[uint64]struct{})
	for {
		rec, err := rr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return Meta{}, false, err
		}
		if st.Instructions == 0 {
			st.MinPC, st.MaxPC = rec.PC, rec.PC
		} else {
			if err := checkTransition(prev, rec); err != nil {
				return Meta{}, false, err
			}
			if rec.PC < st.MinPC {
				st.MinPC = rec.PC
			}
			if rec.PC > st.MaxPC {
				st.MaxPC = rec.PC
			}
		}
		if span := st.MaxPC - st.MinPC; span > MaxSpanBytes {
			return Meta{}, false, formatErrf("code footprint %d bytes exceeds the %d-byte limit", span, MaxSpanBytes)
		}
		st.Instructions++
		if rec.Branch {
			st.Branches++
		}
		if rec.Taken {
			st.Taken++
		}
		pages[rec.PC>>12] = struct{}{}
		if err := w.Write(rec); err != nil {
			return Meta{}, false, fmt.Errorf("trace: spooling: %w", err)
		}
		prev = rec
	}
	if st.Instructions == 0 {
		return Meta{}, false, formatErrf("empty trace (no records)")
	}
	st.Pages = len(pages)
	if err := w.Flush(); err != nil {
		return Meta{}, false, fmt.Errorf("trace: spooling: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return Meta{}, false, fmt.Errorf("trace: spooling: %w", err)
	}

	key := fmt.Sprintf("t%d-%x", SchemaVersion, h.Sum(nil))
	meta := Meta{Schema: SchemaVersion, Key: key, Bytes: cw.n, Stats: st}

	p := s.path(key)
	if _, err := os.Stat(p); err == nil {
		// Same content, same key: the upload dedupes. Refresh the meta in
		// case an older crash installed the object without its sidecar.
		if _, err := os.Stat(s.metaPath(key)); err != nil {
			if err := s.writeMeta(meta); err != nil {
				return Meta{}, false, err
			}
		}
		return meta, false, nil
	}
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return Meta{}, false, fmt.Errorf("trace: %w", err)
	}
	if err := os.Rename(tmp.Name(), p); err != nil {
		return Meta{}, false, fmt.Errorf("trace: install %s: %w", key, err)
	}
	if err := s.writeMeta(meta); err != nil {
		return Meta{}, false, err
	}
	return meta, true, nil
}

// countingWriter counts canonical bytes as they pass to disk and hash.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

func (s *Store) writeMeta(m Meta) error {
	b, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("trace: encode meta: %w", err)
	}
	if err := fsutil.WriteFileAtomic(s.metaPath(m.Key), b); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}

// Meta returns the stored description of key.
func (s *Store) Meta(key string) (Meta, error) {
	if !keyRE.MatchString(key) {
		return Meta{}, formatErrf("malformed trace key %q", key)
	}
	b, err := os.ReadFile(s.metaPath(key))
	if err != nil {
		return Meta{}, fmt.Errorf("trace: unknown trace %s", key)
	}
	var m Meta
	if err := json.Unmarshal(b, &m); err != nil || m.Schema != SchemaVersion || m.Key != key {
		return Meta{}, fmt.Errorf("trace: corrupt meta for %s", key)
	}
	return m, nil
}

// Open returns the canonical binary bytes of key for streaming.
func (s *Store) Open(key string) (io.ReadCloser, error) {
	if !keyRE.MatchString(key) {
		return nil, formatErrf("malformed trace key %q", key)
	}
	f, err := os.Open(s.path(key))
	if err != nil {
		return nil, fmt.Errorf("trace: unknown trace %s", key)
	}
	return f, nil
}

// Opener returns a reopenable stream factory for key — the shape
// sim.TraceRef wants, callable once per replay pass.
func (s *Store) Opener(key string) func() (io.ReadCloser, error) {
	return func() (io.ReadCloser, error) { return s.Open(key) }
}

// SetName registers alias for key. Aliases are mutable pointers (latest
// write wins), traces themselves are immutable content.
func (s *Store) SetName(alias, key string) error {
	if !nameRE.MatchString(alias) {
		return formatErrf("invalid trace name %q (want %s)", alias, nameRE)
	}
	if strings.HasPrefix(alias, "trace:") || keyRE.MatchString(alias) {
		return formatErrf("trace name %q collides with the key namespace", alias)
	}
	if _, err := s.Meta(key); err != nil {
		return err
	}
	b, err := json.Marshal(map[string]any{"schema": SchemaVersion, "name": alias, "key": key})
	if err != nil {
		return err
	}
	if err := fsutil.WriteFileAtomic(s.namePath(alias), b); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}

// lookupName resolves a registered alias to its key.
func (s *Store) lookupName(alias string) (string, bool) {
	if !nameRE.MatchString(alias) {
		return "", false
	}
	b, err := os.ReadFile(s.namePath(alias))
	if err != nil {
		return "", false
	}
	var e struct {
		Schema int    `json:"schema"`
		Key    string `json:"key"`
	}
	if json.Unmarshal(b, &e) != nil || e.Schema != SchemaVersion || !keyRE.MatchString(e.Key) {
		return "", false
	}
	return e.Key, true
}

// Resolve maps a workload name to a stored trace: a bare key, a
// "trace:<key>" reference, or a registered alias.
func (s *Store) Resolve(name string) (Meta, error) {
	key := strings.TrimPrefix(name, "trace:")
	if !keyRE.MatchString(key) {
		k, ok := s.lookupName(name)
		if !ok {
			return Meta{}, fmt.Errorf("trace: unknown trace %q", name)
		}
		key = k
	}
	return s.Meta(key)
}

// Names returns every registered alias and the key it points at.
func (s *Store) Names() map[string]string {
	out := map[string]string{}
	entries, err := os.ReadDir(filepath.Join(s.dir, "names"))
	if err != nil {
		return out
	}
	for _, e := range entries {
		alias := strings.TrimSuffix(e.Name(), ".json")
		if alias == e.Name() {
			continue
		}
		if key, ok := s.lookupName(alias); ok {
			out[alias] = key
		}
	}
	return out
}

// List returns the Meta of every stored trace, sorted by key.
func (s *Store) List() ([]Meta, error) {
	var out []Meta
	shards, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	for _, sh := range shards {
		if !sh.IsDir() || sh.Name() == "names" {
			continue
		}
		files, err := os.ReadDir(filepath.Join(s.dir, sh.Name()))
		if err != nil {
			continue
		}
		for _, f := range files {
			key := strings.TrimSuffix(f.Name(), ".meta.json")
			if key == f.Name() || !keyRE.MatchString(key) {
				continue
			}
			if m, err := s.Meta(key); err == nil {
				out = append(out, m)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}

// Count returns how many traces are stored (the registry-size gauge).
func (s *Store) Count() int {
	metas, _ := s.List()
	return len(metas)
}

// Stats snapshots the store's counters plus the current object census.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	st := s.stats
	s.mu.Unlock()
	metas, _ := s.List()
	st.Count = len(metas)
	for _, m := range metas {
		st.Bytes += m.Bytes
	}
	return st
}
