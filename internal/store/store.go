// Package store is the durable half of the simulation memo: a disk-backed,
// content-addressed cache of sim.Results keyed by the canonical encoding of
// the full simulation configuration (Key). The in-memory Runner memo, this
// store and the HTTP API all derive keys the same way, so a result computed
// anywhere is reusable everywhere.
//
// The store is deliberately forgiving: it is a cache, not a database. Writes
// are atomic (temp file + rename in the same directory), reads tolerate
// corruption (a truncated, garbled or wrong-version entry is a miss, never
// an error), and concurrent writers to one key are safe — renames are
// atomic and both writers carry identical content for a given key. A
// read-only or unwritable directory degrades to recompute: Get still
// serves whatever is readable and Put reports the error for the caller to
// count and drop.
package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"itlbcfr/internal/fsutil"
	"itlbcfr/internal/sim"
)

// envelope is the on-disk entry format. Schema and Key are verified on
// read: a mismatch means the file is stale or foreign and is treated as a
// miss rather than misread.
type envelope struct {
	Schema int        `json:"schema"`
	Key    string     `json:"key"`
	Result sim.Result `json:"result"`
}

// Stats counts store activity.
type Stats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Puts      uint64 `json:"puts"`
	PutErrors uint64 `json:"put_errors"`
	// Corrupt counts entries rejected on read: unparseable files, wrong
	// schema versions, key mismatches. Each also counts as a miss.
	Corrupt uint64 `json:"corrupt"`
}

// Store is a disk-backed result cache. It is safe for concurrent use by
// multiple goroutines and by multiple processes sharing one directory.
type Store struct {
	dir string

	mu    sync.Mutex
	stats Stats
}

// Open prepares dir as a result store, creating it if needed. An existing
// but unwritable directory is usable (reads work, writes degrade); only a
// directory that cannot exist at all is an error.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// path shards entries by the last two key characters (a hash suffix) so
// one directory never holds an unbounded number of files. Entries from
// different schema generations share shard directories but never
// filenames: the key's "s<version>-" prefix is part of the name.
func (s *Store) path(key string) string {
	shard := key
	if len(key) > 2 {
		shard = key[len(key)-2:]
	}
	return filepath.Join(s.dir, shard, key+".json")
}

// Get returns the stored result for key. Any failure to produce a valid
// entry — absent file, unreadable file, corrupt JSON, wrong schema, key
// mismatch — is reported as a miss; errors never leak to the caller.
func (s *Store) Get(key string) (sim.Result, bool) {
	b, err := os.ReadFile(s.path(key))
	if err != nil {
		s.count(func(st *Stats) { st.Misses++ })
		return sim.Result{}, false
	}
	var e envelope
	if err := json.Unmarshal(b, &e); err != nil || e.Schema != SchemaVersion || e.Key != key {
		s.count(func(st *Stats) { st.Misses++; st.Corrupt++ })
		return sim.Result{}, false
	}
	s.count(func(st *Stats) { st.Hits++ })
	return e.Result, true
}

// Put stores res under key atomically: the entry is written to a temporary
// file in the destination directory and renamed into place, so a reader
// never observes a partial entry and concurrent writers simply race to
// install identical content. Errors (e.g. a read-only cache directory) are
// returned for accounting; the caller loses nothing but reuse.
func (s *Store) Put(key string, res sim.Result) error {
	err := s.put(key, res)
	if err != nil {
		s.count(func(st *Stats) { st.PutErrors++ })
		return err
	}
	s.count(func(st *Stats) { st.Puts++ })
	return nil
}

func (s *Store) put(key string, res sim.Result) error {
	b, err := json.Marshal(envelope{Schema: SchemaVersion, Key: key, Result: res})
	if err != nil {
		return fmt.Errorf("store: encode %s: %w", key, err)
	}
	if err := fsutil.WriteFileAtomic(s.path(key), b); err != nil {
		return fmt.Errorf("store: write %s: %w", key, err)
	}
	return nil
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

func (s *Store) count(f func(*Stats)) {
	s.mu.Lock()
	f(&s.stats)
	s.mu.Unlock()
}
