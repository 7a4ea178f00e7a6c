package server

import (
	"sync"
	"sync/atomic"

	"repro/internal/snapshot"
	"repro/internal/wire"
)

// resultCache memoizes complete subsets responses per workload, keyed by
// a (version, setting, method, bound, program selection) string. A hit
// costs one map lookup and a write of the stored bytes; a miss runs the
// enumeration on the request and stores the encoded response on success.
//
// Invalidation is exactly the PATCH version bump: keys embed the workload
// version, so after a patch no stale entry can ever be looked up again, and
// the patch drops every entry of this workload eagerly to reclaim the
// memory (entries of other workloads are untouched). Entries are the
// payload of the workload's persistent snapshot, which is what lets a
// restarted server answer a repeated enumeration without re-running
// Algorithm 1 at all.
//
// The cache is unbounded per workload by design — its bytes are charged to
// the workload's size estimate, so sustained growth is what the -max-bytes
// eviction policy acts on.
type resultCache struct {
	mu      sync.Mutex
	entries map[string]resultEntry
	bytes   int64

	hits, misses, invalidated atomic.Uint64
}

// resultEntry is one cached response: the exact encoded wire bytes and the
// workload version they were computed against.
type resultEntry struct {
	version uint64
	body    []byte
}

// resultEntryBytes is the rough per-entry map overhead of the size
// estimate, on top of key and body lengths.
const resultEntryBytes = 96

func newResultCache() *resultCache {
	return &resultCache{entries: make(map[string]resultEntry)}
}

// get returns the cached response bytes for the key, counting a hit or a
// miss.
func (c *resultCache) get(key string) ([]byte, bool) {
	c.mu.Lock()
	e, ok := c.entries[key]
	c.mu.Unlock()
	if ok {
		c.hits.Add(1)
		return e.body, true
	}
	c.misses.Add(1)
	return nil, false
}

// put stores a computed response, reporting whether it was inserted (of
// two identical misses running at once, the second finds the entry
// already present).
func (c *resultCache) put(key string, version uint64, body []byte) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.entries[key]; dup {
		return false
	}
	c.entries[key] = resultEntry{version: version, body: body}
	c.bytes += int64(len(key)+len(body)) + resultEntryBytes
	return true
}

// invalidate drops every entry (the PATCH path: the version just bumped, so
// none of them can hit again) and returns how many were dropped.
func (c *resultCache) invalidate() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.entries)
	clear(c.entries)
	c.bytes = 0
	c.invalidated.Add(uint64(n))
	return n
}

// sizeBytes estimates the cache's resident memory.
func (c *resultCache) sizeBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// stats snapshots the cache telemetry in wire form.
func (c *resultCache) stats() wire.ResultCacheStats {
	c.mu.Lock()
	entries := len(c.entries)
	c.mu.Unlock()
	return wire.ResultCacheStats{
		Entries:     entries,
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		Invalidated: c.invalidated.Load(),
	}
}

// export snapshots the entries for persistence, sorted implicitly by map
// iteration — order is irrelevant, restore re-keys them.
func (c *resultCache) export() []snapshot.Result {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]snapshot.Result, 0, len(c.entries))
	for k, e := range c.entries {
		out = append(out, snapshot.Result{Key: k, Version: e.version, Body: e.body})
	}
	return out
}

// restore seeds the cache from persisted entries, keeping only those
// computed against the given (current) workload version — a snapshot
// written concurrently with a PATCH may carry entries from an older
// version, and those must not resurrect.
func (c *resultCache) restore(results []snapshot.Result, version uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, r := range results {
		if r.Version != version || r.Key == "" || len(r.Body) == 0 {
			continue
		}
		if _, dup := c.entries[r.Key]; dup {
			continue
		}
		c.entries[r.Key] = resultEntry{version: r.Version, body: r.Body}
		c.bytes += int64(len(r.Key)+len(r.Body)) + resultEntryBytes
	}
}
