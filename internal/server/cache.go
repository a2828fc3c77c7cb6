package server

import (
	"container/list"
	"encoding/json"
	"fmt"
	"sync"

	"structmine/internal/store"
	"structmine/internal/task"
)

// Cache is the content-addressed artifact cache: completed task results
// keyed on (dataset content hash, epoch, task, normalized parameters).
// An artifact is its JSON encoding from the moment its job finishes. The
// disk tier stores those compact bytes; the memory tier holds the
// artifact's served form (see served), and every lookup returns that
// form, so a response copies the same bytes whichever tier answered.
// Because a (hash, epoch) state is immutable and every task is
// deterministic, entries never go stale — but a long-running daemon
// cannot keep every artifact forever, so the cache evicts
// least-recently-used entries beyond a configured capacity. Each
// dataset's FD state shares it under a key of its own
// (datasetIntermediates).
//
// With a durable store attached the cache is two-tiered: every Put also
// spills the artifact to disk, and a memory miss falls back to the store
// before being counted as a miss. Disk hits are promoted back into
// memory, so a warm restart answers repeated queries without re-running
// the miner.
type Cache struct {
	mu     sync.Mutex
	m      map[string]*list.Element
	lru    *list.List // front = most recently used
	max    int        // entry cap (0 = unlimited)
	hits   uint64
	misses uint64
	disk   uint64 // hits served from the durable tier

	st *store.Store // optional durable tier (nil = memory only); set once, before the first request
}

type cacheEntry struct {
	key string
	val json.RawMessage // the served form
}

// NewCache returns an empty artifact cache holding at most max entries
// (0 = unlimited).
func NewCache(max int) *Cache {
	return &Cache{m: map[string]*list.Element{}, lru: list.New(), max: max}
}

// Key builds the canonical artifact address for one query. The epoch
// disambiguates the states of an appended-to dataset: because the
// content hash already advances on every append the epoch is strictly
// redundant, but keying on it too makes a cross-epoch cache hit
// structurally impossible rather than merely hash-collision-improbable.
func Key(datasetHash string, epoch int, taskName string, p task.Params) string {
	return fmt.Sprintf("%s@%d|%s", datasetHash, epoch, p.CacheKey(taskName))
}

// Get returns the cached artifact's served form, refreshes its recency,
// and counts the lookup as a hit or miss. On a memory miss the durable
// tier (when attached) is consulted; a disk hit is promoted into memory.
func (c *Cache) Get(key string) (json.RawMessage, bool) {
	c.mu.Lock()
	el, ok := c.m[key]
	if ok {
		c.hits++
		c.lru.MoveToFront(el)
		v := el.Value.(*cacheEntry).val
		c.mu.Unlock()
		return v, true
	}
	c.mu.Unlock()

	if v, ok := c.fromDisk(key); ok {
		c.mu.Lock()
		c.hits++
		c.disk++
		c.putLocked(key, v)
		c.mu.Unlock()
		return v, true
	}
	c.mu.Lock()
	c.misses++
	c.mu.Unlock()
	return nil, false
}

// Peek returns the artifact's served form without touching the
// hit/miss counters or promoting disk entries — used when serving the
// result of a recovered job record, which is a read of existing state
// rather than a query.
func (c *Cache) Peek(key string) (json.RawMessage, bool) {
	c.mu.Lock()
	if el, ok := c.m[key]; ok {
		defer c.mu.Unlock()
		return el.Value.(*cacheEntry).val, true
	}
	c.mu.Unlock()
	return c.fromDisk(key)
}

// fromDisk reads the compact artifact from the durable tier (when
// attached) and returns its served form. An entry that is not JSON is
// a miss.
func (c *Cache) fromDisk(key string) (json.RawMessage, bool) {
	if c.st == nil {
		return nil, false
	}
	raw, ok := c.st.GetArtifact(key)
	if !ok {
		return nil, false
	}
	return served(raw)
}

// Put stores one completed artifact, given as its compact encoding, and
// returns its served form, which is what the memory tier keeps. It
// evicts the least recently used entries if the cache is over capacity.
// With a durable tier attached the compact bytes are also spilled to
// disk; a spill failure only costs durability (the store counts it),
// never the job result. Bytes that are not JSON are not cached.
func (c *Cache) Put(key string, compact json.RawMessage) json.RawMessage {
	v, ok := served(compact)
	if !ok {
		return nil
	}
	c.mu.Lock()
	c.putLocked(key, v)
	c.mu.Unlock()

	if c.st != nil {
		_ = c.st.PutArtifact(key, compact)
	}
	return v
}

func (c *Cache) putLocked(key string, v json.RawMessage) {
	if el, ok := c.m[key]; ok {
		el.Value.(*cacheEntry).val = v
		c.lru.MoveToFront(el)
		return
	}
	c.m[key] = c.lru.PushFront(&cacheEntry{key: key, val: v})
	for c.max > 0 && c.lru.Len() > c.max {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.m, oldest.Value.(*cacheEntry).key)
	}
}

// CacheStats is the cache's observable state, served by /v1/healthz and
// asserted by the smoke test.
type CacheStats struct {
	Entries int    `json:"entries"`
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	// DiskHits counts the subset of Hits served from the durable store
	// rather than memory (always 0 without persistence).
	DiskHits uint64 `json:"disk_hits"`
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Entries: len(c.m), Hits: c.hits, Misses: c.misses, DiskHits: c.disk}
}
