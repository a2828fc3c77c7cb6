// Package primcache is the shared single-attribute primitive cache:
// stripped partitions (TANE level 1) and dictionary decodes, keyed by
// (dataset hash, append epoch, attribute). Every mining task on a
// dataset rederives these from the same value index per submission;
// caching them once per (hash, epoch) lets later submissions — any
// task, any params — skip the index walk entirely.
//
// Invalidation is structural: an append writes a new .col file with a
// new content hash and a bumped epoch, so stale entries simply stop
// being addressed and age out of the byte-budget LRU. Nothing is ever
// served across an epoch bump.
//
// Aliasing contract: cached values are shared read-only across
// concurrent jobs, so everything stored here is plain-make allocated —
// never carved from a job's pooled arena, whose slabs are recycled at
// grant release (see the exec package's aliasing contract). The cache
// fills from relation.StrippedPartition with nil buffers, which
// guarantees this.
//
// Marginal entropies are not cached: describe is their only consumer,
// the artifact cache keeps describe's result per (dataset, epoch), and a
// colstore table already holds the marginals its Open computed.
//
// There is deliberately no single-flight: two jobs racing on a cold key
// both compute the primitive (construction is deterministic, so either
// result is correct) and the second Put is dropped. Duplicate work on a
// cold cache is bounded by one index walk per attribute per job.
package primcache

import (
	"container/list"
	"sync"

	"structmine/internal/obs"
	"structmine/internal/relation"
)

var (
	cacheHits = obs.Default.Counter("structmine_primcache_hits_total",
		"Single-attribute primitives served from the cache.")
	cacheMisses = obs.Default.Counter("structmine_primcache_misses_total",
		"Single-attribute primitives computed because the cache had no entry.")
	cacheBytes = obs.Default.Gauge("structmine_primcache_bytes",
		"Bytes of cached single-attribute primitives resident.")
	cacheEvictions = obs.Default.Counter("structmine_primcache_evictions_total",
		"Cached primitives evicted by the byte-budget LRU.")
)

type kind uint8

const (
	kindPartition kind = iota
	kindDict
)

// key addresses one primitive: the dataset's content hash plus append
// epoch pin the exact relation instance, attr the attribute (-1 for
// whole-relation entries like the dictionary).
type key struct {
	hash  string
	epoch int
	attr  int
	kind  kind
}

type entry struct {
	key   key
	value any
	size  int64
	elem  *list.Element
}

// Cache is a byte-budget LRU over primitives. Safe for concurrent use.
type Cache struct {
	mu      sync.Mutex
	budget  int64
	bytes   int64
	entries map[key]*entry
	lru     *list.List // front = most recently used; values are *entry
}

// New returns a cache bounded to budget bytes of cached values
// (bookkeeping overhead is not counted). A non-positive budget returns
// nil, which Wrap treats as "caching disabled".
func New(budget int64) *Cache {
	if budget <= 0 {
		return nil
	}
	return &Cache{budget: budget, entries: map[key]*entry{}, lru: list.New()}
}

func (c *Cache) get(k key) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[k]
	if !ok {
		cacheMisses.Inc()
		return nil, false
	}
	c.lru.MoveToFront(e.elem)
	cacheHits.Inc()
	return e.value, true
}

func (c *Cache) put(k key, v any, size int64) {
	if size > c.budget {
		return // larger than the whole budget: never resident
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[k]; ok {
		return // racing compute already stored an identical value
	}
	for c.bytes+size > c.budget {
		last := c.lru.Back()
		if last == nil {
			break
		}
		victim := last.Value.(*entry)
		c.lru.Remove(last)
		delete(c.entries, victim.key)
		c.bytes -= victim.size
		cacheEvictions.Inc()
	}
	e := &entry{key: k, value: v, size: size}
	e.elem = c.lru.PushFront(e)
	c.entries[k] = e
	c.bytes += size
	cacheBytes.Set(c.bytes)
}

// Bytes returns the cached value volume, for tests and introspection.
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

type partitionEntry struct {
	elems, offs []int32
}

// Wrap returns c with the cache layered over its single-attribute
// primitives: the wrapper implements relation.PartitionSource and caches
// ValueStrings, so consumers probing those capabilities hit the cache,
// while every other Columns method, Marginal included, passes straight
// through to c.
// hash and epoch must identify the exact relation instance c reads —
// serving a wrapper past its dataset's epoch bump is a correctness
// bug, not just a staleness one.
//
// A nil cache (or a nil *Cache from New with no budget) returns c
// unchanged.
func Wrap(c relation.Columns, hash string, epoch int, cache *Cache) relation.Columns {
	if cache == nil || hash == "" {
		return c
	}
	return &wrapped{Columns: c, hash: hash, epoch: epoch, cache: cache}
}

type wrapped struct {
	relation.Columns
	hash  string
	epoch int
	cache *Cache
}

// SinglePartition implements relation.PartitionSource. The returned
// slices are shared: callers must treat them as read-only.
func (w *wrapped) SinglePartition(a int) (elems, offs []int32, err error) {
	k := key{w.hash, w.epoch, a, kindPartition}
	if v, ok := w.cache.get(k); ok {
		p := v.(*partitionEntry)
		return p.elems, p.offs, nil
	}
	elems, offs, err = relation.StrippedPartition(w.Columns, a, nil, nil, nil)
	if err != nil {
		return nil, nil, err
	}
	w.cache.put(k, &partitionEntry{elems: elems, offs: offs}, int64(len(elems)+len(offs))*4)
	return elems, offs, nil
}

// ValueStrings serves the decoded dictionary through the cache (an
// on-disk source decodes it on every call). The returned slice is
// shared: callers must treat it as read-only.
func (w *wrapped) ValueStrings() ([]string, error) {
	k := key{w.hash, w.epoch, -1, kindDict}
	if v, ok := w.cache.get(k); ok {
		return v.([]string), nil
	}
	strs, err := w.Columns.ValueStrings()
	if err != nil {
		return nil, err
	}
	size := int64(0)
	for _, s := range strs {
		size += int64(len(s)) + 16 // string header
	}
	w.cache.put(k, strs, size)
	return strs, nil
}
