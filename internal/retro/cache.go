package retro

import (
	"container/list"
	"sync"

	"rql/internal/storage"
)

// pageCache is the snapshot page cache: an LRU over Pagelog offsets.
// Because the key is the Pagelog location rather than (snapshot, page),
// a pre-state shared by consecutive snapshots — or by an RQL query
// iterating over them — occupies a single entry and is read from the
// Pagelog once. This is the page-sharing behaviour the paper's §5.1
// experiments measure.
//
// The cache is sharded by offset so concurrent sessions' readers don't
// serialize on one mutex; each shard is an independent LRU over its
// slice of the capacity. Small capacities collapse to a single shard,
// keeping globally-strict LRU semantics where eviction order is
// observable (and tested).
type pageCache struct {
	shards []cacheShard
	mask   int64
}

type cacheShard struct {
	mu       sync.Mutex
	capacity int // max pages in this shard; <= 0 disables caching
	lru      *list.List
	items    map[int64]*list.Element
}

type cacheItem struct {
	off  int64
	data *storage.PageData
}

// minShardPages is the per-shard capacity floor: shard count doubles
// (up to maxShards) only while each shard keeps at least this many
// pages, so tiny caches stay single-sharded and strictly LRU.
const (
	minShardPages = 64
	maxShards     = 16
)

func newPageCache(capacity int) *pageCache {
	n := 1
	for n < maxShards && capacity/(n*2) >= minShardPages {
		n *= 2
	}
	c := &pageCache{shards: make([]cacheShard, n), mask: int64(n - 1)}
	for i := range c.shards {
		cap := capacity / n
		if capacity > 0 && cap < 1 {
			cap = 1
		}
		c.shards[i] = cacheShard{
			capacity: cap,
			lru:      list.New(),
			items:    make(map[int64]*list.Element),
		}
	}
	return c
}

func (c *pageCache) shard(off int64) *cacheShard {
	return &c.shards[off&c.mask]
}

// get returns the cached page for a Pagelog offset, or nil on a miss.
func (c *pageCache) get(off int64) *storage.PageData {
	s := c.shard(off)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[off]
	if !ok {
		return nil
	}
	s.lru.MoveToFront(el)
	return el.Value.(*cacheItem).data
}

// put inserts a page, evicting the least recently used entry if full.
func (c *pageCache) put(off int64, data *storage.PageData) {
	s := c.shard(off)
	if s.capacity <= 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[off]; ok {
		el.Value.(*cacheItem).data = data
		s.lru.MoveToFront(el)
		return
	}
	for s.lru.Len() >= s.capacity {
		back := s.lru.Back()
		delete(s.items, back.Value.(*cacheItem).off)
		s.lru.Remove(back)
	}
	s.items[off] = s.lru.PushFront(&cacheItem{off: off, data: data})
}

// reset empties the cache (used to produce the paper's "cold" runs).
func (c *pageCache) reset() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.lru.Init()
		s.items = make(map[int64]*list.Element)
		s.mu.Unlock()
	}
}

// len reports the number of cached pages.
func (c *pageCache) len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.lru.Len()
		s.mu.Unlock()
	}
	return n
}
