package skcrypto

import (
	"strings"
	"sync"
)

// The path codec is deterministic by design (§4.3): a chunk's IV is the
// hash of its plaintext prefix, so equal path chunks encrypt to equal
// ciphertext under one key. That determinism makes path crypto
// perfectly cacheable — the entry enclave re-encrypts the same handful
// of paths on every request — and the cache is sound in both
// directions: one (key, prefix) pair maps to exactly one ciphertext
// chunk, and one authenticated ciphertext chunk decrypts to exactly one
// plaintext. The cache lives inside the Codec, so installing a new
// storage key (which builds a new Codec) discards it wholesale.
//
// DefaultChunkCacheSize bounds each direction's cache; under churn the
// least-recently-used entries are evicted, so 10k distinct paths cost
// bounded memory, not unbounded growth.
const DefaultChunkCacheSize = 4096

// chunkCache is a mutex-guarded LRU map from string to string,
// allocation-free on hits. Entries form a doubly-linked recency list
// (hand-rolled rather than container/list to avoid boxing values).
type chunkCache struct {
	mu         sync.Mutex
	max        int
	m          map[string]*chunkEntry
	head, tail *chunkEntry // head = most recent
}

type chunkEntry struct {
	key, val   string
	prev, next *chunkEntry
}

// newChunkCache leaves the map to grow on demand: a short session's
// entry enclave caches a handful of chunks, not max.
func newChunkCache(max int) *chunkCache {
	return &chunkCache{max: max, m: make(map[string]*chunkEntry)}
}

// get returns the cached value and refreshes its recency.
func (c *chunkCache) get(key string) (string, bool) {
	c.mu.Lock()
	e, ok := c.m[key]
	if !ok {
		c.mu.Unlock()
		return "", false
	}
	c.moveToFront(e)
	v := e.val
	c.mu.Unlock()
	return v, true
}

// add inserts key → val, evicting the least-recently-used entry when
// full. The key is cloned so cache entries never pin a caller's larger
// backing string (lookups pass sub-slices of request paths).
func (c *chunkCache) add(key, val string) {
	c.mu.Lock()
	if e, ok := c.m[key]; ok {
		e.val = val
		c.moveToFront(e)
		c.mu.Unlock()
		return
	}
	e := &chunkEntry{key: strings.Clone(key), val: val}
	c.m[e.key] = e
	c.pushFront(e)
	if len(c.m) > c.max {
		lru := c.tail
		c.unlink(lru)
		delete(c.m, lru.key)
	}
	c.mu.Unlock()
}

// len reports the current entry count.
func (c *chunkCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

func (c *chunkCache) pushFront(e *chunkEntry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *chunkCache) unlink(e *chunkEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *chunkCache) moveToFront(e *chunkEntry) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}
