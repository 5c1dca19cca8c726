package core

import "slices"

// copyCache is a bounded cross-batch cache keyed by forest element. The
// element copy cache and both annotation caches (AggHandle, resident
// aggregate state) are instances, so their sweep and bounding policy
// cannot drift.
//
// Eviction is deterministic: least-recently-installed batch first, the
// smaller element ID on ties. It has to be — a host advertises its cached
// IDs in phase B's demand round and owners ship points only for the rest,
// so the cache's contents decide round h and volume, which must agree
// across transports and residency modes.
type copyCache[V any] struct {
	entries map[ElemID]cacheEntry[V]
	batch   uint64 // install generation, bumped by begin
}

// cacheEntry is one cached value and the batch that last installed it.
type cacheEntry[V any] struct {
	val  V
	used uint64
}

// cacheOp is one change to a cache's ID set, in the order it happened.
// Phase B's install returns them so the coordinator-side mirror of a
// rank's element cache (procState.cached) follows without a round trip.
type cacheOp struct {
	ID    ElemID
	Evict bool // false: inserted
}

func newCopyCache[V any]() *copyCache[V] {
	return &copyCache[V]{entries: make(map[ElemID]cacheEntry[V])}
}

// begin opens one batch's installs: everything get or insert touches
// from here on counts as installed by this batch.
func (c *copyCache[V]) begin() { c.batch++ }

func (c *copyCache[V]) len() int { return len(c.entries) }

// get returns the value cached under id, marking it installed this batch.
func (c *copyCache[V]) get(id ElemID) (V, bool) {
	e, ok := c.entries[id]
	if ok && e.used != c.batch {
		e.used = c.batch
		c.entries[id] = e
	}
	return e.val, ok
}

// insert caches val under id, first evicting to stay within cap (cap ≤ 0
// disables caching), and appends what changed to ops.
func (c *copyCache[V]) insert(id ElemID, val V, cap int, ops []cacheOp) []cacheOp {
	if cap <= 0 {
		return ops
	}
	if _, present := c.entries[id]; !present {
		ops = append(c.trim(cap-1, ops), cacheOp{ID: id})
	}
	c.entries[id] = cacheEntry[V]{val: val, used: c.batch}
	return ops
}

// trim evicts down to max(cap, 0) entries in eviction order and appends
// the evictions to ops. Phase B's install ends with it, so a cap lowered
// after the cache filled (below 0 included) takes hold in the batch that
// first sees it, even if that batch inserts nothing.
func (c *copyCache[V]) trim(cap int, ops []cacheOp) []cacheOp {
	for len(c.entries) > max(cap, 0) {
		victim, oldest, first := ElemID(0), uint64(0), true
		for k, e := range c.entries {
			if first || e.used < oldest || (e.used == oldest && k < victim) {
				victim, oldest, first = k, e.used, false
			}
		}
		delete(c.entries, victim)
		ops = append(ops, cacheOp{ID: victim, Evict: true})
	}
	return ops
}

// applyCacheOps replays a rank's element-cache changes onto the sorted ID
// list mirroring it — the list the rank advertises in the next batch's
// demand round. Incremental, so a warm batch (no ops) pays nothing.
func applyCacheOps(cached []ElemID, ops []cacheOp) []ElemID {
	for _, op := range ops {
		i, found := slices.BinarySearch(cached, op.ID)
		switch {
		case op.Evict && found:
			cached = slices.Delete(cached, i, i+1)
		case !op.Evict && !found:
			cached = slices.Insert(cached, i, op.ID)
		}
	}
	return cached
}
