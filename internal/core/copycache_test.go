package core

import (
	"reflect"
	"strings"
	"testing"
)

// TestCopyCacheEvictionOrder pins the deterministic policy: the batch
// that installed an entry longest ago loses first, the smaller element ID
// on ties, for insert and trim alike, and the ops replay to the cache's
// exact ID set.
func TestCopyCacheEvictionOrder(t *testing.T) {
	c := newCopyCache[int]()
	var mirror []ElemID

	c.begin()
	ops := c.insert(9, 0, 3, nil)
	ops = c.insert(4, 0, 3, ops)
	ops = c.insert(7, 0, 3, ops)
	mirror = applyCacheOps(mirror, ops)
	if want := []ElemID{4, 7, 9}; !reflect.DeepEqual(mirror, want) {
		t.Fatalf("mirror after three inserts: %v, want %v", mirror, want)
	}

	// Batch 2 touches 4; 7 and 9 tie on age, so the smaller ID goes first.
	c.begin()
	if _, ok := c.get(4); !ok {
		t.Fatal("entry 4 missing")
	}
	ops = c.insert(1, 0, 3, nil)
	if want := []cacheOp{{ID: 7, Evict: true}, {ID: 1}}; !reflect.DeepEqual(ops, want) {
		t.Fatalf("ops %v, want %v", ops, want)
	}
	ops = c.insert(2, 0, 3, ops)
	if last := ops[len(ops)-2]; last != (cacheOp{ID: 9, Evict: true}) {
		t.Fatalf("second eviction %v, want element 9 (the only entry left from batch 1)", last)
	}
	// A shrunken cap evicts down to it; within batch 2 the smaller ID loses.
	ops = c.insert(3, 0, 2, ops)
	mirror = applyCacheOps(mirror, ops)
	if want := []ElemID{3, 4}; !reflect.DeepEqual(mirror, want) {
		t.Fatalf("mirror %v, want %v", mirror, want)
	}
	for _, id := range mirror {
		if _, ok := c.entries[id]; !ok || c.len() != len(mirror) {
			t.Fatalf("mirror %v does not match the cache's %d entries", mirror, c.len())
		}
	}

	// Re-inserting a present ID replaces the value without an op; cap ≤ 0
	// leaves nothing behind.
	if ops := c.insert(4, 1, 2, nil); len(ops) != 0 {
		t.Fatalf("replacing an entry reported ops %v", ops)
	}
	if ops := c.insert(8, 0, 0, nil); len(ops) != 0 || c.len() != 2 {
		t.Fatalf("disabled insert changed the cache: ops %v, len %d", ops, c.len())
	}

	// trim evicts in the same order down to the cap, and to nothing below 1.
	c.begin()
	ops = c.insert(6, 0, 3, nil)
	mirror = applyCacheOps(mirror, ops)
	if ops := c.trim(3, nil); len(ops) != 0 {
		t.Fatalf("trim to the held count evicted %v", ops)
	}
	ops = c.trim(1, nil)
	if want := []cacheOp{{ID: 3, Evict: true}, {ID: 4, Evict: true}}; !reflect.DeepEqual(ops, want) {
		t.Fatalf("trim to 1: ops %v, want %v", ops, want)
	}
	mirror = applyCacheOps(mirror, ops)
	if mirror = applyCacheOps(mirror, c.trim(-1, nil)); len(mirror) != 0 || c.len() != 0 {
		t.Fatalf("trim to -1 left the mirror %v and %d entries", mirror, c.len())
	}
}

// TestForgedReferenceIsDiagnosed: a reference to an element the host does
// not cache is an error naming the element, the host and the cache's size
// — through a part's installCopies directly, and as the abort of a
// machine run.
func TestForgedReferenceIsDiagnosed(t *testing.T) {
	part := newForestPart()
	_, err := part.installCopies(2, 4, nil, [][]routeRow{{{Copy: &shippedElem{Info: ElemInfo{ID: 42}, Ref: true}}}})
	if err == nil {
		t.Fatal("a reference to an uncached element installed without error")
	}
	for _, want := range []string{"element 42", "host 2", "0 copies"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("diagnostic %q does not mention %q", err, want)
		}
	}
	if len(part.copies) != 0 {
		t.Errorf("a missed reference still installed %d copies", len(part.copies))
	}

	// End to end: the hosts lose their caches behind the mirrors' backs, so
	// the next batch's references miss. The run must abort with the
	// diagnostic, not answer.
	dt, boxes := skewedSetup(t, 2048, 2, 4, 96)
	dt.CountBatch(boxes)
	if _, shipped, _ := copyTotals(dt); shipped == 0 {
		t.Fatal("skewed workload shipped no copies")
	}
	for _, ps := range dt.procs {
		ps.part.copyCache = newCopyCache[*element]()
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("batch with unresolvable references returned answers")
		}
		msg, _ := r.(string)
		if !strings.Contains(msg, "machine aborted") || !strings.Contains(msg, "phase-B reference to element") {
			t.Fatalf("abort carries no reference diagnostic: %v", r)
		}
	}()
	dt.CountBatch(boxes)
}
