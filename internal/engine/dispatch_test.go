package engine

import (
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/workload"
)

// The dispatcher's ordering — idle → dispatch, in flight → queue, full →
// size flush, Close → drain — pinned without a clock: the tests park the
// dispatcher at its gate, so "while a batch runs" is a state they hold, not
// a window they have to hit.

// heldDispatcher parks the engine's dispatcher with every batch it forms:
// the batch's size arrives on held, and the batch runs once the test sends
// on release. The engine is closed (and the gate opened for good) when the
// test ends.
type heldDispatcher struct {
	held    chan int
	release chan struct{}
}

func holdDispatches[T any](t *testing.T, e *Engine[T]) *heldDispatcher {
	g := &heldDispatcher{held: make(chan int), release: make(chan struct{})}
	done := make(chan struct{})
	e.gate = func(n int) {
		select {
		case g.held <- n:
			select {
			case <-g.release:
			case <-done:
			}
		case <-done:
		}
	}
	t.Cleanup(func() {
		close(done)
		e.Close()
	})
	return g
}

// next releases nothing: it waits for the dispatcher to park with its next
// batch and checks the batch's size.
func (g *heldDispatcher) next(t *testing.T, want int) {
	t.Helper()
	if n := <-g.held; n != want {
		t.Fatalf("the dispatcher formed a batch of %d, want %d", n, want)
	}
}

// waitQueued returns once n requests sit in the engine's queue. A submitter
// blocks on its reply right after enqueuing, so the queue's length is the
// one event there is to wait on.
func waitQueued[T any](e *Engine[T], n int) {
	for len(e.reqs) < n {
		runtime.Gosched()
	}
}

// counter submits Count queries from their own goroutines and checks the
// answers against the fixture's oracle.
type counter struct {
	t   *testing.T
	fx  *testFixture
	eng *Engine[struct{}]
	wg  sync.WaitGroup
}

func (c *counter) submit(q geom.Box) {
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		if got, err := c.eng.Count(q); err != nil || got != int64(c.fx.bf.Count(q)) {
			c.t.Errorf("Count = %d, %v; want %d", got, err, c.fx.bf.Count(q))
		}
	}()
}

func dispatchFixture(t *testing.T, batchSize, boxes int) (*counter, []geom.Box) {
	fx := newFixture(t, 512, 2)
	eng := New(fx.tree, Config{BatchSize: batchSize, CacheSize: -1})
	return &counter{t: t, fx: fx, eng: eng},
		workload.Boxes(workload.QuerySpec{M: boxes, Dims: 2, N: fx.n, Selectivity: 0.05, Seed: 4})
}

// TestDispatchIdle: with the machine idle a lone query is its own batch —
// it waits for no company and no timer.
func TestDispatchIdle(t *testing.T) {
	c, boxes := dispatchFixture(t, 64, 1)
	defer c.eng.Close()
	got, err := c.eng.Count(boxes[0])
	if err != nil || got != int64(c.fx.bf.Count(boxes[0])) {
		t.Fatalf("Count = %d, %v; want %d", got, err, c.fx.bf.Count(boxes[0]))
	}
	if st := c.eng.Stats(); st.Batches != 1 || st.BatchedQueries != 1 || st.IdleFlushes != 1 || st.SizeFlushes != 0 {
		t.Fatalf("a lone query on an idle machine: stats %+v, want one idle flush of one query", st)
	}
}

// TestEngineBatchDedup: queries that arrive while a batch runs are the next
// batch, and identical ones among them share one pipeline slot — 15 copies
// of one query behind a held run form one batch with 14 deduplicated.
func TestEngineBatchDedup(t *testing.T) {
	c, boxes := dispatchFixture(t, 16, 2)
	g := holdDispatches(t, c.eng)

	c.submit(boxes[0])
	g.next(t, 1) // the machine is now busy with the first query
	for i := 0; i < 15; i++ {
		c.submit(boxes[1])
	}
	waitQueued(c.eng, 15)
	g.release <- struct{}{}
	g.next(t, 15)
	g.release <- struct{}{}
	c.wg.Wait()

	st := c.eng.Stats()
	if st.Batches != 2 || st.BatchedQueries != 16 || st.DedupedQueries != 14 {
		t.Fatalf("15 identical queries behind a run in flight: stats %+v, want 2 batches answering 16 with 14 deduplicated", st)
	}
	if st.IdleFlushes != 2 || st.SizeFlushes != 0 {
		t.Fatalf("two partial batches: stats %+v, want 2 idle flushes", st)
	}
}

// TestDispatchSizeFlush: a backlog longer than BatchSize dispatches as full
// batches, never a larger one, and the remainder as a partial batch.
func TestDispatchSizeFlush(t *testing.T) {
	c, boxes := dispatchFixture(t, 4, 10)
	g := holdDispatches(t, c.eng)

	c.submit(boxes[0])
	g.next(t, 1)
	for _, q := range boxes[1:] {
		c.submit(q)
	}
	waitQueued(c.eng, 9)
	for _, want := range []int{4, 4, 1} {
		g.release <- struct{}{}
		g.next(t, want)
	}
	g.release <- struct{}{}
	c.wg.Wait()

	if st := c.eng.Stats(); st.Batches != 4 || st.BatchedQueries != 10 || st.SizeFlushes != 2 || st.IdleFlushes != 2 {
		t.Fatalf("9 queries behind a run, BatchSize 4: stats %+v, want batches of 1, 4, 4, 1", st)
	}
}

// TestDispatchCloseDrains: Close answers everything accepted — the batch in
// flight and the requests queued behind it.
func TestDispatchCloseDrains(t *testing.T) {
	c, boxes := dispatchFixture(t, 8, 6)
	g := holdDispatches(t, c.eng)

	c.submit(boxes[0])
	g.next(t, 1)
	for _, q := range boxes[1:] {
		c.submit(q)
	}
	waitQueued(c.eng, 5)
	closed := make(chan struct{})
	go func() {
		c.eng.Close()
		close(closed)
	}()
	for shut := false; !shut; runtime.Gosched() {
		c.eng.closing.RLock()
		shut = c.eng.closed
		c.eng.closing.RUnlock()
	}
	g.release <- struct{}{}
	g.next(t, 5)
	g.release <- struct{}{}
	c.wg.Wait()
	<-closed

	if st := c.eng.Stats(); st.BatchedQueries != 6 || st.IdleFlushes != 1 || st.DrainFlushes != 1 {
		t.Fatalf("Close behind a run with 5 queued: stats %+v, want the held batch and one drain flush of 5", st)
	}
	if _, err := c.eng.Count(boxes[0]); err != ErrClosed {
		t.Fatalf("Count after Close: err = %v, want ErrClosed", err)
	}
}

// TestTraceWaitsForOwedDispatch: Trace(0) issued while the batch answering
// an accepted miss has not dispatched yet waits for that batch instead of
// reporting that there is none.
func TestTraceWaitsForOwedDispatch(t *testing.T) {
	fx := newFixture(t, 512, 2)
	eng := New(fx.tree, Config{CacheSize: -1, Tracer: obs.NewTracer()})
	c := &counter{t: t, fx: fx, eng: eng}
	boxes := workload.Boxes(workload.QuerySpec{M: 1, Dims: 2, N: fx.n, Selectivity: 0.05, Seed: 4})
	g := holdDispatches(t, eng)

	c.submit(boxes[0])
	g.next(t, 1) // one miss accepted, its batch held before it dispatches
	calling, got := make(chan struct{}), make(chan string, 1)
	go func() {
		close(calling)
		got <- eng.Trace(0)
	}()
	<-calling
	for i := 0; i < 1000; i++ {
		select {
		case tree := <-got:
			t.Fatalf("Trace(0) returned while the owed batch was still held:\n%s", tree)
		default:
			runtime.Gosched()
		}
	}
	g.release <- struct{}{}
	if tree := <-got; !strings.Contains(tree, "dispatch") {
		t.Fatalf("Trace(0) behind a held batch lacks its dispatch span:\n%s", tree)
	}
	c.wg.Wait()
}
