package db

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func TestApplyQueueAppliesInOrder(t *testing.T) {
	d, err := Open(testCatalog(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	q := NewApplyQueue(d, 8)
	defer q.Close()

	if err := q.Do(func(d *DB) error {
		_, err := d.Exec("CREATE VIEW sums AS SELECT A, SUM(B * C) FROM R NATURAL JOIN S GROUP BY A")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := int64(1); i <= 20; i++ {
		wg.Add(1)
		go func(i int64) {
			defer wg.Done()
			if err := q.Apply([]Update{Insert("R", tup(i, i)), Insert("S", tup(i, 1))}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	// Batches queued together commit as one group, which counts as one.
	if got := d.Epoch().Applied; got < 1 || got > 20 {
		t.Fatalf("applied %d groups for 20 batches", got)
	}
	if got := d.Base("R").Len(); got != 20 {
		t.Fatalf("R holds %d rows, want 20", got)
	}
	s := SnapshotOf[float64](d.Epoch(), "sums")
	if s == nil || s.Result().Len() != 20 {
		t.Fatalf("view has %v groups", s)
	}
}

// TryApply sheds load when the queue is full instead of blocking.
func TestApplyQueueBackpressure(t *testing.T) {
	d, err := Open(testCatalog(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	q := NewApplyQueue(d, 1)
	defer q.Close()

	// Stall the maintenance goroutine so the queue fills.
	release := make(chan struct{})
	started := make(chan struct{})
	stallDone := make(chan error, 1)
	go func() {
		stallDone <- q.Do(func(*DB) error {
			close(started)
			<-release
			return nil
		})
	}()
	<-started

	// Fill the single slot (the filler blocks on its result until the worker
	// resumes), then the next TryApply must fail fast.
	fillDone := make(chan error, 1)
	go func() { fillDone <- q.TryApply([]Update{Insert("R", tup(1, 1))}) }()
	for q.Len() < q.Cap() {
		time.Sleep(time.Millisecond)
	}
	if err := q.TryApply([]Update{Insert("R", tup(2, 2))}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("want ErrQueueFull, got %v", err)
	}
	close(release)
	if err := <-stallDone; err != nil {
		t.Fatal(err)
	}
	if err := <-fillDone; err != nil {
		t.Fatal(err)
	}
	if d.Epoch().Applied != 1 {
		t.Fatalf("applied %d, want 1", d.Epoch().Applied)
	}
}

func TestApplyQueueCloseDrains(t *testing.T) {
	d, err := Open(testCatalog(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	q := NewApplyQueue(d, 16)

	res := make(chan error, 10)
	for i := int64(0); i < 10; i++ {
		i := i
		go func() { res <- q.Apply([]Update{Insert("R", tup(i, i))}) }()
	}
	// Give the senders a moment to enqueue, then close: everything already
	// queued must still apply.
	time.Sleep(10 * time.Millisecond)
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	closedErrs := 0
	for i := 0; i < 10; i++ {
		if err := <-res; err != nil {
			if !errors.Is(err, ErrQueueClosed) {
				t.Fatal(err)
			}
			closedErrs++
		}
	}
	if d.Base("R").Len()+closedErrs != 10 {
		t.Fatalf("applied %d batches + rejected %d != 10", d.Base("R").Len(), closedErrs)
	}
	// After close, enqueues are rejected outright.
	if err := q.TryApply([]Update{Insert("R", tup(99, 99))}); !errors.Is(err, ErrQueueClosed) {
		t.Fatalf("post-close TryApply: %v", err)
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestAllocGuardQueue: a TryApply round trip allocates nothing beyond what the
// Apply it runs does — the reply channel is the queue's, recycled once its one
// reply is received — and a refused item hands its channel back unused.
func TestAllocGuardQueue(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc guards run in the non-race pass")
	}
	d, err := Open(testCatalog(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	dashboard(t, d)
	q := NewApplyQueue(d, 4)
	defer q.Close()
	batches := [2][]Update{{Insert("R", tup(1, 2), tup(2, 3))}, {Delete("R", tup(1, 2), tup(2, 3))}}
	i := 0
	alternate := func(apply func([]Update) error) func() {
		return func() {
			if err := apply(batches[i%2]); err != nil {
				t.Fatal(err)
			}
			i++
		}
	}
	// Between round trips the maintenance goroutine waits on the queue, so
	// applying from here is the single writer too.
	direct, queued := alternate(d.Apply), alternate(q.TryApply)
	for range 200 {
		direct()
		queued()
	}
	want := testing.AllocsPerRun(400, direct)
	if got := testing.AllocsPerRun(400, queued); got > want {
		t.Errorf("a TryApply round trip allocates %.2f objects, the Apply it runs %.2f", got, want)
	}
	q.Close()
	refused := func() {
		if err := q.TryApply(batches[0]); !errors.Is(err, ErrQueueClosed) {
			t.Fatalf("TryApply on a closed queue: %v", err)
		}
	}
	if got := testing.AllocsPerRun(100, refused); got != 0 {
		t.Errorf("a refused TryApply allocates %.2f objects: its reply channel did not go back", got)
	}
}
