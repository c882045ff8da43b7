package db

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"fivm/internal/ring"
)

// TestDBEpochCrossViewConsistency registers two views with identical
// definitions and races readers against the maintenance goroutine: within
// any pinned cross-view epoch the two views must be byte-identical (they
// reflect the same applied prefix), and epoch sequence numbers must be
// observed monotonically per reader. Run under -race in CI.
func TestDBEpochCrossViewConsistency(t *testing.T) {
	d, err := Open(testCatalog(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	q1, q2 := testQuery("twinA", "A"), testQuery("twinB", "A")
	if _, err := CreateView[int64](d, "twinA", q1, ring.Int{}, countLift, ViewOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := CreateView[int64](d, "twinB", q2, ring.Int{}, countLift, ViewOptions{}); err != nil {
		t.Fatal(err)
	}

	const readers = 4
	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan string, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastSeq uint64
			for !stop.Load() {
				e := d.Epoch()
				if e.Seq < lastSeq {
					errs <- "epoch sequence regressed"
					return
				}
				lastSeq = e.Seq
				a := SnapshotOf[int64](e, "twinA")
				b := SnapshotOf[int64](e, "twinB")
				if a == nil || b == nil {
					continue
				}
				if ga, gb := fpEntries(a.Result().SortedEntries()), fpEntries(b.Result().SortedEntries()); ga != gb {
					errs <- "twin views diverged within one epoch: " + ga + " vs " + gb
					return
				}
				// The epoch is never released: it is readable while reachable,
				// and the copied entries read its rows up to here.
				runtime.KeepAlive(e)
			}
		}()
	}

	for i := int64(0); i < 120; i++ {
		if err := d.Apply([]Update{
			Insert("R", tup(i%6, i)),
			Insert("S", tup(i%6, i%5)),
			Insert("T", tup(i%5, i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
}
