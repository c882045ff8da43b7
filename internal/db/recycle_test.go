package db

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"fivm/internal/data"
	"fivm/internal/query"
	"fivm/internal/ring"
)

// dashboard registers four scalar views shaped like the benchmark's
// dashboardViews: a grand total and a group-by over the three-way join, a
// group-by with many keys and a SUM(1) over two relations each.
func dashboard(t testing.TB, d *DB) {
	t.Helper()
	r, s, tt := query.RelDef{Name: "R", Schema: data.NewSchema("A", "B")},
		query.RelDef{Name: "S", Schema: data.NewSchema("A", "C")}, query.RelDef{Name: "T", Schema: data.NewSchema("C", "D")}
	one := func(string, data.Value) float64 { return 1 }
	for _, v := range []struct {
		q    query.Query
		lift data.LiftFunc[float64]
	}{
		{testQuery("v_total"), propSumLift},
		{testQuery("v_by_a", "A"), propSumLift},
		{query.MustNew("v_by_ac", data.NewSchema("A", "C"), r, s), one},
		{query.MustNew("v_by_c", data.NewSchema("C"), s, tt), one},
	} {
		if _, err := CreateView[float64](d, v.q.Name, v.q, ring.Float{}, v.lift, ViewOptions{}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAllocGuardPublish says what an epoch costs: four dashboard views over
// an in-memory DB, 100-tuple batches inserted and retracted under group keys
// the views already hold, every lease released. An Apply then allocates only
// what a snapshot arena records per publish generation — the sentinel, and the
// closure and its heap cell inside runtime.AddCleanup: 3 objects per publishing
// relation and data's genSpan = 16 publishes. The epoch, its view snapshots and
// their relation snapshots are the structs the released ones gave back. A
// reader that pins one epoch costs the same over 1 008 batches as over 2 000 —
// the headers and chunks it holds, and a replacement for each row it reads,
// once — and when it lets go the guard reads as before (a return list is
// eight slots, and the stand-ins for the pinned headers are the only ones ever
// allocated again).
func TestAllocGuardPublish(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc guards run in the non-race pass")
	}
	const keys, batch, views, genSpan = 20, 100, 4, 16
	d, err := Open(testCatalog(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	dashboard(t, d)
	var load [3][]data.Tuple
	for k := int64(0); k < keys; k++ {
		load[0], load[1], load[2] = append(load[0], tup(k, 0)), append(load[1], tup(k, k)), append(load[2], tup(k, 7))
	}
	if err := d.Apply([]Update{Insert("R", load[0]...), Insert("S", load[1]...), Insert("T", load[2]...)}); err != nil {
		t.Fatal(err)
	}
	// Half the batch is new R rows, half S rows the store holds already.
	var rows [2][]data.Tuple
	for i := int64(0); i < batch/2; i++ {
		rows[0], rows[1] = append(rows[0], tup(i%keys, 1+i)), append(rows[1], tup(i%keys, i%keys))
	}
	ins := []Update{Insert("R", rows[0]...), Insert("S", rows[1]...)}
	del := []Update{Delete("R", rows[0]...), Delete("S", rows[1]...)}
	// extra returns the heap objects n batches allocate beyond the arenas' own.
	extra := func(n int) int {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for b := 0; b < n; b++ {
			ups := ins
			if b%2 == 1 {
				ups = del
			}
			if err := d.Apply(ups); err != nil {
				t.Fatal(err)
			}
			d.Epoch().Release()
		}
		runtime.ReadMemStats(&after)
		return int(after.Mallocs-before.Mallocs) - 3*views*n/genSpan
	}
	extra(4000) // warm the pools, the slabs and the return lists
	if got := extra(1600); got > 4 {
		t.Errorf("1600 batches with every lease released allocate %d objects beyond the arenas' generations, want none", got)
	}
	pinned := d.Epoch()
	was := pinned.Recycled
	// The pin holds the rows it reads, and the next batches replace each of
	// them (touchEntry) with an entry and key bytes bought once: two objects a
	// row, on top of the constant under 64 the headers and the chunks take.
	held := 0
	for _, name := range d.Views() {
		held += SnapshotOf[float64](pinned, name).Result().Len()
	}
	first := extra(1008) // whole generations: extra's count is exact
	total := first + extra(992)
	t.Logf("a pinned epoch reading %d rows: %d objects over 1008 batches, %d over 2000", held, first, total)
	if held > keys*views || first > 64+2*held || total > first+4 {
		t.Errorf("1008 and 2000 batches under a pinned epoch allocate %d and %d objects beyond the arenas' generations, "+
			"want the same, under 64 and two per row it reads (%d, at most keys·views = %d)", first, total, held, keys*views)
	}
	if pinned.Seq != d.seq-2000 || SnapshotOf[float64](pinned, "v_by_a").Result().Len() != keys {
		t.Errorf("the pinned epoch moved: it reads seq %d, 2000 epochs after it the DB is at %d", pinned.Seq, d.seq)
	}
	pinned.Release()
	extra(100)
	if got := extra(1600); got > 4 {
		t.Errorf("1600 batches after the pin's release allocate %d objects beyond the arenas' generations, want none", got)
	}
	e := d.Epoch()
	defer e.Release()
	// One header of each kind stood in for the pinned one's: an epoch, a view
	// snapshot and a relation snapshot per view.
	if now := e.Recycled; now.Allocated-was.Allocated != 1+2*views || now.Reused-was.Reused != 3699*(1+2*views) {
		t.Errorf("headers %+v before the pin, %+v after it: want %d allocated for the pinned epoch's and all others reused",
			was, now, 1+2*views)
	}
}

// TestEpochRecycleReaders: eight readers lease the current epoch in a loop
// while the writer publishes 50 000 — every struct a reader is handed was
// another epoch before, and a reader preempted between loading the pointer
// and retaining finds a later one there. Each reader must see Seq never go
// back and every epoch whole: the SUM(1) view counts exactly the rows Applied
// batches inserted, at the view epoch of that batch, and the per-view and
// per-relation slices — which change length with the CREATE/DROP VIEW pair
// every 1 000 epochs — match the catalogue. Two readers forget every tenth
// lease. Runs under -race in CI, and under the package's poison hook: a
// released header reads ^0 and nil.
func TestEpochRecycleReaders(t *testing.T) {
	const epochs, rows, readers = 50000, 3, 8
	sch := data.NewSchema("A", "B")
	d, err := Open(Catalog{"R": sch}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	rel := query.RelDef{Name: "R", Schema: sch}
	if _, err := CreateView[int64](d, "n", query.MustNew("n", data.NewSchema(), rel), ring.Int{}, countLift, ViewOptions{}); err != nil {
		t.Fatal(err)
	}
	var (
		stop atomic.Bool
		wg   sync.WaitGroup
	)
	halt := func() { stop.Store(true); wg.Wait() }
	defer halt() // before Close
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(forgetful bool) {
			defer wg.Done()
			var last uint64
			for i := 0; !stop.Load(); i++ {
				e := d.Epoch()
				if e.Seq < last {
					t.Errorf("epoch %d after epoch %d", e.Seq, last)
					return
				}
				last = e.Seq
				names := e.Views()
				rels, bases := e.BaseStats()
				if len(e.views) != len(names) || len(rels) != 1 || len(bases) != 1 {
					t.Errorf("epoch %d: %d views of %v, %d base stats of %v", e.Seq, len(e.views), names, len(bases), rels)
					return
				}
				for _, name := range names {
					if _, ok := e.Stats(name); !ok {
						t.Errorf("epoch %d lists view %s and has no stats of it", e.Seq, name)
						return
					}
				}
				s := SnapshotOf[int64](e, "n")
				if n, _ := s.Result().Get(nil); n != rows*int64(e.Applied) || s.Epoch != e.Applied || bases[0].Tuples != min(rows, rows*int(e.Applied)) {
					t.Errorf("epoch %d after %d batches: view epoch %d counts %d rows, the store holds %d distinct",
						e.Seq, e.Applied, s.Epoch, n, bases[0].Tuples)
					return
				}
				if !forgetful || i%10 != 0 {
					e.Release()
				}
			}
		}(r < 2)
	}
	batch := []Update{Insert("R", tup(1, 1), tup(1, 2), tup(2, 1))}
	byA := query.MustNew("tmp", data.NewSchema("A"), rel)
	for d.seq < epochs {
		switch d.seq % 1000 {
		case 250:
			_, err = CreateView[int64](d, "tmp", byA, ring.Int{}, countLift, ViewOptions{})
		case 750:
			err = d.DropView("tmp")
		default:
			err = d.Apply(batch)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	halt()
	e := d.Epoch()
	defer e.Release()
	t.Logf("headers %+v over %d epochs", e.Recycled, e.Seq)
	if e.Recycled.Reused < e.Recycled.Allocated {
		t.Errorf("headers %+v: the readers that release give too few back", e.Recycled)
	}
}
