package db

import (
	"runtime"
	"testing"

	"fivm/internal/data"
	"fivm/internal/datasets"
)

// TestAllocGuardDashboardCycle: the benchmark's multiview-durable views — the
// four dashboard SQL views over Retailer — in memory, the stream inserted and
// retracted batch by batch through Apply, nobody reading. From the second
// cycle on no view buys a row: every row a cycle re-creates, and every copy a
// first touch after a publish makes, lands in an entry one of its removals or
// replacements gave back (TuplesCopied stays put, RowsReused grows by what the
// cycle reclaimed and TouchCopies) and none waits retired. What a cycle allocates is
// one site, counted exactly: the snapshot arenas' generation records, three
// objects per 16 publishes that patch a view's result (TestAllocGuardPublish).
// A reader that pins an epoch shows as RowsRetired climbing, and costs
// nothing once it lets go.
func TestAllocGuardDashboardCycle(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc guards run in the non-race pass")
	}
	const genSpan = 16
	ds := datasets.GenRetailer(datasets.RetailerConfig{Locations: 4, Dates: 10, Items: 20, ItemsPerLocDate: 6, Seed: 7})
	cat := Catalog{}
	for _, rd := range ds.Query.Rels {
		cat[rd.Name] = rd.Schema
	}
	d, err := Open(cat, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	const fiveWay = "Inventory NATURAL JOIN Item NATURAL JOIN Weather NATURAL JOIN Location NATURAL JOIN Census"
	var views []*View[float64]
	for _, sql := range []string{
		"CREATE VIEW v_total AS SELECT SUM(inventoryunits) FROM " + fiveWay,
		"CREATE VIEW v_by_locn AS SELECT locn, SUM(inventoryunits) FROM " + fiveWay + " GROUP BY locn",
		"CREATE VIEW v_by_locn_date AS SELECT locn, dateid, SUM(inventoryunits) FROM Inventory NATURAL JOIN Weather GROUP BY locn, dateid",
		"CREATE VIEW v_by_ksn AS SELECT ksn, SUM(1) FROM Inventory NATURAL JOIN Item GROUP BY ksn",
	} {
		v, err := CreateViewSQL(d, "", sql, ViewOptions{})
		if err != nil {
			t.Fatal(err)
		}
		views = append(views, v)
	}
	var ins, del [][]Update
	for _, b := range datasets.RoundRobinStream(ds, ds.Query.RelNames(), 100) {
		ins, del = append(ins, []Update{Insert(b.Rel, b.Tuples...)}), append(del, []Update{Delete(b.Rel, b.Tuples...)})
	}
	pool := func(v *View[float64]) data.PoolStats {
		return v.m.PoolStats()
	}
	// patches counts the publishes that patch a view's result, each epoch the
	// view published since the last call seen once.
	last := make([]uint64, len(views))
	patches := func() (n int) {
		for i, v := range views {
			s := v.Snapshot()
			if s.Epoch != last[i] && s.Patched > 0 {
				n++
			}
			last[i] = s.Epoch
			s.Release()
		}
		return n
	}
	half := func(batches [][]Update, count bool) (patched int) {
		for _, b := range batches {
			if err := d.Apply(b); err != nil {
				t.Fatal(err)
			}
			if count {
				patched += patches()
			}
		}
		return patched
	}
	// Warm: pools, slabs and tables reach their size in one cycle; the
	// snapshot arenas hold every chunk their generations need once each has
	// gone through every phase a cycle can start a generation in, four times.
	for range 4 * genSpan {
		half(ins, false)
		half(del, false)
	}
	patches()
	perCycle := half(ins, true) + half(del, true)

	// Sixteen cycles: every view's result closes as many arena generations as
	// a cycle patches it, whatever the phase they started in.
	before := make([]data.PoolStats, len(views))
	for i, v := range views {
		before[i] = pool(v)
	}
	// The runtime allocates on its own now and then (starting a thread, say):
	// of three such runs the least is the dashboard's.
	objects, bytes := ^uint64(0), uint64(0)
	for range 3 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for range genSpan {
			half(ins, false)
			half(del, false)
		}
		runtime.ReadMemStats(&m1)
		if n := m1.Mallocs - m0.Mallocs; n < objects {
			objects, bytes = n, m1.TotalAlloc-m0.TotalAlloc
		}
	}
	if objects != uint64(3*perCycle) {
		t.Errorf("%d cycles allocated %d objects (%d bytes) at the least, want the arenas' %d generation records (3 per %d patching publishes, %d a cycle)",
			genSpan, objects, bytes, 3*perCycle, genSpan, perCycle)
	}
	for i, v := range views {
		ps := pool(v)
		bought, reused, reclaimed := ps.TuplesCopied-before[i].TuplesCopied, ps.RowsReused-before[i].RowsReused, ps.Reclaimed-before[i].Reclaimed
		copies := ps.TouchCopies - before[i].TouchCopies
		if bought != 0 || reused != reclaimed+copies || reclaimed == 0 || copies == 0 || ps.RowsRetired != 0 {
			t.Errorf("view %s: %d rows bought, %d reused for %d reclaimed and %d copied on a first touch, %d retired; want none bought, all reused, none retired",
				v.name, bought, reused, reclaimed, copies, ps.RowsRetired)
		}
	}

	// A reader that holds the full database's epoch through the retraction
	// holds the rows it reads; they come back once it lets go.
	half(ins, false)
	pinned := d.Epoch()
	half(del, false)
	retired := 0
	for _, name := range d.Views() {
		retired += d.ViewStatsOf(name).RowsRetired
	}
	if retired == 0 {
		t.Error("rows_retired stays 0 while a reader holds the full database's epoch through its retraction")
	}
	pinned.Release()
	half(ins, false)
	half(del, false)
	for _, v := range views {
		if ps := pool(v); ps.RowsRetired != 0 {
			t.Errorf("view %s: %d rows still retired after the reader let go", v.name, ps.RowsRetired)
		}
	}
	t.Logf("%d tuples in %d batches a half; %d patching publishes a cycle; %d rows retired under the pinned epoch",
		ds.TotalTuples(), len(ins), perCycle, retired)
}
