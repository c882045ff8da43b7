package db

import (
	"math/rand"
	"testing"

	"fivm/internal/data"
	"fivm/internal/datasets"
	"fivm/internal/wal"
)

// backfillViews are SQL views over testCatalog of every shape a backfill
// takes: a chain over one relation read in place, two- and three-way joins,
// a view of the whole rows, and the options that change what the tree stores.
var backfillViews = []struct {
	name, sql string
	opts      ViewOptions
}{
	{"byA", "SELECT A, SUM(B) FROM R GROUP BY A", ViewOptions{}},
	{"rows", "SELECT A, C, SUM(1) FROM S GROUP BY A, C", ViewOptions{}},
	{"sums", "SELECT A, SUM(B * D) FROM R NATURAL JOIN S NATURAL JOIN T GROUP BY A", ViewOptions{}},
	{"sumsComposed", "SELECT A, SUM(B * D) FROM R NATURAL JOIN S NATURAL JOIN T GROUP BY A", ViewOptions{ComposeChains: true}},
	{"sumsCost", "SELECT A, SUM(B * D) FROM R NATURAL JOIN S NATURAL JOIN T GROUP BY A", ViewOptions{CostMaterialize: true}},
	{"sumsSharded", "SELECT A, SUM(B * D) FROM R NATURAL JOIN S NATURAL JOIN T GROUP BY A", ViewOptions{}},
	{"byC", "SELECT C, COUNT(*) FROM S NATURAL JOIN T GROUP BY C", ViewOptions{}},
	{"total", "SELECT SUM(B) FROM R NATURAL JOIN S", ViewOptions{}},
}

// randomHistory is batches of inserts and deletes over testCatalog: rows are
// inserted up to three times each, and deletes take back earlier inserts.
func randomHistory(seed int64, batches int) [][]Update {
	rng := rand.New(rand.NewSource(seed))
	live := map[string][]data.Tuple{}
	var out [][]Update
	for b := 0; b < batches; b++ {
		var batch []Update
		for _, rel := range []string{"R", "S", "T"} {
			var ins, del []data.Tuple
			for i := 0; i < 8; i++ {
				t := tup(int64(rng.Intn(6)), int64(rng.Intn(6)))
				for n := rng.Intn(3); n >= 0; n-- {
					ins = append(ins, t)
				}
				live[rel] = append(live[rel], t)
			}
			for i := 0; i < 3 && len(live[rel]) > 8; i++ {
				j := rng.Intn(len(live[rel]))
				del = append(del, live[rel][j])
				live[rel] = append(live[rel][:j], live[rel][j+1:]...)
			}
			batch = append(batch, Insert(rel, ins...))
			if len(del) > 0 {
				batch = append(batch, Delete(rel, del...))
			}
		}
		out = append(out, batch)
	}
	return out
}

// viewRows renders every backfillViews view of an epoch.
func viewRows(t *testing.T, d *DB) map[string]string {
	t.Helper()
	e := d.Epoch()
	defer e.Release()
	out := map[string]string{}
	for _, v := range backfillViews {
		s := SnapshotOf[float64](e, v.name)
		if s == nil {
			t.Fatalf("no view %s", v.name)
		}
		out[v.name] = fpEntries(s.Result().SortedEntries())
	}
	return out
}

func createBackfillViews(t *testing.T, d *DB) {
	t.Helper()
	for _, v := range backfillViews {
		if _, err := CreateViewSQL(d, v.name, v.sql, v.opts); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBackfillMatchesFedViews: a view created over a loaded base store — read
// in place, multiplicities lifted as they are read — holds exactly what the
// same view holds when created empty and fed the same history; and a
// follower bootstrapped from a checkpoint, whose views are backfilled, equals
// its primary view by view.
func TestBackfillMatchesFedViews(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		history := randomHistory(seed, 12)
		fed, late := openTest(t), openTest(t)
		createBackfillViews(t, fed)
		for _, b := range history {
			for _, d := range []*DB{fed, late} {
				if err := d.Apply(b); err != nil {
					t.Fatal(err)
				}
			}
		}
		createBackfillViews(t, late)
		want := viewRows(t, fed)
		for name, got := range viewRows(t, late) {
			if got != want[name] {
				t.Fatalf("seed %d: %s backfilled reads %s, fed %s", seed, name, got, want[name])
			}
		}

		p, pfs, _ := followerPair(t)
		createBackfillViews(t, p)
		for i, b := range history {
			if err := p.Apply(b); err != nil {
				t.Fatal(err)
			}
			if i == len(history)/2 {
				if err := p.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
		}
		raw, _, err := wal.LatestCheckpointBytes(pfs, "p")
		if err != nil {
			t.Fatal(err)
		}
		ck, err := wal.DecodeCheckpointBytes(raw)
		if err != nil {
			t.Fatal(err)
		}
		f, err := Open(testCatalog(), Options{Follower: true, Bootstrap: ck})
		if err != nil {
			t.Fatal(err)
		}
		shipAll(t, pfs, f)
		for name, got := range viewRows(t, f) {
			if got != want[name] {
				t.Fatalf("seed %d: %s on the bootstrapped follower reads %s, its primary %s", seed, name, got, want[name])
			}
		}
		f.Close()
	}
}

func openTest(t *testing.T) *DB {
	t.Helper()
	d, err := Open(testCatalog(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

// TestAllocGuardBackfill: creating a SQL view over a preloaded relation
// allocates in proportion to the rows the view stores, not to the base rows
// it reads, which the engine lifts in place. Measured: about 550 objects over
// 3 000 and over 30 000 rows into 100 groups (within ±15 of each other), and
// 2.2 more per group at 1 000 groups — 3.2 while a projected insert built a
// heap tuple for the view to copy. When every base row cost a lifted copy
// and a relation per view-tree node, the same three read 30 076, 291 822 and
// 297 244.
func TestAllocGuardBackfill(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc guards run in the non-race pass")
	}
	objects := func(rows, groups int) float64 {
		d, err := Open(Catalog{"R": data.NewSchema("A", "B", "C")}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		load := make([]data.Tuple, rows)
		for i := range load {
			load[i] = tup(int64(i%groups), int64(i), int64(i%13))
		}
		if err := d.Apply([]Update{Insert("R", load...)}); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			v, err := CreateViewSQL(d, "g", "SELECT A, SUM(C) FROM R GROUP BY A", ViewOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if s := v.Snapshot(); s.Result().Len() != groups {
				t.Fatalf("backfilled %d groups, want %d", s.Result().Len(), groups)
			} else {
				s.Release()
			}
			if err := d.DropView("g"); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large, wide := objects(3000, 100), objects(30000, 100), objects(30000, 1000)
	t.Logf("objects per backfill: %.0f over 3 000 rows into 100 groups, %.0f over 30 000 rows into 100, %.0f over 30 000 into 1 000", small, large, wide)
	if large > small+64 || wide > large+3*900 {
		t.Errorf("backfill allocates %.0f objects over 3 000 rows, %.0f over 30 000 into 100 groups, %.0f into 1 000: more than the view's rows", small, large, wide)
	}
}

// BenchmarkCreateViewLoaded is what CREATE VIEW costs over a loaded store: a
// five-way SQL view without an order over DefaultRetailer, which ANALYZEs the
// five stored relations, plans, and backfills from them.
func BenchmarkCreateViewLoaded(b *testing.B) {
	ds := datasets.GenRetailer(datasets.DefaultRetailer())
	cat := Catalog{}
	var batch []Update
	for _, rd := range ds.Query.Rels {
		cat[rd.Name] = rd.Schema
		batch = append(batch, Insert(rd.Name, ds.Tuples[rd.Name]...))
	}
	d, err := Open(cat, Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	if err := d.Apply(batch); err != nil {
		b.Fatal(err)
	}
	const sql = "SELECT locn, SUM(inventoryunits) FROM Inventory NATURAL JOIN Item NATURAL JOIN Weather NATURAL JOIN Location NATURAL JOIN Census GROUP BY locn"
	b.ResetTimer()
	for range b.N {
		if _, err := CreateViewSQL(d, "v", sql, ViewOptions{}); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := d.DropView("v"); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
