package db

import (
	"fmt"
	"strings"
	"testing"

	"fivm/internal/data"
	"fivm/internal/query"
	"fivm/internal/ring"
)

func testCatalog() Catalog {
	return Catalog{
		"R": data.NewSchema("A", "B"),
		"S": data.NewSchema("A", "C"),
		"T": data.NewSchema("C", "D"),
	}
}

func testQuery(name string, free ...string) query.Query {
	return query.MustNew(name, data.NewSchema(free...),
		query.RelDef{Name: "R", Schema: data.NewSchema("A", "B")},
		query.RelDef{Name: "S", Schema: data.NewSchema("A", "C")},
		query.RelDef{Name: "T", Schema: data.NewSchema("C", "D")})
}

func countLift(string, data.Value) int64 { return 1 }

func tup(vals ...int64) data.Tuple {
	t := make(data.Tuple, len(vals))
	for i, v := range vals {
		t[i] = data.Int(v)
	}
	return t
}

func fpEntries[P any](es []data.Entry[P]) string {
	var b strings.Builder
	for _, e := range es {
		fmt.Fprintf(&b, "%v->%v;", e.Tuple, e.Payload)
	}
	return b.String()
}

func TestDBBasicLifecycle(t *testing.T) {
	d, err := Open(testCatalog(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	v, err := CreateView[int64](d, "cnt", testQuery("cnt", "A"), ring.Int{}, countLift, ViewOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CreateView[int64](d, "cnt", testQuery("cnt", "A"), ring.Int{}, countLift, ViewOptions{}); err == nil {
		t.Fatal("duplicate view name should fail")
	}

	if err := d.Apply([]Update{
		Insert("R", tup(1, 10), tup(2, 20)),
		Insert("S", tup(1, 5), tup(2, 6)),
		Insert("T", tup(5, 100), tup(6, 200)),
	}); err != nil {
		t.Fatal(err)
	}

	e := d.Epoch()
	if e.Applied != 1 {
		t.Errorf("Applied = %d", e.Applied)
	}
	s := SnapshotOf[int64](e, "cnt")
	if s == nil {
		t.Fatal("no snapshot for cnt")
	}
	if got, _ := s.Result().Get(tup(1)); got != 1 {
		t.Errorf("cnt[1] = %d, want 1", got)
	}
	if !e.At.Equal(s.At) {
		t.Errorf("the batch was stamped twice: epoch at %v, its view at %v", e.At, s.At)
	}

	// Typed reader pinned at the epoch.
	rd, err := ReaderFor[int64](d, "cnt")
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := rd.Lookup(tup(2)); !ok || got != 1 {
		t.Errorf("reader cnt[2] = %d,%v", got, ok)
	}
	if _, err := ReaderFor[float64](d, "cnt"); err == nil {
		t.Error("payload type mismatch should fail")
	}
	if _, err := ReaderFor[int64](d, "nope"); err == nil {
		t.Error("unknown view should fail")
	}

	// Deletion via negative multiplicity.
	if err := d.Apply([]Update{Delete("R", tup(1, 10))}); err != nil {
		t.Fatal(err)
	}
	if got, ok := SnapshotOf[int64](d.Epoch(), "cnt").Result().Get(tup(1)); ok {
		t.Errorf("cnt[1] still %d after delete", got)
	}
	if e2 := d.Epoch(); e2.cat != e.cat {
		t.Error("epochs between view DDL do not share their catalogue")
	}

	// The reader advances monotonically.
	if !rd.Refresh() {
		t.Error("reader did not advance")
	}

	// Drop: epoch no longer carries the view; pinned snapshots keep working.
	pinned := SnapshotOf[int64](d.Epoch(), "cnt")
	if err := d.DropView("cnt"); err != nil {
		t.Fatal(err)
	}
	if d.Epoch().Has("cnt") || len(d.Epoch().Views()) != 0 {
		t.Error("dropped view still in epoch")
	}
	if !e.Has("cnt") || len(e.Views()) != 1 {
		t.Error("the drop reached an epoch published before it")
	}
	if pinned.Result().Len() == 0 {
		t.Error("pinned snapshot lost its entries")
	}
	if err := d.DropView("cnt"); err == nil {
		t.Error("double drop should fail")
	}
	_ = v
}

func TestDBValidation(t *testing.T) {
	if _, err := Open(Catalog{}, Options{}); err == nil {
		t.Error("empty catalog should fail")
	}
	d, err := Open(testCatalog(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	bad := query.MustNew("bad", data.NewSchema("A"),
		query.RelDef{Name: "Z", Schema: data.NewSchema("A")})
	if _, err := CreateView[int64](d, "bad", bad, ring.Int{}, countLift, ViewOptions{}); err == nil {
		t.Error("unknown relation should fail")
	}
	mismatch := query.MustNew("bad2", data.NewSchema("A"),
		query.RelDef{Name: "R", Schema: data.NewSchema("A", "X")})
	if _, err := CreateView[int64](d, "bad2", mismatch, ring.Int{}, countLift, ViewOptions{}); err == nil {
		t.Error("schema mismatch should fail")
	}
	if err := d.Apply([]Update{Insert("Z", tup(1))}); err == nil {
		t.Error("unknown relation in Apply should fail")
	}
	if err := d.Apply([]Update{Insert("R", tup(1))}); err == nil {
		t.Error("arity mismatch in Apply should fail")
	}
}

func TestDBSQLViews(t *testing.T) {
	d, err := Open(testCatalog(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	msg, err := d.Exec("CREATE VIEW sums AS SELECT A, SUM(B * D) FROM R NATURAL JOIN S NATURAL JOIN T GROUP BY A")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(msg, "sums") {
		t.Errorf("msg = %q", msg)
	}
	if err := d.Apply([]Update{
		Insert("R", tup(1, 3)),
		Insert("S", tup(1, 7)),
		Insert("T", tup(7, 5)),
	}); err != nil {
		t.Fatal(err)
	}
	s := SnapshotOf[float64](d.Epoch(), "sums")
	if s == nil {
		t.Fatal("no snapshot for sums")
	}
	if got, _ := s.Result().Get(tup(1)); got != 15 {
		t.Errorf("sums[1] = %g, want 15", got)
	}
	if _, err := d.Exec("SELECT SUM(B) FROM R"); err == nil {
		t.Error("bare SELECT through Exec should fail")
	}
	if _, err := d.Exec("DROP VIEW sums"); err != nil {
		t.Fatal(err)
	}
	if d.HasView("sums") {
		t.Error("sums still registered")
	}

	// CreateViewSQL with a bare SELECT and an explicit name.
	if _, err := CreateViewSQL(d, "cnt", "SELECT A, COUNT(*) FROM R NATURAL JOIN S GROUP BY A", ViewOptions{}); err != nil {
		t.Fatal(err)
	}
	if got, _ := SnapshotOf[float64](d.Epoch(), "cnt").Result().Get(tup(1)); got != 1 {
		t.Errorf("cnt[1] = %g, want 1 (backfilled)", got)
	}
}

// TestDBMultiRingViews is the acceptance shape: one DB maintaining views of
// different rings over one shared stream.
func TestDBMultiRingViews(t *testing.T) {
	d, err := Open(testCatalog(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	if _, err := CreateView[int64](d, "cnt", testQuery("cnt", "A"), ring.Int{}, countLift, ViewOptions{}); err != nil {
		t.Fatal(err)
	}
	sumLift := func(v string, x data.Value) float64 {
		if v == "B" {
			return x.AsFloat()
		}
		return 1
	}
	if _, err := CreateView[float64](d, "sumB", testQuery("sumB", "C"), ring.Float{}, sumLift, ViewOptions{}); err != nil {
		t.Fatal(err)
	}
	vars := data.NewSchema("A", "B", "C", "D")
	cofLift := func(v string, x data.Value) ring.Triple {
		idx := map[string]int{"A": 0, "B": 1, "C": 2, "D": 3}
		_ = vars
		return ring.LiftValue(idx[v], x.AsFloat())
	}
	if _, err := CreateView[ring.Triple](d, "cof", testQuery("cof"), ring.Cofactor{}, cofLift, ViewOptions{}); err != nil {
		t.Fatal(err)
	}

	for i := int64(0); i < 20; i++ {
		if err := d.Apply([]Update{
			Insert("R", tup(i%4, i)),
			Insert("S", tup(i%4, i%3)),
			Insert("T", tup(i%3, i*2)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	e := d.Epoch()
	if len(e.Views()) != 3 {
		t.Fatalf("views = %v", e.Views())
	}
	if SnapshotOf[int64](e, "cnt") == nil ||
		SnapshotOf[float64](e, "sumB") == nil ||
		SnapshotOf[ring.Triple](e, "cof") == nil {
		t.Fatal("missing typed snapshots")
	}
	st := d.ViewStatsOf("cnt")
	if st.Batches != 20 || st.Keys == 0 || st.Maintain <= 0 || st.PublishedKeys == 0 || st.MemoryBytes == 0 {
		t.Errorf("stats = %+v", st)
	}
	// The epoch carries the same accounting for readers off the maintenance
	// goroutine, minus the state walk.
	es, ok := e.Stats("cnt")
	st.MemoryBytes = 0
	if !ok || es != st {
		t.Errorf("epoch stats = %+v (%v), want %+v", es, ok, st)
	}
	if _, ok := e.Stats("nosuch"); ok {
		t.Errorf("epoch stats of an unknown view")
	}
}
