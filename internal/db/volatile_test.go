package db

import (
	"fmt"
	"math/rand"
	"testing"

	"fivm/internal/data"
	"fivm/internal/ivm"
	"fivm/internal/query"
	"fivm/internal/ring"
	"fivm/internal/sqlparse"
	"fivm/internal/vorder"
)

// arenaBatch copies a heap batch into a, the way a wire decoder builds one.
func arenaBatch(a *data.BatchArena, ups []Update) []Update {
	out := a.Updates(len(ups))
	for _, u := range ups {
		ts := a.Tuples(len(u.Tuples))
		for _, t := range u.Tuples {
			ts = append(ts, append(a.Tuple(len(t))[:0], t...))
		}
		out = append(out, a.Update(u.Rel, u.Mult, ts))
	}
	return out
}

// reEvalOracle is a from-scratch oracle for one view, fed heap batches.
func reEvalOracle[P any](t *testing.T, q query.Query, o *vorder.Order, r ring.Ring[P], lift data.LiftFunc[P]) *oracle[P] {
	t.Helper()
	m, err := ivm.NewReEval[P](q, o, r, lift)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Init(); err != nil {
		t.Fatal(err)
	}
	return &oracle[P]{m: m, entries: func() []data.Entry[P] { return m.Result().SortedEntries() }, q: q, ring: r}
}

// checkEngineViews checks every materialized view of a view's engine —
// leaves and inner views, not just the published root — for entries whose
// tuple is no longer the tuple of their key.
func checkEngineViews[P any](t *testing.T, what string, v *View[P]) {
	t.Helper()
	e := v.Maintainer()
	for _, name := range e.ViewNames() {
		checkOwnKeys(t, what+": view "+v.name+"/"+name, e.ViewByName(name))
	}
}

// TestVolatileBatchDiesWithApply: every batch is built in an arena that is
// rewound — and, under this package's poison hook, scribbled over — as soon
// as Apply returns, the way POST /apply and a follower treat theirs. Sixty
// churn batches (groups run empty and come back, so views keep adopting keys)
// go through (i) a view that stores every tuple of R in its leaf and its
// root, (ii) the R ⋈ S ⋈ U plan of ivm.TestStepOutputOwnership, whose path of
// R starts with a step that shares the arena's tuples, (iii) a relation
// keyed by strings, (iv) a view created mid-stream, backfilled from the base
// store, and one-shot SELECTs (create, read the epoch, drop). After every
// batch every entry of every view and base relation must hold the tuple of
// its key, and every published result must equal re-evaluation; the tuples
// the arena handed out read poison. The single case keeps the name
// workers=1: one engine maintains each view.
func TestVolatileBatchDiesWithApply(t *testing.T) {
	t.Run("workers=1", volatileBatchDiesWithApply)
}

func volatileBatchDiesWithApply(t *testing.T) {
	cat := Catalog{
		"R": data.NewSchema("Z", "A", "B"),
		"S": data.NewSchema("A", "C"),
		"U": data.NewSchema("Z", "W"),
		"N": data.NewSchema("K", "V"),
	}
	rel := func(name string) query.RelDef { return query.RelDef{Name: name, Schema: cat[name]} }
	lift := func(v string, x data.Value) int64 {
		if v == "B" || v == "W" {
			return x.AsInt() + 1
		}
		return 1
	}
	sumV := func(v string, x data.Value) float64 {
		if v == "V" {
			return x.AsFloat()
		}
		return 1
	}
	order := func() *vorder.Order {
		return vorder.MustNew(vorder.V("Z", vorder.V("A", vorder.V("B"), vorder.V("C")), vorder.V("W")))
	}
	qRows := query.MustNew("rows", cat["R"], rel("R"))
	qOwn := query.MustNew("own", data.NewSchema("Z", "C"), rel("R"), rel("S"), rel("U"))
	qNames := query.MustNew("names", data.NewSchema("K"), rel("N"))
	qLate := query.MustNew("late", data.NewSchema("A"), rel("R"), rel("S"))
	const selectSQL = "SELECT A, SUM(B * C) FROM R NATURAL JOIN S GROUP BY A"

	d, err := Open(cat, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	vRows, err := CreateView[int64](d, "rows", qRows, ring.Int{}, lift, ViewOptions{})
	if err != nil {
		t.Fatal(err)
	}
	vOwn, err := CreateView[int64](d, "own", qOwn, ring.Int{}, lift, ViewOptions{Order: order})
	if err != nil {
		t.Fatal(err)
	}
	vNames, err := CreateView[float64](d, "names", qNames, ring.Float{}, sumV, ViewOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var vLate *View[int64]
	oRows := reEvalOracle[int64](t, qRows, nil, ring.Int{}, lift)
	oOwn := reEvalOracle[int64](t, qOwn, order(), ring.Int{}, lift)
	oNames := reEvalOracle[float64](t, qNames, nil, ring.Float{}, sumV)
	oLate := reEvalOracle[int64](t, qLate, nil, ring.Int{}, lift)
	st, err := sqlparse.ParseStatement(selectSQL, cat)
	if err != nil {
		t.Fatal(err)
	}
	oSel := reEvalOracle[float64](t, st.Select.Query, nil, ring.Float{}, st.Select.LiftFloat())

	rng := rand.New(rand.NewSource(31))
	live := map[string][]data.Tuple{}
	fresh := func(name string) data.Tuple {
		switch name {
		case "R":
			return tup(int64(rng.Intn(3)), int64(rng.Intn(3)), int64(rng.Intn(4)))
		case "N":
			return data.Tuple{data.String(fmt.Sprintf("key-%d", rng.Intn(4))), data.Int(int64(rng.Intn(5)))}
		}
		return tup(int64(rng.Intn(3)), int64(rng.Intn(3)))
	}
	var arena data.BatchArena
	var kept data.Tuple
	for b := 0; b < 60; b++ {
		var ups []Update
		for _, name := range []string{"R", "S", "U", "N"} {
			if rng.Intn(4) == 0 {
				continue
			}
			if prev := live[name]; len(prev) > 3 && rng.Intn(2) == 0 {
				k := rng.Intn(len(prev) - 2)
				ups = append(ups, Delete(name, prev[k], prev[k+1]))
				live[name] = append(prev[:k:k], prev[k+2:]...)
				continue
			}
			ts := make([]data.Tuple, 1+rng.Intn(5))
			for i := range ts {
				ts[i] = fresh(name)
			}
			ups = append(ups, Insert(name, ts...))
			live[name] = append(live[name], ts...)
		}
		if len(ups) == 0 {
			continue
		}
		batch := arenaBatch(&arena, ups)
		if kept == nil {
			kept = batch[0].Tuples[0] // the bug: a tuple of the arena kept past its batch
		}
		if err := d.Apply(batch); err != nil {
			t.Fatal(err)
		}
		e := d.Epoch()
		if e.Ingest.ArenaBytes <= 0 {
			t.Fatalf("batch %d: epoch reports %d arena bytes", b, e.Ingest.ArenaBytes)
		}
		arena.Rewind()
		oRows.apply(t, ups)
		oOwn.apply(t, ups)
		oNames.apply(t, ups)
		oLate.apply(t, ups)
		oSel.apply(t, ups)

		what := fmt.Sprintf("batch %d", b)
		for name := range cat {
			checkOwnKeys(t, what+": base "+name, d.Base(name))
		}
		checkEngineViews(t, what, vRows)
		checkEngineViews(t, what, vOwn)
		checkEngineViews(t, what, vNames)
		checkView(t, b, "rows", SnapshotOf[int64](e, "rows"), oRows)
		checkView(t, b, "own", SnapshotOf[int64](e, "own"), oOwn)
		checkView(t, b, "names", SnapshotOf[float64](e, "names"), oNames)
		if vLate != nil {
			checkEngineViews(t, what, vLate)
			checkView(t, b, "late", SnapshotOf[int64](e, "late"), oLate)
		}
		e.Release()

		if b == 20 { // created mid-stream: backfilled from rows the store owns
			if vLate, err = CreateView[int64](d, "late", qLate, ring.Int{}, lift, ViewOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		if b%10 == 5 { // a one-shot SELECT, as POST /select runs it
			if _, err := CreateViewSQL(d, "__select", selectSQL, ViewOptions{}); err != nil {
				t.Fatal(err)
			}
			snap := d.Epoch()
			if err := d.DropView("__select"); err != nil {
				t.Fatal(err)
			}
			checkView(t, b, "one-shot select", SnapshotOf[float64](snap, "__select"), oSel)
			snap.Release()
		}
	}
	if kept[0] != data.String("\xff<reclaimed>") {
		t.Fatalf("a tuple kept from the arena reads %v after its batch, not poison", kept)
	}
	if c := d.ViewStatsOf("rows").TuplesCopied; c == 0 {
		t.Fatal("rows adopted every tuple of R and counts no copy")
	}
	// A heap batch is durable: its epoch reports no arena.
	if err := d.Apply([]Update{Insert("S", tup(1, 1))}); err != nil {
		t.Fatal(err)
	}
	e := d.Epoch()
	defer e.Release()
	if e.Ingest.ArenaBytes != 0 {
		t.Fatalf("a heap batch reports %d arena bytes", e.Ingest.ArenaBytes)
	}
}
