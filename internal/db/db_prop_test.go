package db

import (
	"math/rand"
	"testing"

	"fivm/internal/data"
	"fivm/internal/ivm"
	"fivm/internal/query"
	"fivm/internal/ring"
)

// The DB property: a DB with K registered views over one shared update
// stream must be byte-identical, per view and per epoch, to K independently
// built engines fed the same batches. Exercised for views over the {Int,
// Cofactor} (and Float) rings, with inserts and deletes; run under -race in
// CI.

// oracle pairs an independent maintainer — an engine or the re-evaluation
// fixture — with the delta builder replicating the DB's
// multiplicity lifting for its ring.
type oracle[P any] struct {
	m interface {
		ApplyDeltas(batch []ivm.NamedDelta[P]) error
	}
	// entries reads m's result, key-sorted.
	entries func() []data.Entry[P]
	q       query.Query
	ring    ring.Ring[P]
}

func (o *oracle[P]) apply(t *testing.T, ups []Update) {
	t.Helper()
	// Coalesce exactly as the DB does: per-relation signed multiplicities,
	// then lift n -> n·1.
	byRel := map[string]*data.Relation[int64]{}
	var order []string
	for _, u := range ups {
		rd, ok := o.q.Rel(u.Rel)
		if !ok {
			continue
		}
		mult := u.Mult
		if mult == 0 {
			mult = 1
		}
		dr := byRel[u.Rel]
		if dr == nil {
			dr = data.NewRelation[int64](ring.Int{}, rd.Schema)
			byRel[u.Rel] = dr
			order = append(order, u.Rel)
		}
		for _, tp := range u.Tuples {
			dr.Merge(tp, mult)
		}
	}
	var batch []ivm.NamedDelta[P]
	for _, rel := range order {
		src := byRel[rel]
		if src.Len() == 0 {
			continue
		}
		d := data.NewRelation[P](o.ring, src.Schema())
		src.Iterate(func(tp data.Tuple, n int64) bool {
			d.Set(tp, data.Mult(o.ring, n))
			return true
		})
		batch = append(batch, ivm.NamedDelta[P]{Rel: rel, Delta: d})
	}
	if err := o.m.ApplyDeltas(batch); err != nil {
		t.Fatal(err)
	}
}

func propCofLift(v string, x data.Value) ring.Triple {
	idx := map[string]int{"A": 0, "B": 1, "C": 2, "D": 3}
	return ring.LiftValue(idx[v], x.AsFloat())
}

func propSumLift(v string, x data.Value) float64 {
	if v == "D" {
		return x.AsFloat()
	}
	return 1
}

// randomUpdates builds one multi-relation batch mixing inserts and deletes.
// Deletes target previously inserted tuples so supports stay sensible.
func randomUpdates(rng *rand.Rand, live map[string][]data.Tuple) []Update {
	rels := []string{"R", "S", "T"}
	n := 1 + rng.Intn(4)
	var out []Update
	for i := 0; i < n; i++ {
		rel := rels[rng.Intn(len(rels))]
		if prev := live[rel]; len(prev) > 0 && rng.Intn(4) == 0 {
			k := rng.Intn(len(prev))
			out = append(out, Delete(rel, prev[k]))
			live[rel] = append(prev[:k:k], prev[k+1:]...)
			continue
		}
		m := 1 + rng.Intn(3)
		ts := make([]data.Tuple, m)
		for j := range ts {
			ts[j] = tup(int64(rng.Intn(5)), int64(rng.Intn(4)))
		}
		out = append(out, Insert(rel, ts...))
		live[rel] = append(live[rel], ts...)
	}
	return out
}

// The single case keeps the name workers=1: one engine maintains each view.
func TestDBMatchesIndependentEngines(t *testing.T) {
	t.Run("workers=1", dbMatchesIndependentEngines)
}

func dbMatchesIndependentEngines(t *testing.T) {
	d, err := Open(testCatalog(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	// Three views of different rings and group-bys over one stream.
	qCnt, qCof, qSum := testQuery("cnt", "A"), testQuery("cof"), testQuery("sum", "C")
	if _, err := CreateView[int64](d, "cnt", qCnt, ring.Int{}, countLift, ViewOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := CreateView[ring.Triple](d, "cof", qCof, ring.Cofactor{}, propCofLift, ViewOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := CreateView[float64](d, "sum", qSum, ring.Float{}, propSumLift, ViewOptions{}); err != nil {
		t.Fatal(err)
	}

	// Independent engines with identical configurations.
	oCnt := newOracle[int64](t, qCnt, ring.Int{}, countLift)
	oCof := newOracle[ring.Triple](t, qCof, ring.Cofactor{}, propCofLift)
	oSum := newOracle[float64](t, qSum, ring.Float{}, propSumLift)

	rng := rand.New(rand.NewSource(7919))
	live := map[string][]data.Tuple{}
	for step := 0; step < 40; step++ {
		ups := randomUpdates(rng, live)
		if err := d.Apply(ups); err != nil {
			t.Fatal(err)
		}
		oCnt.apply(t, ups)
		oCof.apply(t, ups)
		oSum.apply(t, ups)

		e := d.Epoch()
		if e.Applied != uint64(step+1) {
			t.Fatalf("epoch applied = %d at step %d", e.Applied, step)
		}
		checkView(t, step, "cnt", SnapshotOf[int64](e, "cnt"), oCnt)
		checkView(t, step, "cof", SnapshotOf[ring.Triple](e, "cof"), oCof)
		checkView(t, step, "sum", SnapshotOf[float64](e, "sum"), oSum)
	}
}

func newOracle[P any](t *testing.T, q query.Query, r ring.Ring[P], lift data.LiftFunc[P]) *oracle[P] {
	t.Helper()
	m, err := ivm.New[P](q, nil, r, lift, ivm.Options[P]{Stats: data.NewStats().Clone()})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Init(); err != nil {
		t.Fatal(err)
	}
	m.Snapshot()
	entries := func() []data.Entry[P] { return m.Snapshot().Result().SortedEntries() }
	return &oracle[P]{m: m, entries: entries, q: q, ring: r}
}

func checkView[P any](t *testing.T, step int, name string, snap *ivm.ViewSnapshot[P], o *oracle[P]) {
	t.Helper()
	if snap == nil {
		t.Fatalf("step %d: no snapshot for %s", step, name)
	}
	got := fpEntries(snap.Result().SortedEntries())
	want := fpEntries(o.entries())
	if got != want {
		t.Fatalf("step %d view %s:\n db    %s\n solo  %s", step, name, got, want)
	}
}

// TestDBBackfillMidStream: a view created after a stream prefix must be
// byte-identical, from its first epoch on, to one registered from the start.
func TestDBBackfillMidStream(t *testing.T) {
	t.Run("workers=1", dbBackfillMidStream)
}

func dbBackfillMidStream(t *testing.T) {
	d, err := Open(testCatalog(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	q := testQuery("late", "A")
	o := newOracle[int64](t, q, ring.Int{}, countLift)

	rng := rand.New(rand.NewSource(42))
	live := map[string][]data.Tuple{}
	var batches [][]Update
	for i := 0; i < 30; i++ {
		batches = append(batches, randomUpdates(rng, live))
	}

	// First half: only the oracle maintains the view; the DB just
	// ingests (no views registered at all).
	for _, ups := range batches[:15] {
		if err := d.Apply(ups); err != nil {
			t.Fatal(err)
		}
		o.apply(t, ups)
	}

	// Mid-stream registration backfills from the shared bases.
	if _, err := CreateView[int64](d, "late", q, ring.Int{}, countLift, ViewOptions{}); err != nil {
		t.Fatal(err)
	}
	checkView(t, 15, "late(backfill)", SnapshotOf[int64](d.Epoch(), "late"), o)

	// Second half: both maintain; identical at every epoch.
	for i, ups := range batches[15:] {
		if err := d.Apply(ups); err != nil {
			t.Fatal(err)
		}
		o.apply(t, ups)
		checkView(t, 15+i, "late", SnapshotOf[int64](d.Epoch(), "late"), o)
	}
}
