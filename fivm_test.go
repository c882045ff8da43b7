// Public API tests: everything a downstream user touches goes through the
// facade, exercised here the way the README shows it. Where a behaviour has
// no public spelling (engine introspection, the optimizer, dataset helpers
// the examples do not need), the test reaches into internal/.
package fivm_test

import (
	"maps"
	"math"
	"math/rand"
	"testing"

	"fivm"
	"fivm/internal/data"
	"fivm/internal/datasets"
	"fivm/internal/vorder"
)

// mustApply applies one batch or fails the test.
func mustApply(t *testing.T, d *fivm.DB, batch ...fivm.DBUpdate) {
	t.Helper()
	if err := d.Apply(batch); err != nil {
		t.Fatal(err)
	}
}

// resultOf copies a view's rows out of the latest epoch.
func resultOf[P any](t *testing.T, d *fivm.DB, view string) map[string]P {
	t.Helper()
	e := d.Epoch()
	defer e.Release()
	s := fivm.ViewSnapshotOf[P](e, view)
	if s == nil {
		t.Fatalf("epoch carries no view %q", view)
	}
	out := map[string]P{}
	for _, en := range s.Result().SortedEntries() {
		out[en.Tuple.Key()] = en.Payload
	}
	return out
}

func TestQuickstartFlow(t *testing.T) {
	d, err := fivm.Open(fivm.SQLCatalog{
		"R": fivm.NewSchema("A", "B"),
		"S": fivm.NewSchema("A", "C", "E"),
		"T": fivm.NewSchema("C", "D"),
	}, fivm.DBOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	q := fivm.MustQuery("Q", fivm.NewSchema("A", "C"),
		fivm.Rel("R", fivm.NewSchema("A", "B")),
		fivm.Rel("S", fivm.NewSchema("A", "C", "E")),
		fivm.Rel("T", fivm.NewSchema("C", "D")))
	ord := func() *fivm.Order {
		return fivm.MustOrder(fivm.V("A", fivm.V("B"), fivm.V("C", fivm.V("D"), fivm.V("E"))))
	}
	lift := func(v string, x fivm.Value) int64 {
		switch v {
		case "B", "D", "E":
			return x.AsInt()
		default:
			return 1
		}
	}
	if _, err := fivm.CreateView[int64](d, "Q", q, fivm.IntRing{}, lift, fivm.ViewOptions{Order: ord}); err != nil {
		t.Fatal(err)
	}

	mustApply(t, d, fivm.InsertInto("R", fivm.Ints(1, 10)))
	mustApply(t, d, fivm.InsertInto("S", fivm.Ints(1, 7, 3)))
	mustApply(t, d, fivm.InsertInto("T", fivm.Ints(7, 100)))
	if p, ok := resultOf[int64](t, d, "Q")[fivm.Ints(1, 7).Key()]; !ok || p != 3000 {
		t.Fatalf("SUM(B*D*E) = %v,%v, want 3000", p, ok)
	}

	// Delete the S tuple: the group disappears.
	mustApply(t, d, fivm.DeleteFrom("S", fivm.Ints(1, 7, 3)))
	if res := resultOf[int64](t, d, "Q"); len(res) != 0 {
		t.Errorf("result not empty after delete: %v", res)
	}
}

func TestSQLToEngineFlow(t *testing.T) {
	d, err := fivm.Open(fivm.SQLCatalog{
		"R": fivm.NewSchema("A", "B"),
		"S": fivm.NewSchema("A", "C"),
	}, fivm.DBOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.Exec("CREATE VIEW q AS SELECT A, SUM(B * C) FROM R NATURAL JOIN S GROUP BY A"); err != nil {
		t.Fatal(err)
	}
	mustApply(t, d, fivm.InsertInto("R", fivm.Ints(1, 4)))
	mustApply(t, d, fivm.InsertInto("S", fivm.Ints(1, 5)))
	if p := resultOf[float64](t, d, "q")[fivm.Ints(1).Key()]; p != 20 {
		t.Fatalf("SUM(B*C) = %v, want 20", p)
	}
}

func TestCofactorModelFlow(t *testing.T) {
	q := fivm.MustQuery("train", nil,
		fivm.Rel("R1", fivm.NewSchema("id", "x")),
		fivm.Rel("R2", fivm.NewSchema("id", "y")))
	ord := fivm.MustOrder(fivm.V("id", fivm.V("x"), fivm.V("y")))
	m, err := fivm.NewCofactorModel(q, ord, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Init(); err != nil {
		t.Fatal(err)
	}
	var r1, r2 []fivm.Tuple
	for i := int64(0); i < 20; i++ {
		x := i % 7
		r1 = append(r1, fivm.Ints(i, x))
		r2 = append(r2, fivm.Ints(i, 2*x+1))
	}
	if err := m.Insert("R1", r1); err != nil {
		t.Fatal(err)
	}
	if err := m.Insert("R2", r2); err != nil {
		t.Fatal(err)
	}
	model, err := m.Train("y", []string{"x"}, fivm.TrainOptions{MaxIters: 100000})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(model.Theta[1]-2) > 1e-3 || math.Abs(model.Theta[0]-1) > 1e-3 {
		t.Errorf("theta = %v, want [1 2]", model.Theta)
	}
}

func TestMatrixChainFlow(t *testing.T) {
	n := 6
	rng := rand.New(rand.NewSource(1))
	ms := []*fivm.Dense{fivm.RandomDense(n, n, rng), fivm.RandomDense(n, n, rng), fivm.RandomDense(n, n, rng)}
	hc, err := fivm.NewHashChain(3, 2, ms)
	if err != nil {
		t.Fatal(err)
	}
	if d := hc.ResultMatrix(n, n).MaxAbsDiff(ms[0].Mul(ms[1]).Mul(ms[2])); d > 1e-9 {
		t.Fatalf("A1·A2·A3 off by %v", d)
	}
	// Rank-1 bump of the middle matrix: A2[0,0] += 1.
	u := make([]float64, n)
	v := make([]float64, n)
	u[0], v[0] = 1, 1
	if err := hc.ApplyRank1(u, v); err != nil {
		t.Fatal(err)
	}
	bumped := ms[1].Clone()
	bumped.Set(0, 0, bumped.At(0, 0)+1)
	if d := hc.ResultMatrix(n, n).MaxAbsDiff(ms[0].Mul(bumped).Mul(ms[2])); d > 1e-9 {
		t.Fatalf("A1·A2·A3 after rank-1 off by %v", d)
	}
}

func TestCQResultFlow(t *testing.T) {
	q := fivm.MustQuery("cq", fivm.NewSchema("A", "B"),
		fivm.Rel("R", fivm.NewSchema("A", "B")))
	ord := fivm.MustOrder(fivm.V("A", fivm.V("B")))
	r, err := fivm.NewCQResult(fivm.FactPayloads, q, ord, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Init(); err != nil {
		t.Fatal(err)
	}
	d := fivm.NewRelation[int64](fivm.IntRing{}, fivm.NewSchema("A", "B"))
	d.Merge(fivm.Ints(1, 2), 1)
	d.Merge(fivm.Ints(1, 3), 1)
	if err := r.ApplyDelta("R", d); err != nil {
		t.Fatal(err)
	}
	s := r.Snapshot()
	if n := s.Count(); n != 2 {
		t.Errorf("Count = %d", n)
	}
	s.Release()
	seen := 0
	r.Enumerate(func(fivm.Tuple) bool { seen++; return true })
	if seen != 2 {
		t.Errorf("enumerated %d tuples", seen)
	}
}

func TestDatasetFacade(t *testing.T) {
	ds := fivm.GenHousing(datasets.HousingConfig{Postcodes: 5, Scale: 1, Seed: 1})
	if ds.TotalTuples() == 0 {
		t.Fatal("empty dataset")
	}
	stream := fivm.RoundRobinStream(ds, ds.Query.RelNames(), 3)
	if len(stream) == 0 {
		t.Fatal("empty stream")
	}
	if len(datasets.SingleRelationStream(ds, ds.Largest, 4)) == 0 {
		t.Fatal("empty single-relation stream")
	}
}

func TestNilOrderFacade(t *testing.T) {
	d, err := fivm.Open(fivm.SQLCatalog{
		"R": fivm.NewSchema("A", "B"),
		"S": fivm.NewSchema("A", "C"),
	}, fivm.DBOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	q := func(name string) fivm.Query {
		return fivm.MustQuery(name, fivm.NewSchema("A"),
			fivm.Rel("R", fivm.NewSchema("A", "B")),
			fivm.Rel("S", fivm.NewSchema("A", "C")))
	}

	// Order: nil self-plans; results must match a view over an explicit
	// order.
	auto, err := fivm.CreateView[int64](d, "auto", q("auto"), fivm.IntRing{}, fivm.CountLift, fivm.ViewOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ord := func() *fivm.Order { return fivm.MustOrder(fivm.V("A", fivm.V("B"), fivm.V("C"))) }
	if _, err := fivm.CreateView[int64](d, "ref", q("ref"), fivm.IntRing{}, fivm.CountLift, fivm.ViewOptions{Order: ord}); err != nil {
		t.Fatal(err)
	}
	mustApply(t, d, fivm.InsertInto("R", fivm.Ints(1, 2), fivm.Ints(2, 2)))
	mustApply(t, d, fivm.InsertInto("S", fivm.Ints(1, 7)))
	got, want := resultOf[int64](t, d, "auto"), resultOf[int64](t, d, "ref")
	if len(want) != 1 || !maps.Equal(got, want) {
		t.Errorf("self-planned %v vs explicit %v", got, want)
	}
	eng := auto.Maintainer()
	if eng.Order() == nil {
		t.Error("no order chosen")
	}
	if eng.Explain() == "" {
		t.Error("empty explain")
	}
}

func TestChooseOrderFacade(t *testing.T) {
	q := fivm.MustQuery("Q", nil,
		fivm.Rel("R", fivm.NewSchema("A", "B")),
		fivm.Rel("S", fivm.NewSchema("B", "C")))
	st := data.NewStats()
	r := fivm.NewRelation[int64](fivm.IntRing{}, fivm.NewSchema("A", "B"))
	for i := int64(0); i < 20; i++ {
		r.Merge(fivm.Ints(i%5, i), 1)
	}
	data.ObserveRelation(st, "R", r)
	o, err := vorder.Choose(q, vorder.ChooseOptions{Stats: st})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Validate(q); err != nil {
		t.Fatal(err)
	}
	m := vorder.NewCostModel(q, st, nil)
	if c := m.Cost(o).Total(); c <= 0 {
		t.Errorf("cost = %v", c)
	}
}

// TestServingReads exercises the snapshot read path the way the README
// "Serving reads" section shows it: pin a reader on a view, stream updates,
// and read consistent epochs.
func TestServingReads(t *testing.T) {
	d, err := fivm.Open(fivm.SQLCatalog{
		"R": fivm.NewSchema("A", "B"),
		"S": fivm.NewSchema("A", "C"),
	}, fivm.DBOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	var rs, ss []fivm.Tuple
	for a := int64(0); a < 10; a++ {
		rs = append(rs, fivm.Ints(a, a%3))
		ss = append(ss, fivm.Ints(a, 1))
	}
	mustApply(t, d, fivm.InsertInto("R", rs...), fivm.InsertInto("S", ss...))

	// A view created now backfills; pin a reader on it and read.
	q := fivm.MustQuery("Q", fivm.NewSchema("A"),
		fivm.Rel("R", fivm.NewSchema("A", "B")),
		fivm.Rel("S", fivm.NewSchema("A", "C")))
	ord := func() *fivm.Order { return fivm.MustOrder(fivm.V("A", fivm.V("B"), fivm.V("C"))) }
	v, err := fivm.CreateView[int64](d, "Q", q, fivm.IntRing{}, fivm.CountLift, fivm.ViewOptions{Order: ord})
	if err != nil {
		t.Fatal(err)
	}
	rd, err := fivm.ViewReader[int64](d, "Q")
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	pinned := rd.Snapshot().Epoch
	if p, ok := rd.Lookup(fivm.Ints(3)); !ok || p != 1 {
		t.Fatalf("Lookup(3) = %d,%v, want 1", p, ok)
	}

	// Stream a batch; the pinned reader is isolated until Refresh.
	mustApply(t, d, fivm.InsertInto("R", fivm.Ints(3, 9)))
	if p, _ := rd.Lookup(fivm.Ints(3)); p != 1 {
		t.Fatalf("pinned reader moved: %d", p)
	}
	if !rd.Refresh() || rd.Snapshot().Epoch != pinned+1 {
		t.Fatalf("Refresh: epoch = %d, want %d", rd.Snapshot().Epoch, pinned+1)
	}
	if p, _ := rd.Lookup(fivm.Ints(3)); p != 2 {
		t.Fatalf("Lookup(3) after refresh = %d, want 2", p)
	}

	// Scans and the view catalog round-trip through the facade types.
	var scanned int
	rd.Scan(nil, func(fivm.Tuple, int64) bool { scanned++; return true })
	if scanned != rd.Result().Len() {
		t.Fatalf("scan visited %d of %d", scanned, rd.Result().Len())
	}
	var snap *fivm.ViewSnapshot[int64] = rd.Snapshot()
	if len(snap.Views()) != 0 {
		t.Fatalf("epoch carries a catalogue nobody asked for: %v", snap.Views())
	}
	// Asking is the switch: the current epoch is republished with every
	// materialized view in it.
	eng := v.Maintainer()
	snap = eng.Catalog()
	defer snap.Release()
	if snap.Epoch != rd.Snapshot().Epoch || snap.Result() != rd.Result() {
		t.Fatalf("Catalog moved the epoch: %d vs %d", snap.Epoch, rd.Snapshot().Epoch)
	}
	for _, name := range snap.Views() {
		if snap.View(name) == nil || eng.ViewByName(name) == nil {
			t.Fatalf("catalog name %q does not resolve", name)
		}
	}
	if got, want := len(eng.ViewNames()), len(snap.Views()); got != want {
		t.Fatalf("ViewNames %d != snapshot catalog %d", got, want)
	}
}

func TestDurabilityFacade(t *testing.T) {
	fs := fivm.NewMemWALFS()
	opts := fivm.DBOptions{Durability: &fivm.DurabilityOptions{
		Dir: "wal", FS: fs, Fsync: fivm.FsyncAlways,
	}}
	d, err := fivm.Open(exampleCatalog(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Exec("CREATE VIEW byA AS SELECT A, COUNT(*) FROM R NATURAL JOIN S GROUP BY A"); err != nil {
		t.Fatal(err)
	}
	if err := d.Apply([]fivm.DBUpdate{
		fivm.InsertInto("R", fivm.Ints(1, 10), fivm.Ints(1, 11)),
		fivm.InsertInto("S", fivm.Ints(1, 100)),
	}); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := d.Apply([]fivm.DBUpdate{fivm.DeleteFrom("R", fivm.Ints(1, 11))}); err != nil {
		t.Fatal(err)
	}

	// Power cut: only synced bytes survive; fsync=always synced everything.
	fs.Crash()
	d2, err := fivm.Open(exampleCatalog(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	ri := d2.Recovery()
	if ri == nil || !ri.FromCheckpoint || ri.ReplayedBatches != 1 {
		t.Fatalf("unexpected recovery info: %+v", ri)
	}
	e := d2.Epoch()
	defer e.Release()
	s := fivm.ViewSnapshotOf[float64](e, "byA")
	if s == nil {
		t.Fatal("recovered epoch missing the persisted view")
	}
	if got, ok := s.Result().Get(fivm.Ints(1)); !ok || got != 1 {
		t.Fatalf("recovered byA(1) = %v,%v, want 1", got, ok)
	}
	var _ fivm.WALFS = fs
}
