// Public API tests: everything a downstream user touches goes through the
// facade, exercised here the way the README shows it.
package fivm_test

import (
	"math"
	"testing"

	"fivm"
)

func TestQuickstartFlow(t *testing.T) {
	q := fivm.MustQuery("Q", fivm.NewSchema("A", "C"),
		fivm.Rel("R", fivm.NewSchema("A", "B")),
		fivm.Rel("S", fivm.NewSchema("A", "C", "E")),
		fivm.Rel("T", fivm.NewSchema("C", "D")))
	ord := fivm.MustOrder(fivm.V("A", fivm.V("B"), fivm.V("C", fivm.V("D"), fivm.V("E"))))
	lift := func(v string, x fivm.Value) int64 {
		switch v {
		case "B", "D", "E":
			return x.AsInt()
		default:
			return 1
		}
	}
	eng, err := fivm.NewEngine[int64](q, ord, fivm.IntRing{}, lift, fivm.EngineOptions[int64]{})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Init(); err != nil {
		t.Fatal(err)
	}

	ins := func(rel string, schema fivm.Schema, rows ...fivm.Tuple) {
		d := fivm.NewRelation[int64](fivm.IntRing{}, schema)
		for _, tup := range rows {
			d.Merge(tup, 1)
		}
		if err := eng.ApplyDelta(rel, d); err != nil {
			t.Fatal(err)
		}
	}
	ins("R", fivm.NewSchema("A", "B"), fivm.Ints(1, 10))
	ins("S", fivm.NewSchema("A", "C", "E"), fivm.Ints(1, 7, 3))
	ins("T", fivm.NewSchema("C", "D"), fivm.Ints(7, 100))

	if p, ok := eng.Result().Get(fivm.Ints(1, 7)); !ok || p != 3000 {
		t.Fatalf("SUM(B*D*E) = %v,%v, want 3000", p, ok)
	}

	// Delete the S tuple: the group disappears.
	d := fivm.NewRelation[int64](fivm.IntRing{}, fivm.NewSchema("A", "C", "E"))
	d.Merge(fivm.Ints(1, 7, 3), -1)
	if err := eng.ApplyDelta("S", d); err != nil {
		t.Fatal(err)
	}
	if eng.Result().Len() != 0 {
		t.Errorf("result not empty after delete: %v", eng.Result())
	}
}

func TestSQLToEngineFlow(t *testing.T) {
	cat := fivm.SQLCatalog{
		"R": fivm.NewSchema("A", "B"),
		"S": fivm.NewSchema("A", "C"),
	}
	p, err := fivm.ParseSQL("SELECT A, SUM(B * C) FROM R NATURAL JOIN S GROUP BY A", cat)
	if err != nil {
		t.Fatal(err)
	}
	ord, err := fivm.BuildOrder(p.Query)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := fivm.NewEngine[int64](p.Query, ord, fivm.IntRing{}, p.LiftInt(), fivm.EngineOptions[int64]{})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Init(); err != nil {
		t.Fatal(err)
	}
	dr := fivm.NewRelation[int64](fivm.IntRing{}, cat["R"])
	dr.Merge(fivm.Ints(1, 4), 1)
	ds := fivm.NewRelation[int64](fivm.IntRing{}, cat["S"])
	ds.Merge(fivm.Ints(1, 5), 1)
	if err := eng.ApplyDelta("R", dr); err != nil {
		t.Fatal(err)
	}
	if err := eng.ApplyDelta("S", ds); err != nil {
		t.Fatal(err)
	}
	if p, _ := eng.Result().Get(fivm.Ints(1)); p != 20 {
		t.Fatalf("SUM(B*C) = %d, want 20", p)
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
	ms := []*fivm.Dense{fivm.NewDense(n, n), fivm.NewDense(n, n), fivm.NewDense(n, n)}
	for _, m := range ms {
		for i := 0; i < n; i++ {
			m.Set(i, i, 2) // 2·I each; product is 8·I
		}
	}
	hc, err := fivm.NewHashChain(3, 2, ms)
	if err != nil {
		t.Fatal(err)
	}
	got := hc.ResultMatrix(n, n)
	for i := 0; i < n; i++ {
		if got.At(i, i) != 8 {
			t.Fatalf("A[%d,%d] = %v, want 8", i, i, got.At(i, i))
		}
	}
	// Rank-1 bump of the middle matrix.
	u := make([]float64, n)
	v := make([]float64, n)
	u[0], v[0] = 1, 1
	if err := hc.ApplyRank1(u, v); err != nil {
		t.Fatal(err)
	}
	if got := hc.ResultMatrix(n, n).At(0, 0); got != 12 { // 2*(2+1)*2
		t.Fatalf("A[0,0] after rank-1 = %v, want 12", got)
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
	if r.Count() != 2 {
		t.Errorf("Count = %d", r.Count())
	}
	seen := 0
	r.Enumerate(func(fivm.Tuple) bool { seen++; return true })
	if seen != 2 {
		t.Errorf("enumerated %d tuples", seen)
	}
}

func TestDatasetFacade(t *testing.T) {
	ds := fivm.GenHousing(fivm.HousingConfig{Postcodes: 5, Scale: 1, Seed: 1})
	if ds.TotalTuples() == 0 {
		t.Fatal("empty dataset")
	}
	stream := fivm.RoundRobinStream(ds, ds.Query.RelNames(), 3)
	if len(stream) == 0 {
		t.Fatal("empty stream")
	}
	if len(fivm.SingleRelStream(ds, ds.Largest, 4)) == 0 {
		t.Fatal("empty single-relation stream")
	}
}

func TestNilOrderFacade(t *testing.T) {
	q := fivm.MustQuery("Q", fivm.NewSchema("A"),
		fivm.Rel("R", fivm.NewSchema("A", "B")),
		fivm.Rel("S", fivm.NewSchema("A", "C")))

	// Order: nil self-plans; results must match an engine over an explicit
	// order.
	auto, err := fivm.NewEngine[int64](q, nil, fivm.IntRing{}, fivm.CountLift, fivm.EngineOptions[int64]{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := fivm.NewEngine[int64](q, fivm.MustOrder(fivm.V("A", fivm.V("B"), fivm.V("C"))),
		fivm.IntRing{}, fivm.CountLift, fivm.EngineOptions[int64]{})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []*fivm.Engine[int64]{auto, ref} {
		if err := e.Init(); err != nil {
			t.Fatal(err)
		}
	}
	dR := fivm.NewRelation[int64](fivm.IntRing{}, fivm.NewSchema("A", "B"))
	dR.Merge(fivm.Ints(1, 2), 1)
	dR.Merge(fivm.Ints(2, 2), 1)
	dS := fivm.NewRelation[int64](fivm.IntRing{}, fivm.NewSchema("A", "C"))
	dS.Merge(fivm.Ints(1, 7), 1)
	for _, e := range []*fivm.Engine[int64]{auto, ref} {
		if err := e.ApplyDelta("R", dR.Clone()); err != nil {
			t.Fatal(err)
		}
		if err := e.ApplyDelta("S", dS.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := auto.Result().String(), ref.Result().String(); got != want {
		t.Errorf("self-planned %s vs explicit %s", got, want)
	}
	if auto.Order() == nil {
		t.Error("no order chosen")
	}
	if auto.Explain() == "" {
		t.Error("empty explain")
	}
}

func TestChooseOrderFacade(t *testing.T) {
	q := fivm.MustQuery("Q", nil,
		fivm.Rel("R", fivm.NewSchema("A", "B")),
		fivm.Rel("S", fivm.NewSchema("B", "C")))
	st := fivm.NewStats()
	r := fivm.NewRelation[int64](fivm.IntRing{}, fivm.NewSchema("A", "B"))
	for i := int64(0); i < 20; i++ {
		r.Merge(fivm.Ints(i%5, i), 1)
	}
	fivm.AnalyzeRelation(st, "R", r)
	o, err := fivm.ChooseOrder(q, fivm.OrderChooseOptions{Stats: st})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Validate(q); err != nil {
		t.Fatal(err)
	}
	m := fivm.NewCostModel(q, st, nil)
	if c := m.Cost(o).Total(); c <= 0 {
		t.Errorf("cost = %v", c)
	}
}

// TestServingReads exercises the snapshot read path through the facade the
// way the README "Serving reads" section shows it: enable publication, pin
// a reader, stream updates concurrently, and read consistent epochs.
func TestServingReads(t *testing.T) {
	q := fivm.MustQuery("Q", fivm.NewSchema("A"),
		fivm.Rel("R", fivm.NewSchema("A", "B")),
		fivm.Rel("S", fivm.NewSchema("A", "C")))
	eng, err := fivm.NewEngine[int64](q, fivm.MustOrder(fivm.V("A", fivm.V("B"), fivm.V("C"))),
		fivm.IntRing{}, fivm.CountLift, fivm.EngineOptions[int64]{})
	if err != nil {
		t.Fatal(err)
	}
	base := fivm.NewRelation[int64](fivm.IntRing{}, fivm.NewSchema("A", "B"))
	for a := int64(0); a < 10; a++ {
		base.Merge(fivm.Ints(a, a%3), 1)
	}
	if err := eng.Load("R", base); err != nil {
		t.Fatal(err)
	}
	sbase := fivm.NewRelation[int64](fivm.IntRing{}, fivm.NewSchema("A", "C"))
	for a := int64(0); a < 10; a++ {
		sbase.Merge(fivm.Ints(a, 1), 1)
	}
	if err := eng.Load("S", sbase); err != nil {
		t.Fatal(err)
	}
	if err := eng.Init(); err != nil {
		t.Fatal(err)
	}

	// Enable publication (maintenance side), pin a reader, and read.
	rd := fivm.NewReader[int64](eng)
	if rd.Epoch() != 0 {
		t.Fatalf("epoch = %d, want 0", rd.Epoch())
	}
	if p, ok := rd.Lookup(fivm.Ints(3)); !ok || p != 1 {
		t.Fatalf("Lookup(3) = %d,%v, want 1", p, ok)
	}

	// Stream a batch; the pinned reader is isolated until Refresh.
	d := fivm.NewRelation[int64](fivm.IntRing{}, fivm.NewSchema("A", "B"))
	d.Merge(fivm.Ints(3, 9), 1)
	if err := eng.ApplyDeltas([]fivm.NamedDelta[int64]{{Rel: "R", Delta: d}}); err != nil {
		t.Fatal(err)
	}
	if p, _ := rd.Lookup(fivm.Ints(3)); p != 1 {
		t.Fatalf("pinned reader moved: %d", p)
	}
	if !rd.Refresh() || rd.Epoch() != 1 {
		t.Fatalf("Refresh: epoch = %d, want 1", rd.Epoch())
	}
	if p, _ := rd.Lookup(fivm.Ints(3)); p != 2 {
		t.Fatalf("Lookup(3) after refresh = %d, want 2", p)
	}

	// Scans and the view catalog round-trip through the facade types.
	var scanned int
	rd.Scan(nil, func(fivm.Tuple, int64) bool { scanned++; return true })
	if scanned != rd.Len() {
		t.Fatalf("scan visited %d of %d", scanned, rd.Len())
	}
	var snap *fivm.ViewSnapshot[int64] = rd.Snapshot()
	if len(snap.Views()) != 0 {
		t.Fatalf("epoch carries a catalogue nobody asked for: %v", snap.Views())
	}
	// Asking is the switch: the current epoch is republished with every
	// materialized view in it.
	snap = eng.Catalog()
	if snap.Epoch != rd.Epoch() || snap.Result() != rd.Result() {
		t.Fatalf("Catalog moved the epoch: %d vs %d", snap.Epoch, rd.Epoch())
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
	if _, err := fivm.CreateSQLView(d, "byA",
		"SELECT A, COUNT(*) FROM R NATURAL JOIN S GROUP BY A", fivm.ViewOptions{}); err != nil {
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
	var ri *fivm.RecoveryInfo = d2.Recovery()
	if ri == nil || !ri.FromCheckpoint || ri.ReplayedBatches != 1 {
		t.Fatalf("unexpected recovery info: %+v", ri)
	}
	s := fivm.ViewSnapshotOf[float64](d2.Epoch(), "byA")
	if s == nil {
		t.Fatal("recovered epoch missing the persisted view")
	}
	if got, ok := s.Result().Get(fivm.Ints(1)); !ok || got != 1 {
		t.Fatalf("recovered byA(1) = %v,%v, want 1", got, ok)
	}

	if _, err := fivm.ParseFsync("interval"); err != nil {
		t.Fatal(err)
	}
	var _ fivm.WALFS = fivm.NewFaultWALFS(fs)
}
