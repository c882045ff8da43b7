package serve

import (
	"testing"

	"fivm/internal/data"
	"fivm/internal/ivm"
	"fivm/internal/query"
	"fivm/internal/ring"
	"fivm/internal/vorder"
)

// testEngine builds a small F-IVM engine over R(A,B) ⋈ S(A,C) with free
// [A, B], loaded with a few tuples.
func testEngine(t *testing.T) *ivm.Engine[int64] {
	t.Helper()
	q := query.MustNew("Q", data.NewSchema("A", "B"),
		query.RelDef{Name: "R", Schema: data.NewSchema("A", "B")},
		query.RelDef{Name: "S", Schema: data.NewSchema("A", "C")})
	o, err := vorder.Build(q)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := ivm.New[int64](q, o, ring.Int{}, func(string, data.Value) int64 { return 1 }, ivm.Options[int64]{})
	if err != nil {
		t.Fatal(err)
	}
	r := data.NewRelation[int64](ring.Int{}, data.NewSchema("A", "B"))
	s := data.NewRelation[int64](ring.Int{}, data.NewSchema("A", "C"))
	for a := int64(0); a < 4; a++ {
		for b := int64(0); b < 3; b++ {
			r.Merge(data.Ints(a, b), 1)
		}
		s.Merge(data.Ints(a, a*10), 1)
	}
	must(t, eng.Load("R", r))
	must(t, eng.Load("S", s))
	must(t, eng.Init())
	return eng
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func delta(schema data.Schema, tuples ...data.Tuple) *data.Relation[int64] {
	d := data.NewRelation[int64](ring.Int{}, schema)
	for _, tu := range tuples {
		d.Merge(tu, 1)
	}
	return d
}

// TestReaderPinsEpoch: a pinned reader keeps observing its epoch while the
// maintainer advances; Refresh moves it forward, never backwards.
func TestReaderPinsEpoch(t *testing.T) {
	eng := testEngine(t)
	rd := NewReaderAt[int64](eng, nil)
	if rd.Snapshot().Epoch != 0 {
		t.Fatalf("initial epoch = %d, want 0", rd.Snapshot().Epoch)
	}
	before, ok := rd.Lookup(data.Ints(1, 1))
	if !ok || before != 1 {
		t.Fatalf("Lookup(1,1) = %d,%v want 1,true", before, ok)
	}

	// Apply a batch that doubles (1,1)'s multiplicity through R.
	must(t, eng.ApplyDelta("R", delta(data.NewSchema("A", "B"), data.Ints(1, 1))))

	// The pinned reader still sees the old state.
	if p, _ := rd.Lookup(data.Ints(1, 1)); p != 1 {
		t.Fatalf("pinned reader saw new state: %d", p)
	}
	if !rd.Refresh() {
		t.Fatalf("Refresh did not advance")
	}
	if rd.Snapshot().Epoch != 1 {
		t.Fatalf("epoch after refresh = %d, want 1", rd.Snapshot().Epoch)
	}
	if p, _ := rd.Lookup(data.Ints(1, 1)); p != 2 {
		t.Fatalf("refreshed reader Lookup = %d, want 2", p)
	}
	if rd.Refresh() {
		t.Fatalf("Refresh advanced without a new batch")
	}
}

// TestReaderScanPrefix: ordered prefix scans over the result's leading
// group-by variable.
func TestReaderScanPrefix(t *testing.T) {
	eng := testEngine(t)
	rd := NewReaderAt[int64](eng, nil)
	got := map[string]int64{}
	rd.Scan(data.Ints(2), func(tu data.Tuple, p int64) bool {
		if tu[0].AsInt() != 2 {
			t.Fatalf("scan A=2 yielded %v", tu)
		}
		got[tu.Key()] = p
		return true
	})
	if len(got) != 3 {
		t.Fatalf("scan A=2 visited %d groups, want 3", len(got))
	}
	// Empty prefix = full result scan.
	n := 0
	rd.Scan(nil, func(data.Tuple, int64) bool { n++; return true })
	if n != rd.Result().Len() || n != 12 {
		t.Fatalf("full scan visited %d, Len=%d, want 12", n, rd.Result().Len())
	}
}

// TestReaderOwnsOneLease: a reader keeps its epoch's publish generation
// alive exactly as long as it pins it. Refresh, PinAt and Close give the pin
// back, after which the generation drains at the writer's next publish —
// with no help from the collector's backstop.
func TestReaderOwnsOneLease(t *testing.T) {
	eng := testEngine(t)
	old := NewReaderAt[int64](eng, nil) // stays on epoch 0
	rd := NewReaderAt[int64](eng, nil)  // follows the stream
	pinned := NewPinned(rd.Snapshot())
	open := func() int { return eng.PoolStats().Arena.GenerationsOpen }
	for b := int64(0); b < 48; b++ { // three publish generations
		must(t, eng.ApplyDelta("R", delta(data.NewSchema("A", "B"), data.Ints(b%4, b%3))))
		if !rd.Refresh() || rd.Snapshot().Epoch != uint64(b+1) {
			t.Fatalf("batch %d: reader at epoch %d", b, rd.Snapshot().Epoch)
		}
		if rd.Refresh() {
			t.Fatalf("batch %d: idle Refresh advanced", b)
		}
		pinned.PinAt(rd.Snapshot())
	}
	if p, _ := old.Lookup(data.Ints(1, 1)); p != 1 || old.Snapshot().Epoch != 0 {
		t.Fatalf("epoch-0 reader reads %d at epoch %d", p, old.Snapshot().Epoch)
	}
	if n := open(); n < 3 {
		t.Fatalf("%d generations open with epoch 0 pinned, want the first one kept", n)
	}
	old.Close()
	pinned.Close()
	must(t, eng.ApplyDelta("R", delta(data.NewSchema("A", "B"), data.Ints(0, 0))))
	if as := eng.PoolStats().Arena; as.GenerationsOpen > 2 || as.BackstopReclaims != 0 {
		t.Fatalf("arena %+v after the pins were given back, want the old generations drained by Release alone", as)
	}
	rd.Close()
}
