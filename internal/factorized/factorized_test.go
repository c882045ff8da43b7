package factorized

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"fivm/internal/data"
	"fivm/internal/query"
	"fivm/internal/ring"
	"fivm/internal/viewtree"
	"fivm/internal/vorder"
)

// paperCQ is Example 6.5: Q(A,B,C,D) = R(A,B), S(A,C,E), T(C,D).
func paperCQ() query.Query {
	return query.MustNew("cq", data.NewSchema("A", "B", "C", "D"),
		query.RelDef{Name: "R", Schema: data.NewSchema("A", "B")},
		query.RelDef{Name: "S", Schema: data.NewSchema("A", "C", "E")},
		query.RelDef{Name: "T", Schema: data.NewSchema("C", "D")},
	)
}

func paperOrder() *vorder.Order {
	return vorder.MustNew(vorder.V("A", vorder.V("B"), vorder.V("C", vorder.V("D"), vorder.V("E"))))
}

// figure2Data loads the database of Figure 2c with multiplicity-1 payloads.
func figure2Data() map[string]*data.Relation[int64] {
	mk := func(schema data.Schema, rows ...data.Tuple) *data.Relation[int64] {
		r := data.NewRelation[int64](ring.Int{}, schema)
		for _, t := range rows {
			r.Merge(t, 1)
		}
		return r
	}
	return map[string]*data.Relation[int64]{
		"R": mk(data.NewSchema("A", "B"), data.Ints(1, 1), data.Ints(1, 2), data.Ints(2, 3), data.Ints(3, 4)),
		"S": mk(data.NewSchema("A", "C", "E"),
			data.Ints(1, 1, 1), data.Ints(1, 1, 2), data.Ints(1, 2, 3), data.Ints(2, 2, 4)),
		"T": mk(data.NewSchema("C", "D"), data.Ints(1, 1), data.Ints(2, 2), data.Ints(2, 3), data.Ints(3, 4)),
	}
}

func newResult(t *testing.T, mode Mode, upd []string) *Result {
	t.Helper()
	r, err := New(mode, paperCQ(), paperOrder(), upd)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestFigure2eListing checks the listing result of Example 6.5: 8 tuples,
// with (a1,b1,c1,d1) and (a1,b2,c1,d1) having multiplicity 2.
func TestFigure2eListing(t *testing.T) {
	for _, mode := range []Mode{ListKeys, ListPayloads, FactPayloads} {
		r := newResult(t, mode, nil)
		for name, rel := range figure2Data() {
			if err := r.Load(name, rel); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.Init(); err != nil {
			t.Fatal(err)
		}
		if got := r.Count(); got != 10 {
			t.Errorf("%v: Count = %d, want 10", mode, got)
		}
		if got := r.DistinctCount(); got != 8 {
			t.Errorf("%v: DistinctCount = %d, want 8", mode, got)
		}
	}
}

// enumerate collects the sorted distinct tuples of a result.
func enumerate(r *Result) []string {
	var out []string
	r.Enumerate(func(t data.Tuple) bool {
		out = append(out, t.String())
		return true
	})
	sort.Strings(out)
	// Deduplicate (listing modes may emit one entry per stored tuple, which
	// is already distinct; keep this safe regardless).
	ded := out[:0]
	for i, s := range out {
		if i == 0 || s != out[i-1] {
			ded = append(ded, s)
		}
	}
	return ded
}

// TestEnumerationMatchesFigure2e checks the exact tuple set of Figure 2e.
func TestEnumerationMatchesFigure2e(t *testing.T) {
	want := []string{
		"(1,1,1,1)", "(1,1,2,2)", "(1,1,2,3)",
		"(1,2,1,1)", "(1,2,2,2)", "(1,2,2,3)",
		"(2,3,2,2)", "(2,3,2,3)",
	}
	for _, mode := range []Mode{ListKeys, ListPayloads, FactPayloads} {
		r := newResult(t, mode, nil)
		for name, rel := range figure2Data() {
			r.Load(name, rel)
		}
		if err := r.Init(); err != nil {
			t.Fatal(err)
		}
		got := enumerate(r)
		if len(got) != len(want) {
			t.Fatalf("%v: %d tuples, want %d: %v", mode, len(got), len(want), got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%v: tuples = %v, want %v", mode, got, want)
			}
		}
	}
}

// TestDifferentialModes drives all three modes through the same random
// stream and checks they agree on counts and tuple sets.
func TestDifferentialModes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	q := paperCQ()

	var rs []*Result
	for _, mode := range []Mode{ListKeys, ListPayloads, FactPayloads} {
		rs = append(rs, newResult(t, mode, nil))
	}
	for _, r := range rs {
		if err := r.Init(); err != nil {
			t.Fatal(err)
		}
	}

	names := q.RelNames()
	// Valid update streams only delete tuples that exist: the factorized
	// representation tracks derivation counts, which must stay non-negative
	// (over-deletion can cancel projected multiplicities to zero while
	// derivations remain, which no representation can recover from).
	live := make(map[string][]data.Tuple)
	for step := 0; step < 50; step++ {
		rel := names[rng.Intn(len(names))]
		rd, _ := q.Rel(rel)
		d := data.NewRelation[int64](ring.Int{}, rd.Schema)
		for i := 0; i < 1+rng.Intn(2); i++ {
			if n := len(live[rel]); n > 0 && rng.Intn(4) == 0 {
				// Delete a live tuple.
				k := rng.Intn(n)
				d.Merge(live[rel][k], -1)
				live[rel] = append(live[rel][:k], live[rel][k+1:]...)
				continue
			}
			tup := make(data.Tuple, len(rd.Schema))
			for j := range tup {
				tup[j] = data.Int(int64(rng.Intn(3)))
			}
			d.Merge(tup, 1)
			live[rel] = append(live[rel], tup)
		}
		if d.Len() == 0 {
			continue
		}
		for _, r := range rs {
			if err := r.ApplyDelta(rel, d.Clone()); err != nil {
				t.Fatalf("step %d %v: %v", step, r.Mode, err)
			}
		}
		c0 := rs[0].Count()
		for _, r := range rs[1:] {
			if got := r.Count(); got != c0 {
				t.Fatalf("step %d: %v Count = %d, want %d", step, r.Mode, got, c0)
			}
		}
		e0 := enumerate(rs[0])
		for _, r := range rs[1:] {
			e := enumerate(r)
			if len(e) != len(e0) {
				t.Fatalf("step %d: %v enumerates %d tuples, want %d", step, r.Mode, len(e), len(e0))
			}
			for i := range e0 {
				if e[i] != e0[i] {
					t.Fatalf("step %d: %v tuple %d = %s, want %s", step, r.Mode, i, e[i], e0[i])
				}
			}
		}
	}
}

// TestFactorizedSmaller reproduces the core size claim of Section 6.3: on a
// star join whose listing result grows multiplicatively, the factorized
// representation stays linear.
func TestFactorizedSmaller(t *testing.T) {
	q := query.MustNew("star", data.NewSchema("P", "X", "Y", "Z"),
		query.RelDef{Name: "R1", Schema: data.NewSchema("P", "X")},
		query.RelDef{Name: "R2", Schema: data.NewSchema("P", "Y")},
		query.RelDef{Name: "R3", Schema: data.NewSchema("P", "Z")},
	)
	mkOrder := func() *vorder.Order {
		return vorder.MustNew(vorder.V("P", vorder.V("X"), vorder.V("Y"), vorder.V("Z")))
	}
	k := 12 // values per relation per key
	load := func(r *Result) {
		for i, rel := range []string{"R1", "R2", "R3"} {
			rd, _ := q.Rel(rel)
			d := data.NewRelation[int64](ring.Int{}, rd.Schema)
			for p := 0; p < 3; p++ {
				for v := 0; v < k; v++ {
					d.Merge(data.Ints(int64(p), int64(v*10+i)), 1)
				}
			}
			if err := r.Load(rel, d); err != nil {
				t.Fatal(err)
			}
		}
	}
	fact, err := New(FactPayloads, q, mkOrder(), nil)
	if err != nil {
		t.Fatal(err)
	}
	list, err := New(ListPayloads, q, mkOrder(), nil)
	if err != nil {
		t.Fatal(err)
	}
	load(fact)
	load(list)
	if err := fact.Init(); err != nil {
		t.Fatal(err)
	}
	if err := list.Init(); err != nil {
		t.Fatal(err)
	}
	if fact.Count() != list.Count() {
		t.Fatalf("counts differ: %d vs %d", fact.Count(), list.Count())
	}
	// 3 keys × 12³ = 5184 listing tuples vs ~3×36 factorized values.
	if fm, lm := fact.MemoryBytes(), list.MemoryBytes(); fm*4 > lm {
		t.Errorf("factorized (%d B) not substantially smaller than listing (%d B)", fm, lm)
	}
}

func TestModeString(t *testing.T) {
	if ListKeys.String() != "List keys" || FactPayloads.String() != "Fact payloads" {
		t.Error("mode names")
	}
}

// TestSizeValues checks the factorization-size metric: on a star join the
// factorized size is linear in the per-key value counts while the listing
// sizes are multiplicative.
func TestSizeValues(t *testing.T) {
	q := query.MustNew("star", data.NewSchema("P", "X", "Y"),
		query.RelDef{Name: "R1", Schema: data.NewSchema("P", "X")},
		query.RelDef{Name: "R2", Schema: data.NewSchema("P", "Y")},
	)
	mkOrder := func() *vorder.Order {
		return vorder.MustNew(vorder.V("P", vorder.V("X"), vorder.V("Y")))
	}
	k := int64(10)
	load := func(r *Result) {
		for i, rel := range []string{"R1", "R2"} {
			rd, _ := q.Rel(rel)
			d := data.NewRelation[int64](ring.Int{}, rd.Schema)
			for v := int64(0); v < k; v++ {
				d.Merge(data.Ints(0, v*10+int64(i)), 1)
			}
			r.Load(rel, d)
		}
	}
	fact, _ := New(FactPayloads, q, mkOrder(), nil)
	keys, _ := New(ListKeys, q, mkOrder(), nil)
	load(fact)
	load(keys)
	if err := fact.Init(); err != nil {
		t.Fatal(err)
	}
	if err := keys.Init(); err != nil {
		t.Fatal(err)
	}
	// Listing: k² tuples × 3 values; factorized: ~1 + 2k values.
	if lk := keys.SizeValues(); lk != k*k*3 {
		t.Errorf("listing size = %d, want %d", lk, k*k*3)
	}
	if fs := fact.SizeValues(); fs > 3*k+3 {
		t.Errorf("factorized size = %d, want <= %d", fs, 3*k+3)
	}
}

// TestWindowedDeletionsThroughResult drives a sliding-window workload (with
// real deletions) through the factorized representation.
func TestWindowedDeletionsThroughResult(t *testing.T) {
	q := paperCQ()
	fact, err := New(FactPayloads, q, paperOrder(), nil)
	if err != nil {
		t.Fatal(err)
	}
	list, err := New(ListKeys, q, paperOrder(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := fact.Init(); err != nil {
		t.Fatal(err)
	}
	if err := list.Init(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	var windowS []data.Tuple
	const window = 8
	for step := 0; step < 60; step++ {
		d := data.NewRelation[int64](ring.Int{}, data.NewSchema("A", "C", "E"))
		tup := data.Ints(int64(rng.Intn(3)), int64(rng.Intn(3)), int64(rng.Intn(3)))
		d.Merge(tup, 1)
		windowS = append(windowS, tup)
		if len(windowS) > window {
			d.Merge(windowS[0], -1)
			windowS = windowS[1:]
		}
		if d.Len() == 0 {
			continue
		}
		if err := fact.ApplyDelta("S", d.Clone()); err != nil {
			t.Fatal(err)
		}
		if err := list.ApplyDelta("S", d.Clone()); err != nil {
			t.Fatal(err)
		}
		if fact.Count() != list.Count() {
			t.Fatalf("step %d: counts %d vs %d", step, fact.Count(), list.Count())
		}
	}
}

// TestSnapshotEnumerationMatchesLive pins an epoch, applies further updates,
// and checks (a) the pinned snapshot still enumerates the old state, (b) a
// fresh snapshot enumerates exactly what live enumeration sees — for all
// three representations, including the factorized walk.
func TestSnapshotEnumerationMatchesLive(t *testing.T) {
	enumerate := func(f func(cb func(data.Tuple) bool)) []string {
		var out []string
		f(func(tu data.Tuple) bool {
			out = append(out, tu.Key())
			return true
		})
		sort.Strings(out)
		return out
	}
	eq := func(a, b []string) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	for _, mode := range []Mode{ListKeys, ListPayloads, FactPayloads} {
		r := newResult(t, mode, nil)
		for name, rel := range figure2Data() {
			if err := r.Load(name, rel); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.Init(); err != nil {
			t.Fatal(err)
		}
		pinned := r.Snapshot()
		before := enumerate(pinned.Enumerate)
		if !eq(before, enumerate(r.Enumerate)) {
			t.Fatalf("%v: snapshot enumeration diverges from live at epoch 0", mode)
		}
		if pinned.Count() != r.Count() || pinned.DistinctCount() != r.DistinctCount() {
			t.Fatalf("%v: snapshot counts diverge", mode)
		}

		// Stream more data; the pinned epoch must not move.
		d := data.NewRelation[int64](ring.Int{}, data.NewSchema("A", "B"))
		d.Merge(data.Ints(2, 9), 1)
		if err := r.ApplyDelta("R", d); err != nil {
			t.Fatal(err)
		}
		if got := enumerate(pinned.Enumerate); !eq(got, before) {
			t.Fatalf("%v: pinned snapshot changed after update", mode)
		}
		fresh := r.Snapshot()
		if fresh.Epoch() != pinned.Epoch()+1 {
			t.Fatalf("%v: epoch %d after one batch, want %d", mode, fresh.Epoch(), pinned.Epoch()+1)
		}
		after := enumerate(fresh.Enumerate)
		if !eq(after, enumerate(r.Enumerate)) {
			t.Fatalf("%v: fresh snapshot diverges from live", mode)
		}
		if eq(after, before) {
			t.Fatalf("%v: update did not change the enumerated result", mode)
		}
	}
}

// TestCatalogueUpgradeMatchesLive is the property behind FactPayloads
// snapshots now that an engine epoch carries only the result until someone
// asks for the view catalogue: over seeded random insert/delete histories,
// result-only publication runs from the start and the catalogue is requested
// at a random batch k. Before k no epoch carries a view; from k on, every
// epoch's ViewOf(n) equals the live view at that batch boundary and snapshot
// enumeration equals live enumeration. A reader goroutine keeps re-walking
// every pinned catalogue epoch while maintenance streams on (run under
// -race), checking each still enumerates its own batch.
func TestCatalogueUpgradeMatchesLive(t *testing.T) {
	type pin struct {
		snap *ResultSnapshot
		want []string
	}
	snapTuples := func(s *ResultSnapshot) []string {
		var out []string
		s.Enumerate(func(tu data.Tuple) bool {
			out = append(out, tu.String())
			return true
		})
		sort.Strings(out)
		return out
	}
	q := paperCQ()
	names := q.RelNames()
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const batches = 40
		k := 1 + rng.Intn(batches-10)
		r := newResult(t, FactPayloads, nil)
		if err := r.Init(); err != nil {
			t.Fatal(err)
		}
		eng := r.relEng
		eng.Snapshot() // result-only publication from epoch 0

		pins := make(chan pin, batches) // one send per batch at most: never blocks maintenance
		done := make(chan struct{})
		go func() {
			defer close(done)
			var held []pin
			for p := range pins {
				held = append(held, p)
				for _, h := range held {
					if got := snapTuples(h.snap); fmt.Sprint(got) != fmt.Sprint(h.want) {
						t.Errorf("seed %d: pinned epoch %d enumerates %v, want %v", seed, h.snap.Epoch(), got, h.want)
						return
					}
				}
			}
		}()

		live := make(map[string][]data.Tuple)
		for b := 1; b <= batches; b++ {
			rel := names[rng.Intn(len(names))]
			rd, _ := q.Rel(rel)
			d := data.NewRelation[int64](ring.Int{}, rd.Schema)
			for i := 0; i < 1+rng.Intn(4); i++ {
				if n := len(live[rel]); n > 0 && rng.Intn(3) == 0 {
					j := rng.Intn(n)
					d.Merge(live[rel][j], -1)
					live[rel] = append(live[rel][:j], live[rel][j+1:]...)
					continue
				}
				tup := make(data.Tuple, len(rd.Schema))
				for j := range tup {
					tup[j] = data.Int(int64(rng.Intn(3)))
				}
				d.Merge(tup, 1)
				live[rel] = append(live[rel], tup)
			}
			if err := r.ApplyDelta(rel, d); err != nil {
				t.Fatalf("seed %d batch %d: %v", seed, b, err)
			}
			if b < k {
				if s := eng.Snapshot(); s.Epoch != uint64(b) || len(s.Views()) != 0 || s.ViewOf(eng.Tree()) != nil {
					t.Fatalf("seed %d batch %d: epoch %d carries views %v before anyone asked", seed, b, s.Epoch, s.Views())
				}
				continue
			}
			s := r.Snapshot() // the request at b == k, one atomic load afterwards
			if s.Epoch() != uint64(b) {
				t.Fatalf("seed %d batch %d (k=%d): catalogue epoch %d", seed, b, k, s.Epoch())
			}
			eng.Tree().Walk(func(n *viewtree.Node) {
				lv, sv := eng.ViewOf(n), s.rel.ViewOf(n)
				if (lv == nil) != (sv == nil) {
					t.Fatalf("seed %d batch %d: view %s live=%v snapshot=%v", seed, b, n.Name(), lv != nil, sv != nil)
				}
				if lv == nil {
					return
				}
				if lv.Len() != sv.Len() {
					t.Fatalf("seed %d batch %d: view %s has %d keys live, %d in the snapshot", seed, b, n.Name(), lv.Len(), sv.Len())
				}
				lv.Iterate(func(tu data.Tuple, p *data.Multiset) bool {
					if sp, ok := sv.Get(tu); !ok || sp.String() != p.String() {
						t.Fatalf("seed %d batch %d: view %s key %v is %v live, %v (%v) in the snapshot", seed, b, n.Name(), tu, p, sp, ok)
					}
					return true
				})
			})
			want := enumerate(r)
			if got := snapTuples(s); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("seed %d batch %d: snapshot enumerates %v, live %v", seed, b, got, want)
			}
			pins <- pin{snap: s, want: want}
		}
		close(pins)
		<-done
	}
}

// Epoch returns the pinned epoch number.
func (s *ResultSnapshot) Epoch() uint64 {
	if s.keys != nil {
		return s.keys.Epoch
	}
	return s.rel.Epoch
}

// Count returns the total number of result tuples, with multiplicities.
func (r *Result) Count() int64 {
	if r.keysEng != nil {
		var n int64
		r.keysEng.Result().Iterate(func(_ data.Tuple, m int64) bool {
			n += m
			return true
		})
		return n
	}
	var n int64
	r.relEng.Result().Iterate(func(_ data.Tuple, p *data.Multiset) bool {
		n += p.TotalMult()
		return true
	})
	return n
}
