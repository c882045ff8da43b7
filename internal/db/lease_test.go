package db

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"fivm/internal/data"
	"fivm/internal/query"
	"fivm/internal/ring"
	"fivm/internal/vorder"
)

// TestPublishLoopRecyclesArena: two views of 4096 groups each, batches that
// update 32 groups spread over the whole key range in place, and a reader
// that takes and releases the cross-view epoch of every batch. What a batch
// allocates must be a constant that does not contain the snapshot chunks it
// dirtied (2 views × 32 chunks of 64..128 entries: some 380 KiB per batch
// when epochs are left to the collector) — also when a second reader holds
// every 7th epoch for 50 batches.
func TestPublishLoopRecyclesArena(t *testing.T) {
	const keys, warm, batches, bound = 4096, 200, 300, 8 << 10
	sch := data.NewSchema("A", "B")
	for _, hold := range []bool{false, true} {
		d, err := Open(Catalog{"R": sch}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		for name, free := range map[string]data.Schema{"byA": data.NewSchema("A"), "byAB": sch} {
			q := query.MustNew(name, free, query.RelDef{Name: "R", Schema: sch})
			if _, err := CreateView[int64](d, name, q, ring.Int{}, countLift, ViewOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		load := make([]data.Tuple, keys)
		for a := range load {
			load[a] = tup(int64(a), 0)
		}
		if err := d.Apply([]Update{Insert("R", load...)}); err != nil {
			t.Fatal(err)
		}
		held := make([]*Epoch, 0, 16)
		batch := make([]Update, 1)
		var before, after runtime.MemStats
		for b := 0; b < warm+batches; b++ {
			if b == warm {
				runtime.ReadMemStats(&before)
			}
			ts := make([]data.Tuple, 32)
			for i := range ts {
				ts[i] = load[(i*keys/32+b*7)%keys]
			}
			batch[0] = Insert("R", ts...)
			if err := d.Apply(batch); err != nil {
				t.Fatal(err)
			}
			e := d.Epoch()
			if n, _ := SnapshotOf[int64](e, "byA").Result().Get(load[b*7%keys][:1]); n < 2 {
				t.Fatalf("batch %d: group %d counts %d", b, b*7%keys, n)
			}
			if hold && b%7 == 0 {
				held = append(held, d.Epoch())
			}
			applied := e.Applied
			e.Release()
			if len(held) > 0 && held[0].Applied+50 <= applied {
				held[0].Release()
				held = append(held[:0], held[1:]...)
			}
		}
		runtime.ReadMemStats(&after)
		perBatch := (after.TotalAlloc - before.TotalAlloc) / batches
		for _, name := range d.Views() {
			as := d.ViewStatsOf(name).Arena
			t.Logf("hold=%v: view %s arena %+v", hold, name, as)
			if as.BackstopReclaims != 0 || as.ChunksFree == 0 {
				t.Errorf("hold=%v: view %s arena %+v, want recycled chunks and no backstop reclaim", hold, name, as)
			}
		}
		t.Logf("hold=%v: %d B per batch", hold, perBatch)
		if perBatch > bound {
			t.Errorf("hold=%v: %d B allocated per batch, want at most %d: epochs do not give their storage back", hold, perBatch, bound)
		}
	}
}

// TestLeasesUnderChurn: four readers acquire cross-view epochs through
// DB.Epoch, hold each for a random 0..40 batches and release it — except a
// random tenth, which they forget — while the writer deletes and re-inserts
// the very groups those epochs pin. Every read of every held epoch must
// equal the re-evaluation oracle's result at that epoch's batch, in all
// three views (count, float sum, cofactor).
func TestLeasesUnderChurn(t *testing.T) {
	const nKeys, fan, batches, readers = 5, 3, 120, 4
	d, err := Open(testCatalog(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	order := func() *vorder.Order {
		return vorder.MustNew(vorder.V("A", vorder.V("B"), vorder.V("C", vorder.V("D"))))
	}
	qCnt, qSum := testQuery("cnt", "A"), testQuery("sum", "A", "C")
	if _, err := CreateView[int64](d, "cnt", qCnt, ring.Int{}, countLift, ViewOptions{Order: order}); err != nil {
		t.Fatal(err)
	}
	if _, err := CreateView[float64](d, "sum", qSum, ring.Float{}, propSumLift, ViewOptions{Order: order}); err != nil {
		t.Fatal(err)
	}
	// The cofactor view's payloads live outside their entries: what its
	// released epochs give up the writer writes into again.
	qCof := testQuery("cof", "A")
	if _, err := CreateView[ring.Triple](d, "cof", qCof, ring.Cofactor{}, propCofLift, ViewOptions{Order: order}); err != nil {
		t.Fatal(err)
	}
	oCnt := reEvalOracle(t, qCnt, order(), ring.Int{}, countLift)
	oSum := reEvalOracle(t, qSum, order(), ring.Float{}, propSumLift)
	oCof := reEvalOracle(t, qCof, order(), ring.Cofactor{}, propCofLift)
	// fpCof renders triples in the dense form, whatever variables each covers.
	fpCof := func(es []data.Entry[ring.Triple]) string {
		var b strings.Builder
		for _, e := range es {
			fmt.Fprintf(&b, "%v->%v %v %v;", e.Tuple, e.Payload.C, e.Payload.ExpandSum(4), e.Payload.ExpandQ(4))
		}
		return b.String()
	}

	// wants[applied] is what an epoch after that many batches must read.
	var (
		mu    sync.Mutex
		wants = map[uint64][3]string{}
		wg    sync.WaitGroup
		stop  = make(chan struct{})
	)
	check := func(e *Epoch) {
		mu.Lock()
		w, ok := wants[e.Applied]
		mu.Unlock()
		if !ok {
			return // published, its expectation not recorded yet
		}
		if got := fpEntries(SnapshotOf[int64](e, "cnt").Result().SortedEntries()); got != w[0] {
			t.Errorf("cnt after %d batches:\n epoch  %s\n oracle %s", e.Applied, got, w[0])
		}
		if got := fpEntries(SnapshotOf[float64](e, "sum").Result().SortedEntries()); got != w[1] {
			t.Errorf("sum after %d batches:\n epoch  %s\n oracle %s", e.Applied, got, w[1])
		}
		if got := fpCof(SnapshotOf[ring.Triple](e, "cof").Result().SortedEntries()); got != w[2] {
			t.Errorf("cof after %d batches:\n epoch  %s\n oracle %s", e.Applied, got, w[2])
		}
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			type lease struct {
				e     *Epoch
				until uint64
			}
			var held []lease
			for {
				select {
				case <-stop:
					for _, l := range held {
						check(l.e)
						l.e.Release()
					}
					return
				default:
				}
				e := d.Epoch()
				now := e.Applied
				check(e)
				if rng.Intn(10) != 0 { // a tenth is forgotten: the collector's to reclaim
					held = append(held, lease{e, now + uint64(rng.Intn(41))})
				}
				keep := held[:0]
				for _, l := range held {
					check(l.e)
					if l.until <= now {
						l.e.Release()
					} else {
						keep = append(keep, l)
					}
				}
				held = keep
				runtime.Gosched()
			}
		}(int64(r + 1))
	}

	// slice is the part of the database under join key A = a.
	slice := func(a int, mult int64) []Update {
		var rs, ss []data.Tuple
		for i := 0; i < fan; i++ {
			rs = append(rs, tup(int64(a), int64(i)))
			for c := 0; c < nKeys; c++ {
				ss = append(ss, tup(int64(a), int64(c)))
			}
		}
		return []Update{{Rel: "R", Tuples: rs, Mult: mult}, {Rel: "S", Tuples: ss, Mult: mult}}
	}
	apply := func(ups []Update) {
		t.Helper()
		oCnt.apply(t, ups)
		oSum.apply(t, ups)
		oCof.apply(t, ups)
		w := [3]string{fpEntries(oCnt.entries()), fpEntries(oSum.entries()), fpCof(oCof.entries())}
		mu.Lock()
		wants[d.Applied()+1] = w
		mu.Unlock()
		if err := d.Apply(ups); err != nil {
			t.Fatal(err)
		}
		for _, rel := range d.Relations() {
			checkOwnKeys(t, "base "+rel, d.Base(rel))
		}
	}
	var load []Update
	for c := 0; c < nKeys; c++ {
		load = append(load, Insert("T", tup(int64(c), int64(10+c)), tup(int64(c), int64(20+c))))
	}
	for a := 0; a < nKeys; a++ {
		load = append(load, slice(a, 1)...)
	}
	apply(load)
	loaded := map[string]ViewStats{}
	for _, name := range d.Views() {
		loaded[name] = d.ViewStatsOf(name)
	}
	for b := 0; b < batches; b++ {
		// Delete the slice under key a, put back the one deleted last batch.
		ups := slice(b%nKeys, -1)
		if b > 0 {
			ups = append(ups, slice((b+nKeys-1)%nKeys, 1)...)
		}
		apply(ups)
		if b%16 == 0 {
			runtime.GC() // let forgotten leases reach the backstop mid-run
		}
	}
	close(stop)
	wg.Wait()
	for _, name := range d.Views() {
		st := d.ViewStatsOf(name)
		t.Logf("view %s: arena %+v, %d entries reclaimed", name, st.Arena, st.Reclaimed)
		if st.Reclaimed < batches {
			t.Errorf("view %s: the churn never went through the pool: %+v", name, st)
		}
		// A view writes a row for every insert and, whatever its ring, for every
		// key it touches first after a publish: the churn ends one slice short of
		// the load, so past it the inserts alone wrote no more rows than the view
		// removed, and the copies more.
		l := loaded[name]
		rows, removed := st.TuplesCopied+st.RowsReused-l.TuplesCopied-l.RowsReused, st.Reclaimed-l.Reclaimed
		if rows <= removed {
			t.Errorf("view %s: %d rows written for %d removed, want more: the entries a first touch replaced", name, rows, removed)
		}
		// Recycling the epoch headers leaves what the writer alone decides as
		// it was in the commit before it, and each of a view's 122 epochs took
		// two headers (its ivm.ViewSnapshot, its data.RelationSnapshot) whoever
		// released them.
		if want := map[string]uint64{"cnt": 960, "sum": 1920, "cof": 960}[name]; st.Reclaimed != want {
			t.Errorf("view %s: %d entries reclaimed, want %d", name, st.Reclaimed, want)
		}
		if h := st.Arena.Headers; h.Reused == 0 || h.Allocated == 0 || h.Reused+h.Allocated != 2*122 {
			t.Errorf("view %s: headers %+v, want %d taken, some of them reused", name, h, 2*122)
		}
	}
}

// checkOwnKeys asserts that every tuple of r still encodes to the key its
// entry holds: a relation that stored key bytes another owns breaks it as
// soon as the owner reuses the entry (poisoned at the reclaim point under
// this package's TestMain).
func checkOwnKeys[P any](t testing.TB, what string, r *data.Relation[P]) {
	t.Helper()
	r.IterateEntries(func(e *data.Entry[P]) bool {
		if string(e.Tuple.AppendKey(nil)) != e.Key() {
			t.Fatalf("%s holds tuple %v under key %q", what, e.Tuple, e.Key())
		}
		return true
	})
}

// TestBackfillOwnsItsKeys: a view backfill (and a one-shot SELECT, which is
// one) reads the base store's rows in place, but keeps its own copy of every
// key and tuple it stores, so the base store reusing the entries of deleted
// rows — poisoned here — does not reach it: an epoch pinned before the swap
// still reads the rows the view was backfilled with.
func TestBackfillOwnsItsKeys(t *testing.T) {
	d, err := Open(testCatalog(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	var rows, other []data.Tuple
	for i := int64(0); i < 50; i++ {
		rows, other = append(rows, tup(i, i%7)), append(other, tup(1000+i, i%5))
	}
	if err := d.Apply([]Update{Insert("S", rows...)}); err != nil {
		t.Fatal(err)
	}
	v, err := CreateViewSQL(d, "byAC", "SELECT A, C, SUM(1) FROM S GROUP BY A, C", ViewOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e := d.Epoch()
	pinned := SnapshotOf[float64](e, "byAC").Result()
	want := fpEntries(pinned.SortedEntries())
	kept := d.Base("S").Entries()[0] // the bug: a base entry's key and tuple kept across Apply
	was := string(kept.Tuple.AppendKey(nil))
	if err := d.Apply([]Update{Delete("S", rows...), Insert("S", other...)}); err != nil {
		t.Fatal(err)
	}
	if kept.Key() == was || string(kept.Tuple.AppendKey(nil)) == was {
		t.Fatal("a base key and tuple retained across Apply still read the old row: the store did not reuse the entry")
	}
	if pinned.Len() != len(rows) {
		t.Fatalf("backfilled %d rows, want %d", pinned.Len(), len(rows))
	}
	if got := fpEntries(pinned.SortedEntries()); got != want {
		t.Fatalf("the pinned backfill reads %s after the store reused its rows, want %s", got, want)
	}
	e.Release()
	checkOwnKeys(t, "backfilled view", v.Maintainer().Result())
	checkOwnKeys(t, "base S", d.Base("S"))
	if st := d.store.Stats("S"); st.Tuples != len(other) || st.Reclaimed != uint64(len(rows)) {
		t.Fatalf("base S after the swap: %+v", st)
	}
}
