package ivm

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"fivm/internal/data"
	"fivm/internal/ring"
)

// loadedPaperEngine builds the three-relation paper-query engine (group-by
// A) over random contents dense enough that later deltas hit stored keys.
func loadedPaperEngine(t *testing.T, opts Options[int64]) *Engine[int64] {
	t.Helper()
	q := paperQuery("A")
	e, err := New[int64](q, paperOrder(), ring.Int{}, countLift, opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for _, rd := range q.Rels {
		if err := e.Load(rd.Name, randomDelta(rng, rd.Schema, 6, 300)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Init(); err != nil {
		t.Fatal(err)
	}
	return e
}

// checkCatalog compares every view of a catalogue epoch with the engine's
// live views (quiescent): same names, same contents, and point lookups and
// full scans of each view snapshot agree with its iteration.
func checkCatalog(t *testing.T, e *Engine[int64], s *ViewSnapshot[int64]) {
	t.Helper()
	if got, want := fmt.Sprint(s.Views()), fmt.Sprint(e.ViewNames()); got != want || len(s.Views()) == 0 {
		t.Fatalf("snapshot catalogue %v != engine catalogue %v", got, want)
	}
	if s.View(e.names[e.root]) != s.Result() || s.ViewOf(e.root) != s.Result() {
		t.Fatalf("the catalogued root is not the epoch's result")
	}
	for _, name := range s.Views() {
		snap, live := s.View(name), e.ViewByName(name)
		if snap == nil || live == nil {
			t.Fatalf("view %q: snapshot=%v live=%v", name, snap, live)
		}
		if snap != s.ViewOf(e.byName[name]) {
			t.Fatalf("view %q: View and ViewOf disagree", name)
		}
		if snap.Len() != live.Len() {
			t.Fatalf("view %q: snapshot Len %d != live Len %d", name, snap.Len(), live.Len())
		}
		snap.Iterate(func(tu data.Tuple, p int64) bool {
			if lp, ok := live.Get(tu); !ok || lp != p {
				t.Fatalf("view %q: tuple %v snapshot=%d live=%d,%v", name, tu, p, lp, ok)
			}
			if gp, ok := snap.Get(tu); !ok || gp != p {
				t.Fatalf("view %q: Get(%v) = %d,%v want %d", name, tu, gp, ok, p)
			}
			return true
		})
		scanned := 0
		snap.ScanPrefix(nil, func(*data.Entry[int64]) bool { scanned++; return true })
		if scanned != snap.Len() {
			t.Fatalf("view %q: scan visited %d of %d", name, scanned, snap.Len())
		}
	}
	if s.View("no-such-view") != nil || e.ViewByName("no-such-view") != nil {
		t.Fatalf("unknown view name resolved")
	}
}

// TestCatalogOnDemand: Snapshot publishes the result alone and attaches
// snapshot state to no view below the root; Catalog republishes the current
// epoch with every materialized view in it, later epochs keep carrying it,
// and a catalogue epoch pinned earlier is isolated from later batches.
func TestCatalogOnDemand(t *testing.T) {
	e := loadedPaperEngine(t, Options[int64]{})
	rng := rand.New(rand.NewSource(8))
	step := func() {
		t.Helper()
		rel := e.q.Rels[rng.Intn(len(e.q.Rels))]
		if err := e.ApplyDelta(rel.Name, randomDelta(rng, rel.Schema, 6, 5)); err != nil {
			t.Fatal(err)
		}
	}

	s0 := e.Snapshot()
	step()
	s1 := e.Snapshot()
	for _, s := range []*ViewSnapshot[int64]{s0, s1} {
		if len(s.Views()) != 0 || s.View("R") != nil || s.ViewOf(e.root) != nil {
			t.Fatalf("epoch %d carries a catalogue nobody asked for: %v", s.Epoch, s.Views())
		}
	}
	if root, internal := e.TrackedViews(); !root || internal != 0 {
		t.Fatalf("after Snapshot alone: root tracked=%v, %d internal views tracked, want true, 0", root, internal)
	}

	c := e.Catalog()
	if c.Epoch != s1.Epoch || c.At != s1.At || c.Result() != s1.Result() {
		t.Fatalf("Catalog moved the epoch: %d@%v vs %d@%v", c.Epoch, c.At, s1.Epoch, s1.At)
	}
	if e.Snapshot() != c || e.Catalog() != c {
		t.Fatalf("the upgraded epoch is not the published one")
	}
	if len(s1.Views()) != 0 {
		t.Fatalf("an epoch pinned before the request grew a catalogue")
	}
	checkCatalog(t, e, c)
	if root, internal := e.TrackedViews(); !root || internal != e.ViewCount()-1 {
		t.Fatalf("after Catalog: root tracked=%v, %d of %d internal views tracked", root, internal, e.ViewCount()-1)
	}

	pinned := map[string]map[string]int64{}
	for _, name := range c.Views() {
		pinned[name] = dumpSnapshot(c.View(name), ring.Int{})
	}
	for i := 0; i < 10; i++ {
		step()
		s := e.Snapshot()
		if s.Epoch != c.Epoch+uint64(i)+1 {
			t.Fatalf("epoch %d after %d more batches", s.Epoch, i+1)
		}
		checkCatalog(t, e, s)
	}
	for _, name := range c.Views() {
		if !sameDump(dumpSnapshot(c.View(name), ring.Int{}), pinned[name], eqInt) {
			t.Fatalf("view %q of the pinned catalogue epoch moved", name)
		}
	}
}

// TestPublishCostIgnoresInternalViews is the regression guard for result-only
// publication: with Snapshot enabled, the bytes a steady-state batch
// allocates must not grow with the number of materialized internal views the
// batch dirties. The same S-only stream of in-place updates runs through an
// engine that materializes just the probed siblings of S's path
// (Updatable: S) and one that also stores the views on the path (all
// relations updatable); publication overhead is measured against an
// unpublished twin of each, so differences in maintenance work cancel.
func TestPublishCostIgnoresInternalViews(t *testing.T) {
	const warm, batches = 50, 400
	sch := data.NewSchema("A", "C", "E")
	perBatch := func(upd []string, publish bool) (bytes float64, views int) {
		e := loadedPaperEngine(t, Options[int64]{Updatable: upd})
		if publish {
			e.Snapshot()
		}
		rng := rand.New(rand.NewSource(11))
		batch := make([]NamedDelta[int64], 1)
		var before, after runtime.MemStats
		for i := 0; i < warm+batches; i++ {
			if i == warm {
				runtime.ReadMemStats(&before)
			}
			d := data.NewRelation[int64](ring.Int{}, sch)
			for j := 0; j < 20; j++ {
				d.Merge(data.Ints(int64(rng.Intn(6)), int64(rng.Intn(6)), int64(rng.Intn(6))), 1)
			}
			batch[0] = NamedDelta[int64]{Rel: "S", Delta: d}
			if err := e.ApplyDeltas(batch); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		if publish {
			if root, internal := e.TrackedViews(); !root || internal != 0 {
				t.Fatalf("Updatable=%v: root tracked=%v, %d internal views tracked, want true, 0", upd, root, internal)
			}
		}
		return float64(after.TotalAlloc-before.TotalAlloc) / batches, e.ViewCount()
	}
	fewOff, _ := perBatch([]string{"S"}, false)
	few, nFew := perBatch([]string{"S"}, true)
	manyOff, _ := perBatch(nil, false)
	many, nMany := perBatch(nil, true)
	if nMany < nFew+2 {
		t.Fatalf("fixture: %d vs %d materialized views, want at least two more", nMany, nFew)
	}
	costFew, costMany := few-fewOff, many-manyOff
	t.Logf("publish cost per batch: %.0f B with %d views, %.0f B with %d views", costFew, nFew, costMany, nMany)
	if costMany > 1.5*costFew+256 {
		t.Fatalf("publishing costs %.0f B/batch with %d materialized views but %.0f B/batch with %d: it grows with the internal views",
			costMany, nMany, costFew, nFew)
	}
}
