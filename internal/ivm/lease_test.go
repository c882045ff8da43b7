package ivm

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fivm/internal/data"
	"fivm/internal/query"
	"fivm/internal/ring"
	"fivm/internal/vorder"
)

// countByA builds a COUNT(*) GROUP BY A engine over R(A,B) holding one group
// per key in [0, keys), publication on.
func countByA(t testing.TB, keys int) *Engine[int64] {
	t.Helper()
	sch := data.NewSchema("A", "B")
	q := query.MustNew("Q", data.NewSchema("A"), query.RelDef{Name: "R", Schema: sch})
	e, err := New[int64](q, vorder.MustNew(vorder.V("A", vorder.V("B"))), ring.Int{}, countLift, Options[int64]{})
	if err != nil {
		t.Fatal(err)
	}
	load := data.NewRelation[int64](ring.Int{}, sch)
	for a := 0; a < keys; a++ {
		load.Merge(data.Ints(int64(a), 0), 1)
	}
	if err := e.Load("R", load); err != nil {
		t.Fatal(err)
	}
	if err := e.Init(); err != nil {
		t.Fatal(err)
	}
	e.Snapshot().Release()
	return e
}

// spreadBatch refills d with one more copy of R(a,0) for 32 keys a spread
// over the whole key range, a different set per batch: every one is an
// in-place update of a stored group, each in a snapshot chunk of its own.
func spreadBatch(d *data.Relation[int64], keys, batch int) []NamedDelta[int64] {
	d.Clear()
	for i := 0; i < 32; i++ {
		d.Merge(data.Ints(int64((i*keys/32+batch*7)%keys), 0), 1)
	}
	return []NamedDelta[int64]{{Rel: "R", Delta: d}}
}

// TestPublishLoopRecyclesArena: a publish loop whose reader takes and
// releases the epoch of every batch allocates a constant per batch that does
// not contain the chunks the batch dirtied (32 chunks of 64..128 entries of
// 64 bytes: some 190 KiB per batch when nobody gives an epoch back) — also
// when a second reader holds every 7th epoch for 50 batches.
func TestPublishLoopRecyclesArena(t *testing.T) {
	const keys, warm, batches, bound = 4096, 200, 300, 4 << 10
	for _, hold := range []bool{false, true} {
		e := countByA(t, keys)
		d := data.NewRelation[int64](ring.Int{}, data.NewSchema("A", "B"))
		d.RecycleCleared()
		held := make([]*ViewSnapshot[int64], 0, 16)
		var before, after runtime.MemStats
		for b := 0; b < warm+batches; b++ {
			if b == warm {
				runtime.ReadMemStats(&before)
			}
			if err := e.ApplyDeltas(spreadBatch(d, keys, b)); err != nil {
				t.Fatal(err)
			}
			s := e.Snapshot()
			if n, _ := s.Result().Get(data.Ints(int64(b * 7 % keys))); n < 2 {
				t.Fatalf("batch %d: group %d counts %d", b, b*7%keys, n)
			}
			if hold && b%7 == 0 {
				s.Retain()
				held = append(held, s)
			}
			epoch := s.Epoch
			s.Release()
			if len(held) > 0 && held[0].Epoch+50 <= epoch {
				held[0].Release()
				held = append(held[:0], held[1:]...)
			}
		}
		runtime.ReadMemStats(&after)
		perBatch := (after.TotalAlloc - before.TotalAlloc) / batches
		as := e.PoolStats().Arena
		t.Logf("hold=%v: %d B per batch; arena %+v", hold, perBatch, as)
		if perBatch > bound {
			t.Errorf("hold=%v: %d B allocated per batch, want at most %d: epochs do not give their storage back", hold, perBatch, bound)
		}
		if as.BackstopReclaims != 0 || as.ChunksFree == 0 {
			t.Errorf("hold=%v: arena %+v, want recycled chunks and no backstop reclaim", hold, as)
		}
	}
}

// TestForgottenLeaseFallsBackToCollector: a handle nobody releases stays
// readable for as long as it is reachable, however many publishes go by; once
// dropped, the collector's cleanup reports its generation (and is counted, as
// the one forgotten lease) and the next publish takes its chunks and rows back.
func TestForgottenLeaseFallsBackToCollector(t *testing.T) {
	const keys = 4096
	e := countByA(t, keys)
	d := data.NewRelation[int64](ring.Int{}, data.NewSchema("A", "B"))
	publish := func(b int) {
		t.Helper()
		if err := e.ApplyDeltas(spreadBatch(d, keys, b)); err != nil {
			t.Fatal(err)
		}
		e.Snapshot().Release()
	}
	publish(0)
	forgotten := e.Snapshot()
	want := dumpSnapshot(forgotten.Result(), ring.Int{})
	for b := 1; b < 200; b++ {
		publish(b)
	}
	if !sameDump(dumpSnapshot(forgotten.Result(), ring.Int{}), want, eqInt) {
		t.Fatal("an epoch still held changed under 200 publishes")
	}
	if as := e.PoolStats().Arena; as.BackstopReclaims != 0 || as.GenerationsOpen < 2 {
		t.Fatalf("arena %+v while the lease is held, want its generation open and no backstop reclaim", as)
	}
	forgotten = nil
	deadline := time.Now().Add(10 * time.Second)
	for b := 200; ; b++ {
		runtime.GC()
		runtime.GC()
		publish(b)
		as := e.PoolStats().Arena
		if as.BackstopReclaims == 1 && as.GenerationsOpen <= 2 {
			break
		}
		if as.BackstopReclaims > 1 || time.Now().After(deadline) {
			t.Fatalf("arena %+v, want exactly one backstop reclaim and the generation drained", as)
		}
	}
}

// TestReadAfterReleaseIsPoisoned is the deliberately broken reader: it keeps
// reading a result after releasing its lease. Within two generation spans of
// publishes the epoch's chunks and rows go back to the writer, and under the
// poison hook (see TestMain) the stale snapshot then reads scribbled rows or a
// cleared chunk — not the plausible ones of whichever epoch took the storage
// over.
func TestReadAfterReleaseIsPoisoned(t *testing.T) {
	const keys, lap = 4096, 4096 / 64
	e := countByA(t, keys)
	d := data.NewRelation[int64](ring.Int{}, data.NewSchema("A", "B"))
	publish := func(b int) {
		t.Helper()
		if err := e.ApplyDeltas(spreadBatch(d, keys, b)); err != nil {
			t.Fatal(err)
		}
		e.Snapshot().Release()
	}
	for b := 0; b < 2*lap; b++ { // until every chunk was rebuilt since the first publish
		publish(b)
	}
	s := e.Snapshot()
	stale := s.Result()
	s.Release()
	caughtAt := -1
	for b := 0; b < 2*16+lap && caughtAt < 0; b++ { // 2×genSpan, and a lap to spare
		publish(2*lap + b)
		func() {
			defer func() {
				if recover() != nil {
					caughtAt = b // a row through a cleared chunk
				}
			}()
			seen := 0
			stale.Iterate(func(tu data.Tuple, n int64) bool {
				if seen++; n == math.MinInt64 {
					caughtAt = b
				} else if m, ok := stale.Get(tu); !ok || m != n {
					caughtAt = b
				}
				return caughtAt < 0
			})
			if seen != stale.Len() {
				caughtAt = b // a recycled header iterates another epoch
			}
		}()
	}
	if caughtAt < 0 {
		t.Fatal("reads through a released snapshot went unnoticed")
	}
	t.Logf("stale read caught %d publishes after the release", caughtAt+1)
}

// TestLeasesUnderChurn: four readers acquire epochs through Engine.Snapshot
// (Catalog, once it was asked for), hold each for a random 0..40 batches and
// release it — except a random tenth, which they forget — while the writer
// deletes and re-inserts the very groups those epochs pin. Every read of
// every held epoch, root and (after Catalog) internal views alike, must equal
// what the ReEval oracle and the live views held at that epoch's batch — and
// so must the epoch a three-shard Parallel reduces from the same batches —
// while the rows the released epochs gave up, payload storage included, are
// written into again. The rows the epochs hold bound the pool: it never holds
// more than a lease window's removals and replacements, and with every lease
// gone a further cycle buys nothing.
func TestLeasesUnderChurn(t *testing.T) {
	const nKeys, fan, batches, catalogAt, readers = 5, 3, 120, 40, 4
	cf := ring.Cofactor{}
	q := paperQuery("A")
	e, err := New[ring.Triple](q, paperOrder(), cf, cofactorLift, Options[ring.Triple]{})
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := NewReEval[ring.Triple](q, paperOrder(), cf, cofactorLift)
	if err != nil {
		t.Fatal(err)
	}
	// par reduces three shard results into a sealed epoch per batch.
	par, err := NewParallel[ring.Triple](q, cf, 3, func() (*Engine[ring.Triple], error) {
		return New[ring.Triple](q, paperOrder(), cf, cofactorLift, Options[ring.Triple]{})
	})
	if err != nil {
		t.Fatal(err)
	}
	defer par.Close()
	maintainers := []strategy[ring.Triple]{e, oracle, par}
	for _, m := range maintainers {
		if err := m.Init(); err != nil {
			t.Fatal(err)
		}
	}
	if len(par.shards) != 3 {
		t.Fatalf("fixture: the parallel maintainer has %d shards, want 3", len(par.shards))
	}
	par.Snapshot().Release()
	slice := func(rd string, a int) *data.Relation[ring.Triple] {
		sch, _ := q.Rel(rd)
		d := data.NewRelation[ring.Triple](cf, sch.Schema)
		for i := 0; i < fan; i++ {
			switch rd {
			case "R":
				d.Merge(data.Ints(int64(a), int64(i)), cf.One())
			case "T":
				d.Merge(data.Ints(int64(a), int64(10+i)), cf.One())
			case "S":
				for c := 0; c < nKeys; c++ {
					d.Merge(data.Ints(int64(a), int64(c), int64(i)), cf.One())
				}
			}
		}
		return d
	}
	e.Snapshot().Release()

	// wants[epoch] is what that epoch must read: the oracle's result and,
	// from the catalogue on, the live dump of every internal view.
	type expect struct {
		result map[string]ring.Triple
		views  map[string]map[string]ring.Triple
	}
	var (
		mu         sync.Mutex
		wants      = map[uint64]expect{}
		applied    uint64 // batches applied so far (guarded by mu)
		catalogued bool   // the writer has asked for the catalogue (guarded by mu)
		wg         sync.WaitGroup
		stop       = make(chan struct{})
		// passed[r] is the applied count reader r's last full pass began at: the
		// writer waits for every reader to pass once per batch, so a lease ends
		// at most one batch after its until.
		passed [readers]atomic.Uint64
	)
	check := func(s *ViewSnapshot[ring.Triple]) {
		mu.Lock()
		w, ok := wants[s.Epoch]
		mu.Unlock()
		if !ok {
			return // published, its expectation not recorded yet
		}
		if !sameDump(dumpSnapshot(s.Result(), cf), w.result, sameTriple) {
			t.Errorf("result of epoch %d differs from the oracle at its batch", s.Epoch)
		}
		for _, name := range s.Views() {
			if wv, ok := w.views[name]; ok && !sameDump(dumpSnapshot(s.View(name), cf), wv, sameTriple) {
				t.Errorf("view %s of epoch %d differs from the live view at its batch", name, s.Epoch)
			}
		}
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r + 1)))
			type lease struct {
				s     *ViewSnapshot[ring.Triple]
				until uint64
			}
			var held []lease
			for {
				select {
				case <-stop:
					for _, l := range held {
						check(l.s)
						l.s.Release()
					}
					return
				default:
				}
				mu.Lock()
				now, viaCatalog := applied, catalogued && rng.Intn(2) == 0
				mu.Unlock()
				s := e.Snapshot()
				if viaCatalog {
					s.Release()
					s = e.Catalog()
				}
				check(s)
				if rng.Intn(10) == 0 {
					s = nil // forgotten: the collector's to reclaim
				} else {
					held = append(held, lease{s, now + uint64(rng.Intn(41))})
				}
				keep := held[:0]
				for _, l := range held {
					check(l.s)
					if l.until <= now {
						l.s.Release()
					} else {
						keep = append(keep, l)
					}
				}
				clear(held[len(keep):]) // a stale slot would keep a recycled struct, forgotten as a later epoch, from the backstop
				held = keep
				passed[r].Store(now)
				runtime.Gosched()
			}
		}(r)
	}

	apply := func(batch []NamedDelta[ring.Triple]) {
		t.Helper()
		for _, m := range maintainers {
			if err := m.ApplyDeltas(batch); err != nil {
				t.Fatal(err)
			}
		}
		checkViewTuples[ring.Triple](t, "after a batch", e)
		s := e.Snapshot()
		w := expect{result: copyDump(dumpResult(oracle.Result(), cf))}
		ps := par.Snapshot()
		if !sameDump(dumpSnapshot(ps.Result(), cf), w.result, sameTriple) {
			t.Errorf("shard reduction of epoch %d differs from the oracle", ps.Epoch)
		}
		ps.Release()
		if len(s.Views()) > 0 {
			w.views = map[string]map[string]ring.Triple{}
			for _, name := range s.Views() {
				if node := e.byName[name]; node != e.root {
					w.views[name] = copyDump(dumpResult(e.ViewOf(node), cf))
				}
			}
		}
		mu.Lock()
		wants[s.Epoch] = w
		applied++
		mu.Unlock()
		s.Release()
	}
	var load []NamedDelta[ring.Triple]
	for a := 0; a < nKeys; a++ {
		for _, rd := range q.Rels {
			load = append(load, NamedDelta[ring.Triple]{Rel: rd.Name, Delta: slice(rd.Name, a)})
		}
	}
	apply(load)
	// churn(b) deletes the slice under key b mod nKeys and puts back the one
	// batch b-1 deleted.
	churn := func(b int) {
		t.Helper()
		a, prev := b%nKeys, (b+nKeys-1)%nKeys
		var batch []NamedDelta[ring.Triple]
		for _, rd := range q.Rels {
			batch = append(batch, NamedDelta[ring.Triple]{Rel: rd.Name, Delta: slice(rd.Name, a).Negate()})
			if b > 0 {
				batch = append(batch, NamedDelta[ring.Triple]{Rel: rd.Name, Delta: slice(rd.Name, prev)})
			}
		}
		apply(batch)
	}
	for b := 0; b < batches; b++ {
		churn(b)
		if b == catalogAt {
			e.Catalog().Release()
			mu.Lock()
			catalogued = true
			mu.Unlock()
		}
		for r := range passed {
			for passed[r].Load() < uint64(b+2) { // the load and b+1 batches
				runtime.Gosched()
			}
		}
		if b%4 == 0 {
			runtime.GC() // forgotten leases reach the backstop within four batches of their generation's end
		}
	}
	close(stop)
	wg.Wait()
	ps := e.PoolStats()
	if ps.Reclaimed < batches || ps.RowsReused <= ps.Reclaimed {
		t.Fatalf("the churn never went through the pool, or no entry a released epoch read came back to replace another: %+v", ps)
	}
	t.Logf("pool after %d batches: %+v", batches, ps)
	// The writer alone decides how many entries it removed and how many rows
	// it wrote, each into a reused entry or a bought one: 1116 inserted, and
	// 1350 for the keys a batch touched first after a publish, each a copy that
	// replaced the entry the epoch read. And every publish takes one header per
	// snapshot, whoever releases: those the readers released were built in
	// again, the forgotten tenth and whatever was still held when the writer
	// came by were not.
	h := ps.Arena.Headers
	if ps.Reclaimed != 1080 || ps.TuplesCopied+ps.RowsReused != 1116+1350 {
		t.Errorf("pool stats %+v, want 1080 entries reclaimed and 1116+1350 rows written", ps)
	}
	// Which removed or replaced rows waited, retired, and which were free for
	// the next insert or replacement is up to the readers; how long a row can
	// wait is not. A lease ends at most 41+1 batches after its epoch (the
	// writer waits for every reader to pass once a batch), a forgotten one with
	// its generation — 16 publishes and their leases — plus 4 batches to the
	// next collection and 1 to the drain: 64 batches at most. So the pool holds
	// no more than the entries 64 batches remove or replace, 9 and at most 15 a
	// batch, and the views no more rows than that beside the 36 live ones.
	// Their slabs follow: at most twice the cells those rows take (3 a row at
	// most, 32 bytes a cell) plus a first 1 KiB chunk each, beside the 2 KiB and
	// 10 chunks of the delta scratch slabs; a slab that doubles from 1 KiB
	// passes twice that in 7 chunks.
	const window, left, live = 64, 1080/batches + 15, 1116 - 1080
	rowsMax := window*left + live
	if ps.Free > window*left || int(ps.TuplesCopied) > rowsMax ||
		ps.TupleBytes > 2*rowsMax*3*32+e.ViewCount()*1024+2048 || ps.SlabChunks > 7*e.ViewCount()+10 {
		t.Errorf("pool stats %+v: past the ceiling of %d batches' removals and replacements and %d rows", ps, window, rowsMax)
	}
	if h.Reused == 0 || h.Allocated == 0 || h.Reused+h.Allocated != 565 {
		t.Errorf("headers %+v, want 565 taken, some of them reused", h)
	}
	// Every lease released and the forgotten ones collected, no row waits; and
	// a further cycle of the churn buys nothing: every row lands in a pooled
	// entry, and no slab grows.
	b := batches
	for ; e.PoolStats().RowsRetired > 0; b++ {
		if b == batches+50 {
			t.Fatalf("%+v: rows still retired with every lease released or collected", e.PoolStats())
		}
		runtime.GC()
		churn(b)
	}
	before := e.PoolStats()
	for end := b + nKeys; b < end; b++ {
		churn(b)
	}
	if ps := e.PoolStats(); ps.TuplesCopied != before.TuplesCopied || ps.RowsRetired != 0 ||
		ps.TupleBytes != before.TupleBytes || ps.SlabChunks != before.SlabChunks || ps.Free != before.Free {
		t.Errorf("a cycle with no lease held grew the pool: %+v, was %+v", ps, before)
	}
}

// TestEpochHeaderComesBack: an epoch whose last reference is gone reads ^0,
// refuses Retain — a caller that held no reference used to retain nothing
// silently and underflow the count on its Release — and is the struct the
// next epoch is built in, while an epoch somebody holds keeps reading its own.
func TestEpochHeaderComesBack(t *testing.T) {
	const keys = 64
	e := countByA(t, keys)
	d := data.NewRelation[int64](ring.Int{}, data.NewSchema("A", "B"))
	s0 := e.Snapshot()
	s0.Release()
	if err := e.ApplyDeltas(spreadBatch(d, keys, 0)); err != nil { // epoch 1 supersedes s0: its last reference
		t.Fatal(err)
	}
	if s0.Epoch != ^uint64(0) || s0.result != nil {
		t.Fatalf("released epoch still reads epoch %d", s0.Epoch)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Retain on a released epoch did not panic")
			}
		}()
		s0.Retain()
	}()
	held := e.Snapshot()
	defer held.Release()
	want := dumpSnapshot(held.Result(), ring.Int{})
	if err := e.ApplyDeltas(spreadBatch(d, keys, 1)); err != nil {
		t.Fatal(err)
	}
	s2 := e.Snapshot()
	defer s2.Release()
	if s2 != s0 || s2.Epoch != 2 || s2.Superseded() || !held.Superseded() {
		t.Errorf("epoch 2 is not built in epoch 0's struct: epoch %d at %p, epoch 0 was at %p", s2.Epoch, s2, s0)
	}
	if held.Epoch != 1 || !sameDump(dumpSnapshot(held.Result(), ring.Int{}), want, func(a, b int64) bool { return a == b }) {
		t.Errorf("the held epoch moved: it reads epoch %d", held.Epoch)
	}
	if h := e.PoolStats().Arena.Headers; h.Reused != 2 || h.Allocated != 4 {
		t.Errorf("headers %+v, want the epoch and its relation snapshot reused once and allocated twice each", h)
	}
}
