package ivm

import (
	"os"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"fivm/internal/data"
	"fivm/internal/query"
	"fivm/internal/ring"
	"fivm/internal/vorder"
)

// TestMain runs the package under data's poison hook: reclaimed entries are
// scribbled and rewound scratch keys overwritten, so a strategy that keeps
// either past its reclaim point fails the equivalence suites.
func TestMain(m *testing.M) {
	data.PoisonReclaimed(true)
	os.Exit(m.Run())
}

// paperVars numbers the paper query's variables for the cofactor lifting.
var paperVars = map[string]int{"A": 0, "B": 1, "C": 2, "D": 3, "E": 4}

func cofactorLift(v string, x data.Value) ring.Triple {
	return ring.LiftValue(paperVars[v], x.AsFloat())
}

func floatLift(_ string, x data.Value) float64 { return x.AsFloat() + 1 }

// churnBatches builds the paper database over fixed join-key domains
// (nKeys values each of A and C) with fan tuples per key combination, cut
// into a fixed number of batches per relation whatever the size: a batch
// holds one slice of every relation. Returned are the insert batches and
// their retractions, as plain delta relations that outlive every batch.
func churnBatches[P any](rg ring.Ring[P], nKeys, fan, batches int) (ins, del [][]NamedDelta[P], tuples int) {
	q := paperQuery()
	rows := map[string][]data.Tuple{}
	for a := 0; a < nKeys; a++ {
		for i := 0; i < 4*fan; i++ {
			rows["R"] = append(rows["R"], data.Ints(int64(a), int64(i)))
			rows["T"] = append(rows["T"], data.Ints(int64(a), int64(100+i)))
		}
		for c := 0; c < nKeys; c++ {
			for i := 0; i < fan; i++ {
				rows["S"] = append(rows["S"], data.Ints(int64(a), int64(c), int64(i)))
			}
		}
	}
	one := rg.One()
	ins = make([][]NamedDelta[P], batches)
	del = make([][]NamedDelta[P], batches)
	for _, rd := range q.Rels {
		ts := rows[rd.Name]
		tuples += len(ts)
		for b := 0; b < batches; b++ {
			d := data.NewRelation(rg, rd.Schema)
			for _, t := range ts[b*len(ts)/batches : (b+1)*len(ts)/batches] {
				d.Merge(t, one)
			}
			ins[b] = append(ins[b], NamedDelta[P]{Rel: rd.Name, Delta: d})
			del[b] = append(del[b], NamedDelta[P]{Rel: rd.Name, Delta: d.Negate()})
		}
	}
	return ins, del, tuples
}

// churnCycleBytes returns what one insert-everything-then-retract-it cycle
// allocates in steady state, publication on. With scratch set the batches
// reach the engine the way db.View.convert delivers them: refilled per batch
// into recycling scratch relations.
func churnCycleBytes[P any](t *testing.T, rg ring.Ring[P], lift data.LiftFunc[P], fan int, scratch bool) (bytes uint64, tuples int) {
	t.Helper()
	const nKeys, batches, cycles = 6, 8, 4
	e, err := New[P](paperQuery(), paperOrder(), rg, lift, Options[P]{})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Init(); err != nil {
		t.Fatal(err)
	}
	e.Snapshot()
	ins, del, tuples := churnBatches(rg, nKeys, fan, batches)
	conv := map[string]*data.Relation[P]{}
	feed := make([]NamedDelta[P], 0, 3)
	apply := func(batch []NamedDelta[P]) {
		if scratch {
			feed = feed[:0]
			for _, nd := range batch {
				s := conv[nd.Rel]
				if s == nil {
					s = data.NewRelation(rg, nd.Delta.Schema())
					s.RecycleCleared()
					conv[nd.Rel] = s
				}
				s.Clear()
				nd.Delta.Iterate(func(tu data.Tuple, p P) bool { s.Merge(tu, p); return true })
				feed = append(feed, NamedDelta[P]{Rel: nd.Rel, Delta: s})
			}
			batch = feed
		}
		if err := e.ApplyDeltas(batch); err != nil {
			t.Fatal(err)
		}
	}
	cycle := func() {
		for _, b := range ins {
			apply(b)
		}
		if e.Result().Len() != 1 {
			t.Fatalf("full database: result has %d keys", e.Result().Len())
		}
		for _, b := range del {
			apply(b)
		}
		if e.Result().Len() != 0 || e.MemoryBytes() == 0 {
			t.Fatalf("empty database: result has %d keys", e.Result().Len())
		}
	}
	cycle() // warm: tables, pools, slabs and plan scratch reach their size
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < cycles; i++ {
		cycle()
	}
	runtime.ReadMemStats(&m1)
	if ps := e.PoolStats(); ps.Free == 0 || ps.Reclaimed == 0 || ps.KeyBytes == 0 || ps.TupleBytes == 0 {
		t.Fatalf("pool unused after %d cycles: %+v", cycles+1, ps)
	}
	return (m1.TotalAlloc - m0.TotalAlloc) / cycles, tuples
}

// TestChurnSteadyStateAllocs: once warm, a cycle that inserts the database
// and retracts it again allocates what publication and batch bookkeeping cost
// per batch — a figure that does not depend on how many tuples the batches
// carry, because entry structs, payload storage, scratch keys and tuples,
// table slots and index buckets are all reused. The cycle runs at 1× and 4× the tuples
// over the same batches and join keys, fed the way db.View feeds its engines,
// through recycling scratch relations (where the parent commit allocates a
// key string per tuple and batch: 24.7 and 52.4 KB a cycle on the float ring,
// 63.8 KB at 4× on the cofactor ring), and once more from delta relations
// that outlive the batches. The bound is the cofactor ring's reading, 8930 B
// a cycle at every size, plus a third (the float ring reads 3698 B; with one
// heap key string per key a view adopted — entries now keep their key bytes
// across reuse — they were 10062 and 4846, and with one heap tuple per
// distinct step-output key and batch on top 15774 and 10558).
func TestChurnSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc guards run in the non-race pass")
	}
	const perCycle = 8930 + 8930/3 // 16 batches a cycle: epochs, arena runs, batch maps
	check := func(t *testing.T, bytes func(fan int, scratch bool) (uint64, int)) {
		small, n1 := bytes(2, true)
		large, n4 := bytes(8, true)
		kept, _ := bytes(8, false)
		t.Logf("%d B/cycle at %d tuples, %d B/cycle at %d tuples, %d from kept deltas", small, n1, large, n4, kept)
		if n4 != 4*n1 {
			t.Fatalf("fixture: %d vs %d tuples", n4, n1)
		}
		if small > perCycle || large > perCycle || kept > perCycle {
			t.Errorf("a steady-state cycle allocates %d B (%d tuples), %d B (%d tuples), %d B (from kept deltas), want <= %d whatever the size",
				small, n1, large, n4, kept, perCycle)
		}
	}
	t.Run("cofactor", func(t *testing.T) {
		check(t, func(fan int, scratch bool) (uint64, int) {
			return churnCycleBytes[ring.Triple](t, ring.Cofactor{}, cofactorLift, fan, scratch)
		})
	})
	t.Run("float", func(t *testing.T) {
		check(t, func(fan int, scratch bool) (uint64, int) {
			return churnCycleBytes[float64](t, ring.Float{}, floatLift, fan, scratch)
		})
	})
}

func sameTriple(a, b ring.Triple) bool {
	const m = 5
	if a.C != b.C {
		return false
	}
	as, bs, aq, bq := a.ExpandSum(m), b.ExpandSum(m), a.ExpandQ(m), b.ExpandQ(m)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	for i := range aq {
		if aq[i] != bq[i] {
			return false
		}
	}
	return true
}

// copyDump deep-copies a dump of cofactor payloads out of live storage.
func copyDump(in map[string]ring.Triple) map[string]ring.Triple {
	out := make(map[string]ring.Triple, len(in))
	for k, v := range in {
		var c ring.Triple
		ring.Cofactor{}.CopyInto(&c, v)
		out[k] = c
	}
	return out
}

// TestPoolRespectsPinnedEpochs: readers hold root snapshots — and, once the
// catalogue was asked for, snapshots of every internal view — across churn
// batches that delete exactly the keys those epochs pin and insert them
// again, so the views' pools would hand the pinned rows — entry, key bytes,
// tuple cells — out again while the epochs are still being read. Every pinned
// epoch must keep its keys and tuples and equal the re-evaluation oracle taken
// at its batch; run under -race, a payload buffer reused while an epoch shares
// it is also a reported race. The epochs of the first half stay pinned to the
// end; those of the second are released three batches later, and the rows
// they give up, removed or replaced, must come back.
func TestPoolRespectsPinnedEpochs(t *testing.T) {
	const nKeys, fan, batches, catalogAt = 5, 3, 60, 20
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
	for _, m := range []strategy[ring.Triple]{e, oracle} {
		if err := m.Init(); err != nil {
			t.Fatal(err)
		}
	}
	// slice(rel, a) is the part of the database under join key A = a (C = a
	// for T), whose deletion empties the result group and every view key
	// under it.
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

	type pin struct {
		snap *data.RelationSnapshot[ring.Triple]
		want map[string]ring.Triple
		what string
	}
	type lease struct {
		s    *ViewSnapshot[ring.Triple]
		pins []pin
	}
	var (
		mu      sync.Mutex
		pins    []pin
		passing []lease
		done    = make(chan struct{})
		wg      sync.WaitGroup
	)
	// An epoch reads its keys and its tuples (the dump is keyed by the tuple's
	// encoding) as they were: the rows it reads wait, retired, until it goes.
	verify := func(p pin) bool {
		rows := true
		p.snap.IterateEntries(func(en *data.Entry[ring.Triple]) bool {
			rows = string(en.Tuple.AppendKey(nil)) == en.Key()
			return rows
		})
		return rows && sameDump(dumpSnapshot(p.snap, cf), p.want, sameTriple)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				mu.Lock()
				held := append([]pin(nil), pins...)
				mu.Unlock()
				for _, p := range held {
					if !verify(p) {
						t.Errorf("%s moved while pinned", p.what)
						return
					}
				}
				runtime.Gosched()
			}
		}()
	}

	e.Snapshot()
	apply := func(batch []NamedDelta[ring.Triple]) {
		t.Helper()
		for _, m := range []strategy[ring.Triple]{e, oracle} {
			if err := m.ApplyDeltas(batch); err != nil {
				t.Fatal(err)
			}
		}
	}
	var load []NamedDelta[ring.Triple]
	for a := 0; a < nKeys; a++ {
		for _, rd := range q.Rels {
			load = append(load, NamedDelta[ring.Triple]{Rel: rd.Name, Delta: slice(rd.Name, a)})
		}
	}
	apply(load)
	for b := 0; b < batches; b++ {
		// Delete the slice under key a, put back the one deleted last batch.
		a, prev := b%nKeys, (b+nKeys-1)%nKeys
		var batch []NamedDelta[ring.Triple]
		for _, rd := range q.Rels {
			batch = append(batch, NamedDelta[ring.Triple]{Rel: rd.Name, Delta: slice(rd.Name, a).Negate()})
			if b > 0 {
				batch = append(batch, NamedDelta[ring.Triple]{Rel: rd.Name, Delta: slice(rd.Name, prev)})
			}
		}
		apply(batch)
		checkViewTuples[ring.Triple](t, "batch "+strconv.Itoa(b), e)
		if b == catalogAt {
			e.Catalog()
		}
		s := e.Snapshot()
		want := copyDump(dumpResult(oracle.Result(), cf))
		if len(want) != nKeys-1 {
			t.Fatalf("batch %d: oracle has %d groups, want %d", b, len(want), nKeys-1)
		}
		held := []pin{{snap: s.Result(), want: want, what: "result of epoch " + strconv.FormatUint(s.Epoch, 10)}}
		for _, name := range s.Views() {
			if node := e.byName[name]; node != e.root {
				held = append(held, pin{snap: s.View(name), want: copyDump(dumpResult(e.ViewOf(node), cf)),
					what: "view " + name + " of epoch " + strconv.FormatUint(s.Epoch, 10)})
			}
		}
		if b > catalogAt && len(held) != e.ViewCount() {
			t.Fatalf("batch %d: pinned %d of %d views", b, len(held), e.ViewCount())
		}
		if b < batches/2 {
			mu.Lock()
			pins = append(pins, held...)
			mu.Unlock()
			continue
		}
		// Second half: epochs come and go around the ones pinned for good,
		// each read once more by the writer before it gives the lease back.
		passing = append(passing, lease{s, held})
		if len(passing) > 3 {
			for _, p := range passing[0].pins {
				if !verify(p) {
					t.Errorf("%s moved before its release", p.what)
				}
			}
			passing[0].s.Release()
			passing = passing[1:]
		}
	}
	close(done)
	wg.Wait()
	for _, p := range pins {
		if !verify(p) {
			t.Errorf("%s differs from the oracle taken at its batch", p.what)
		}
	}
	ps := e.PoolStats()
	if ps.Reclaimed < batches || ps.RowsReused <= ps.Reclaimed {
		t.Fatalf("the churn never went through the pool, or no entry a released epoch read came back to replace another: %+v", ps)
	}
	// A held epoch holds the rows it reads and no other: what waits retired is
	// exactly the rows the epochs still held read and the views no longer store.
	read := map[*data.Value]bool{}
	for _, l := range append(passing, lease{pins: pins}) {
		for _, p := range l.pins {
			p.snap.IterateEntries(func(en *data.Entry[ring.Triple]) bool {
				read[&en.Tuple[0]] = true
				return true
			})
		}
	}
	for _, v := range e.views {
		v.IterateEntries(func(en *data.Entry[ring.Triple]) bool {
			delete(read, &en.Tuple[0])
			return true
		})
	}
	if ps.RowsRetired != len(read) {
		t.Errorf("%d rows retired, want the %d removed rows the held epochs read", ps.RowsRetired, len(read))
	}
	// The writer alone decides these figures. The first half's epochs, pinned
	// to the end, and the last three of the second hold 281 rows retired,
	// removed (149) or replaced by the copy a key's first touch after a publish
	// wrote (132), each whole with its payload storage; the inserts and
	// replacements that would have reused them bought theirs (335 rows bought,
	// 911 written into reused entries). An arena block waits the same way, for
	// the held epochs that read it: one does (BlocksRetired), the rest of the 11
	// are the blocks the views' latest snapshots read or fill.
	h := ps.Arena.Headers
	ps.Arena.Headers = data.Recycled{}
	if ps.TableBytes == 0 {
		t.Errorf("no index bucket storage reported: %+v", ps)
	}
	ps.TableBytes = 0 // which buckets need a class at once follows the process's hash seed
	if want := (data.PoolStats{Free: 299, Reclaimed: 540, RowsRetired: 281, RowsReused: 911, KeyBytes: 8528, TupleBytes: 21504,
		SlabChunks: 20, TuplesCopied: 335, Arena: data.ArenaStats{BlocksLive: 11, BlocksRetired: 1, GenerationsOpen: 11}}); ps != want {
		t.Errorf("pool stats %+v, want %+v", ps, want)
	}
	// The epochs of the first half stay pinned and so do their headers; the
	// second half's are released three batches later and come back.
	if want := (data.Recycled{Reused: 159, Allocated: 126}); h != want {
		t.Errorf("headers %+v, want %+v", h, want)
	}
}

// TestAllocGuardStepOutputTuples: on the shape of the benchmark's
// v_by_locn_date — a two-way join whose sibling is probed by part of its key,
// so the step's join tuples live in its arena and its output cannot share
// them — a batch that only touches groups the views already hold allocates no
// tuple: the step output projects into its slab and no view adopts from it.
// Measured as bytes per batch with publication off (patching an epoch costs
// some 13 B per dirty key), at 24 tuples into 60 groups and at 96 tuples into
// all 240: both must stay under the size of one tuple, where the parent commit
// allocates one projected tuple of 64 B per output key and batch (3.8 and
// 15.4 KB).
func TestAllocGuardStepOutputTuples(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc guards run in the non-race pass")
	}
	const nL, nD, batches = 12, 20, 50
	facts, dims := data.NewSchema("L", "K"), data.NewSchema("L", "D")
	q := query.MustNew("Q", data.NewSchema("L", "D"),
		query.RelDef{Name: "I", Schema: facts}, query.RelDef{Name: "W", Schema: dims})
	perBatch := func(locns int) uint64 {
		e, err := New[float64](q, vorder.MustNew(vorder.V("L", vorder.V("K"), vorder.V("D"))), ring.Float{}, floatLift, Options[float64]{})
		if err != nil {
			t.Fatal(err)
		}
		base, w := data.NewRelation[float64](ring.Float{}, facts), data.NewRelation[float64](ring.Float{}, dims)
		for l := int64(0); l < nL; l++ {
			base.Merge(data.Ints(l, 1<<20), 1)
			for d := int64(0); d < nD; d++ {
				w.Merge(data.Ints(l, d), 1)
			}
		}
		for rel, r := range map[string]*data.Relation[float64]{"I": base, "W": w} {
			if err := e.Load(rel, r); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Init(); err != nil {
			t.Fatal(err)
		}
		if st := e.plans[e.root.LeafOf("I")].steps; len(st) != 2 || !st[0].shareOut || st[1].shareOut || st[1].siblings[0].full {
			t.Fatalf("fixture: not the v_by_locn_date shape\n%s", e.Tree())
		}
		tuples := make([]data.Tuple, 8*locns)
		for i := range tuples {
			tuples[i] = data.Ints(int64(i%locns), int64(i))
		}
		feed := data.NewRelation[float64](ring.Float{}, facts)
		feed.RecycleCleared()
		batch := []NamedDelta[float64]{{Rel: "I", Delta: feed}}
		apply := func(mult float64) {
			feed.Clear()
			for _, tu := range tuples {
				feed.Merge(tu, mult)
			}
			if err := e.ApplyDeltas(batch); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 4; i++ { // warm: tables, pools, slabs
			apply(1)
			apply(-1)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < batches; i++ {
			apply(1)
			apply(-1)
		}
		runtime.ReadMemStats(&m1)
		if e.Result().Len() != nL*nD || e.PoolStats().TupleBytes == 0 {
			t.Fatalf("%d groups, pool %+v", e.Result().Len(), e.PoolStats())
		}
		checkViewTuples[float64](t, "after the churn", e)
		return (m1.TotalAlloc - m0.TotalAlloc) / (2 * batches)
	}
	small, large := perBatch(nL/4), perBatch(nL)
	t.Logf("%d B per batch of %d tuples into %d groups, %d B per batch of %d tuples into %d groups", small, 2*nL, nL/4*nD, large, 8*nL, nL*nD)
	if small >= 64 || large >= 64 {
		t.Errorf("a batch into %d groups allocates %d B, one into %d groups %d B, want under one tuple's 64 B whatever the size",
			nL/4*nD, small, nL*nD, large)
	}
}
