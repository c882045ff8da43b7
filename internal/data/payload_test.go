package data

import (
	"maps"
	"math"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"fivm/internal/ring"
)

func cloneTriple(t ring.Triple) ring.Triple {
	return ring.Triple{C: t.C, Vars: slices.Clone(t.Vars), S: slices.Clone(t.S), Q: slices.Clone(t.Q)}
}

// sameBits compares two triples bit for bit, NaNs included.
func sameBits(a, b ring.Triple) bool {
	eq := func(x, y []float64) bool {
		return slices.EqualFunc(x, y, func(p, q float64) bool { return math.Float64bits(p) == math.Float64bits(q) })
	}
	return math.Float64bits(a.C) == math.Float64bits(b.C) && slices.Equal(a.Vars, b.Vars) && eq(a.S, b.S) && eq(a.Q, b.Q)
}

// retiredRows returns the rows r retired that wait for an epoch: out of the
// table and the pool, reached only through the chunks that point at them — the
// latest directory's or the retired ones.
func retiredRows[P any](r *Relation[P]) []*Entry[P] {
	var out []*Entry[P]
	seen := map[*Entry[P]]bool{}
	for _, c := range append(slices.Clone(r.snap.arena.retired), r.snap.last.chunks...) {
		for _, e := range c.entries() {
			if e.retired && !seen[e] {
				seen[e] = true
				out = append(out, e)
			}
		}
	}
	return out
}

// TestPayloadsRespectPinnedEpochs: a cofactor relation whose every key is
// merged into, overwritten (Set) or deleted and re-inserted in every epoch —
// each a replacement of the entry, its first touch after a publish — under
// three kinds of reader at once: one that pins an epoch for 3·genSpan
// publishes, one that takes every epoch and releases it two publishes later,
// one that forgets every seventh. The pinned epoch must read, bit for bit, the
// deep copy made when it was pinned, and no live entry may sit in storage it
// reads; the live relation must equal a model kept with the immutable ring;
// every row that waits is one an unreleased epoch reads. After the pin's
// release every key's next move lands in storage seen before — at 4 keys and at
// 300, more than the 256 payloads a separate spare list once held — and when
// nobody releases anything the rows that wait are exactly those the reachable
// epochs read and the relation no longer stores.
func TestPayloadsRespectPinnedEpochs(t *testing.T) {
	for _, keys := range []int64{4, 300} {
		t.Run(strconv.FormatInt(keys, 10)+"keys", func(t *testing.T) { payloadsRespectPinnedEpochs(t, keys) })
	}
}

func payloadsRespectPinnedEpochs(t *testing.T, keys int64) {
	cf := ring.Cofactor{}
	r := NewRelation[ring.Triple](cf, NewSchema("A"))
	r.Reclaim()
	model := map[int64]ring.Triple{}
	// seen holds every storage a live entry ever had — reachable, so that the
	// allocator cannot hand the same address out twice.
	seen := map[*float64]bool{}
	round := func(i int) {
		for k := int64(0); k < keys; k++ {
			old, stored := model[k]
			switch {
			case !stored:
				model[k] = triple(0, 1, 2)
				r.Merge(Ints(k), triple(0, 1, 2))
			case (i+int(k))%5 == 0:
				delete(model, k)
				r.Merge(Ints(k), cf.Neg(old)) // the entry is parked, intact until Reclaim
			case (i+int(k))%5 == 1:
				model[k] = cf.Add(triple(0, 1, 2), triple(0, 1, 2))
				r.Set(Ints(k), model[k])
			default:
				model[k] = cf.Add(old, triple(0, 1, 2))
				r.Merge(Ints(k), triple(0, 1, 2))
			}
			if e := r.lookup(Ints(k)); e != nil {
				seen[&e.Payload.S[0]] = true
			}
		}
	}
	type pin struct {
		snap    *RelationSnapshot[ring.Triple]
		want    map[string]ring.Triple
		storage map[*float64]bool
	}
	// check compares the relation with the model and asserts that no live entry
	// sits in storage one of pins reads and that every row that waits is one of
	// them reads. A pin whose snapshot was forgotten (nil) may be collected
	// already: it only accounts for rows that wait.
	check := func(i int, pins ...pin) {
		t.Helper()
		if r.Len() != len(model) {
			t.Fatalf("round %d: %d keys stored, model has %d", i, r.Len(), len(model))
		}
		for k, want := range model {
			e := r.lookup(Ints(k))
			if e == nil || !sameBits(e.Payload, want) {
				t.Fatalf("round %d: key %d holds %v, model %v", i, k, e, want)
			}
			for _, p := range pins {
				if p.snap != nil && p.storage[&e.Payload.S[0]] {
					t.Fatalf("round %d: key %d lives in storage a pinned epoch reads", i, k)
				}
			}
		}
		r.PoolStats() // frees the rows released epochs gave back
		for _, e := range retiredRows(r) {
			read := false
			for _, p := range pins {
				read = read || p.storage[&e.Payload.S[0]]
			}
			if !read {
				t.Fatalf("round %d: a row waits that no unreleased epoch reads: %v", i, e.Payload)
			}
		}
	}
	pinNow := func() pin {
		p := pin{r.Snapshot(), map[string]ring.Triple{}, map[*float64]bool{}}
		p.snap.IterateEntries(func(e *Entry[ring.Triple]) bool {
			p.want[e.key] = cloneTriple(e.Payload)
			p.storage[&e.Payload.S[0]] = true
			return true
		})
		return p
	}
	verify := func(i int, p pin) {
		t.Helper()
		n := 0
		p.snap.IterateEntries(func(e *Entry[ring.Triple]) bool {
			if n++; !sameBits(e.Payload, p.want[e.key]) {
				t.Fatalf("round %d: pinned epoch reads %v under %q, read %v when pinned", i, e.Payload, e.key, p.want[e.key])
			}
			return true
		})
		if n != len(p.want) {
			t.Fatalf("round %d: pinned epoch has %d keys, had %d when pinned", i, n, len(p.want))
		}
	}

	for i := 0; i < 8; i++ {
		round(i)
		r.Snapshot().Release()
		r.Reclaim()
		check(i)
	}
	k := pinNow()
	var held, forgotten []pin // forgotten: the storage alone, the snapshot unreachable
	for i := 8; i < 8+3*genSpan+5; i++ {
		round(i)
		check(i, append(append([]pin{k}, held...), forgotten...)...)
		verify(i, k)
		if p := pinNow(); i%7 != 3 {
			held = append(held, p)
		} else {
			forgotten = append(forgotten, pin{storage: p.storage})
		}
		r.Reclaim()
		if len(held) > 2 {
			held[0].snap.Release()
			held = held[1:]
		}
	}
	k.snap.Release()
	for _, p := range held {
		p.snap.Release()
	}
	// Every key's next move takes a row a released epoch gave back — a key
	// merged into, Set or cancelled as much as one inserted again — with the
	// cells and payload storage that row kept.
	latest := pinNow()
	before, known := r.PoolStats(), len(seen)
	round(100)
	check(100, append(forgotten, latest)...)
	if ps := r.PoolStats(); len(seen) != known || ps.TuplesCopied != before.TuplesCopied || ps.RowsReused != before.RowsReused+uint64(keys) {
		t.Fatalf("after the pin's release %d keys moved into new storage: pool %+v, was %+v", len(seen)-known, ps, before)
	}
	latest.snap.Release()

	// Nobody releases anything (the snapshots stay reachable: no backstop),
	// once the forgotten epochs above are gone through the collector's.
	for i := 101; r.PoolStats().RowsRetired > 0; i++ {
		if i == 300 {
			t.Fatalf("%+v: rows still retired with every epoch released or collected", r.PoolStats())
		}
		runtime.GC()
		round(i)
		r.Snapshot().Release()
		r.Reclaim()
	}
	reachable := []pin{pinNow()}
	for i := 300; i < 300+genSpan+5; i++ {
		round(i)
		check(i, reachable...)
		reachable = append(reachable, pinNow())
		r.Reclaim()
	}
	for i, p := range reachable {
		verify(i, p)
	}
	// The rows that wait are exactly those the reachable epochs read and the
	// relation no longer stores: none for a bound to drop.
	want := map[*float64]bool{}
	for _, p := range reachable {
		maps.Copy(want, p.storage)
	}
	r.IterateEntries(func(e *Entry[ring.Triple]) bool {
		delete(want, &e.Payload.S[0])
		return true
	})
	ps := r.PoolStats()
	got := map[*float64]bool{}
	for _, e := range retiredRows(r) {
		got[&e.Payload.S[0]] = true
	}
	if !maps.Equal(got, want) || ps.RowsRetired != len(want) {
		t.Fatalf("%+v: %d rows wait, want the %d the reachable epochs read and the relation no longer stores", ps, len(got), len(want))
	}
}

// TestIndexBucketsFollowReplacedEntries: an indexed cofactor relation that
// publishes every round, indexed on a key prefix (buckets of 40, past the
// slice-to-table promotion) and on its second column (buckets of 3), whose keys
// are merged into, doubled, cancelled to zero on their first touch after a
// publish and inserted again, every merge through MergeAllIndexed, while one
// epoch stays pinned. After every round each index holds exactly the entries
// the primary table does, each in its own bucket and no retired or free one
// anywhere, and the pinned epoch reads its entries bit for bit.
func TestIndexBucketsFollowReplacedEntries(t *testing.T) {
	const keys = 120
	cf := ring.Cofactor{}
	ir := NewIndexedRelation(NewRelation[ring.Triple](cf, NewSchema("A", "B")))
	merge := indexedMerge(ir)
	ir.Reclaim()
	indexes := []*Index[ring.Triple]{ir.EnsureIndex(NewSchema("A")), ir.EnsureIndex(NewSchema("B"))}
	tup := func(k int) Tuple { return Ints(int64(k/40), int64(k%40)) }
	model := map[int]ring.Triple{}
	round := func(i int) {
		for k := 0; k < keys; k++ {
			old, stored := model[k]
			switch {
			case !stored:
				model[k] = triple(0, 1)
				merge(tup(k), triple(0, 1))
			case (i+k)%4 == 0:
				delete(model, k)
				merge(tup(k), cf.Neg(old))
			case (i+k)%4 == 1:
				model[k] = cf.Add(old, old)
				merge(tup(k), old)
			default:
				model[k] = cf.Add(old, triple(0, 1))
				merge(tup(k), triple(0, 1))
			}
		}
	}
	check := func(i int) {
		t.Helper()
		stored := map[*Entry[ring.Triple]]bool{}
		ir.IterateEntries(func(e *Entry[ring.Triple]) bool {
			if want, ok := model[int(e.Tuple[0].AsInt()*40+e.Tuple[1].AsInt())]; !ok || !sameBits(e.Payload, want) {
				t.Fatalf("round %d: %v holds %v, model %v", i, e.Tuple, e.Payload, want)
			}
			stored[e] = true
			return true
		})
		if len(stored) != len(model) {
			t.Fatalf("round %d: %d keys stored, model has %d", i, len(stored), len(model))
		}
		for _, e := range ir.pool {
			if stored[e] {
				t.Fatalf("round %d: %v is stored and in the pool", i, e.Tuple)
			}
		}
		for j, ix := range indexes {
			n := 0
			ix.dir.all(func(node *Entry[*EntrySet[ring.Triple]]) bool {
				for e := range node.Payload.All() {
					if n++; !stored[e] {
						t.Fatalf("round %d: index %d holds %p (%v), which the table does not", i, j, e, e.Tuple)
					}
					if string(ix.proj.AppendKey(nil, e.Tuple)) != node.key {
						t.Fatalf("round %d: index %d holds %v in bucket %q", i, j, e.Tuple, node.key)
					}
				}
				return true
			})
			if n != len(stored) {
				t.Fatalf("round %d: index %d holds %d entries, the table %d", i, j, n, len(stored))
			}
		}
	}
	var pinned *RelationSnapshot[ring.Triple]
	want := map[string]ring.Triple{}
	for i := 0; i < 3*genSpan; i++ {
		round(i)
		check(i)
		if s := ir.Snapshot(); i == 2 {
			pinned = s
			s.IterateEntries(func(e *Entry[ring.Triple]) bool {
				want[strings.Clone(e.key)] = cloneTriple(e.Payload)
				return true
			})
		} else {
			s.Release()
		}
		ir.Reclaim()
		check(i)
		if pinned == nil {
			continue
		}
		n := 0
		pinned.IterateEntries(func(e *Entry[ring.Triple]) bool {
			if n++; !sameBits(e.Payload, want[e.key]) || e.Tuple.Key() != e.key {
				t.Fatalf("round %d: pinned epoch reads %v under %q, read %v when pinned", i, e.Payload, e.key, want[e.key])
			}
			return true
		})
		if n != len(want) {
			t.Fatalf("round %d: pinned epoch has %d keys, had %d when pinned", i, n, len(want))
		}
	}
	pinned.Release()
}

// TestRowsRespectPinnedEpochs: a pooled relation that publishes, whose writer
// deletes keys and inserts others in every epoch, under the three readers of
// TestPayloadsRespectPinnedEpochs — one that pins an epoch for 3·genSpan
// publishes, one that takes every epoch and releases it two publishes later,
// one that forgets every seventh. Every epoch a reader holds must read its
// keys and tuples bit for bit as when it was published, and no live entry may
// sit in cells one of them reads under another key; the rows that wait are
// those the unreleased epochs read, no more. Once everything is
// released (the forgotten epochs through the collector's backstop), no row
// waits and inserts land in rows seen before: the tuple slab opens no chunk.
func TestRowsRespectPinnedEpochs(t *testing.T) {
	const keys, live, churn = 48, 24, 6
	r := NewRelation[float64](ring.Float{}, NewSchema("A", "B"))
	r.Reclaim()
	tuples := make([]Tuple, keys)
	for k := range tuples {
		tuples[k] = Tuple{Int(int64(k)), String("row-" + strconv.Itoa(k))}
	}
	in := map[int]bool{}
	var order []int // live keys, oldest first
	next := 0
	seen := map[*Value]bool{} // the cells every live entry ever had
	insert := func(k int) {
		r.Merge(tuples[k], float64(k+1))
		in[k] = true
		order = append(order, k)
	}
	for k := 0; k < live; k++ {
		insert(k)
	}
	round := func() {
		for _, k := range order[:churn] {
			r.Merge(tuples[k], -float64(k+1)) // parked, intact until Reclaim
			delete(in, k)
		}
		order = order[churn:]
		for n := 0; n < churn; next = (next + 1) % keys {
			if !in[next] {
				insert(next)
				n++
			}
		}
		r.IterateEntries(func(e *Entry[float64]) bool {
			seen[&e.Tuple[0]] = true
			return true
		})
	}
	type pin struct {
		snap  *RelationSnapshot[float64]
		rows  map[string]Tuple
		cells map[*Value]string
	}
	pinNow := func() pin {
		p := pin{r.Snapshot(), map[string]Tuple{}, map[*Value]string{}}
		p.snap.IterateEntries(func(e *Entry[float64]) bool {
			p.rows[strings.Clone(e.key)] = slices.Clone(e.Tuple)
			p.cells[&e.Tuple[0]] = strings.Clone(e.key)
			return true
		})
		return p
	}
	verify := func(i int, p pin) {
		t.Helper()
		n := 0
		p.snap.IterateEntries(func(e *Entry[float64]) bool {
			if n++; !slices.Equal(e.Tuple, p.rows[e.key]) || e.Tuple.Key() != e.key {
				t.Fatalf("round %d: pinned epoch reads %v under %q, read %v when pinned", i, e.Tuple, e.key, p.rows[e.key])
			}
			return true
		})
		if n != len(p.rows) {
			t.Fatalf("round %d: pinned epoch has %d keys, had %d when pinned", i, n, len(p.rows))
		}
	}
	check := func(i int, pins []pin) {
		t.Helper()
		if r.Len() != live {
			t.Fatalf("round %d: %d keys stored, want %d", i, r.Len(), live)
		}
		r.IterateEntries(func(e *Entry[float64]) bool {
			if e.Tuple.Key() != e.key {
				t.Fatalf("round %d: %v stored under %q", i, e.Tuple, e.key)
			}
			for _, p := range pins {
				if k, ok := p.cells[&e.Tuple[0]]; ok && k != e.key {
					t.Fatalf("round %d: %v lives in cells a pinned epoch reads under %q", i, e.Tuple, k)
				}
			}
			return true
		})
	}

	for i := 0; i < 8; i++ {
		round()
		r.Snapshot().Release()
		r.Reclaim()
		check(i, nil)
	}
	k := pinNow()
	var held []pin
	forgotten := map[*Value]bool{} // the cells the forgotten epochs read
	for i := 8; i < 8+3*genSpan+5; i++ {
		round()
		if p := pinNow(); i%7 != 3 {
			held = append(held, p)
		} else {
			for c := range p.cells {
				forgotten[c] = true
			}
		}
		r.Reclaim()
		if len(held) > 2 {
			verify(i, held[0])
			held[0].snap.Release()
			held = held[1:]
		}
		check(i, append([]pin{k}, held...))
		verify(i, k)
	}
	// A pin holds the rows it reads and no other: every row k reads was
	// deleted since and waits, and every row that waits is one k, a held
	// epoch or a forgotten one the collector has not reported yet reads.
	ps := r.PoolStats()
	retired := map[*Value]bool{}
	for _, e := range retiredRows(r) {
		retired[&e.Tuple[0]] = true
		read := forgotten[&e.Tuple[0]]
		for _, p := range append([]pin{k}, held...) {
			_, in := p.cells[&e.Tuple[0]]
			read = read || in
		}
		if !read {
			t.Fatalf("%+v: row %v waits on no epoch a reader holds", ps, e.Tuple)
		}
	}
	for c, key := range k.cells {
		if !retired[c] {
			t.Fatalf("%+v: the row the pinned epoch reads under %q is not retired", ps, key)
		}
	}
	k.snap.Release()
	for _, p := range held {
		p.snap.Release()
	}
	// The forgotten epochs come back through the backstop: late, never early.
	for try := 0; r.PoolStats().RowsRetired > 0; try++ {
		if try == 200 {
			t.Fatalf("%+v: rows still retired with every epoch released or collected", r.PoolStats())
		}
		runtime.GC()
		round()
		r.Snapshot().Release()
		r.Reclaim()
	}
	// A round writes 2·churn reused rows: its inserts, and the copy each
	// delete's first touch after the publish takes and gives back at once.
	before, known := r.PoolStats(), len(seen)
	round()
	if ps := r.PoolStats(); len(seen) != known || ps.TuplesCopied != before.TuplesCopied || ps.SlabChunks != before.SlabChunks ||
		ps.RowsReused != before.RowsReused+2*churn {
		t.Fatalf("after the last release %d inserts landed in new cells: pool %+v, was %+v", len(seen)-known, ps, before)
	}
}

// TestAllocGuardPlainTouchPublish: a ring.Float relation that touches 256
// published keys and publishes allocates what a publish allocates (see
// TestAllocGuardSnapshotPublish), nothing per key: each key's first touch
// copies its entry into one the released epochs gave back.
func TestAllocGuardPlainTouchPublish(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc guards run in the non-race pass")
	}
	r := NewRelation[float64](ring.Float{}, NewSchema("A", "B"))
	tups := make([]Tuple, 4096)
	for i := range tups {
		tups[i] = Ints(int64(i), int64(i%251))
		r.Merge(tups[i], float64(i)+1)
	}
	r.Snapshot().Release()
	i := 0
	touchAndPublish := func() {
		for j := 0; j < 256; j++ {
			r.Merge(tups[(i*256+j*17)%len(tups)], 1)
		}
		r.Snapshot().Release()
		i++
	}
	for range 200 {
		touchAndPublish()
	}
	if allocs := testing.AllocsPerRun(200, touchAndPublish); allocs > 2 {
		t.Errorf("256 touched keys and a publish: %.2f allocs/op, want <= 2", allocs)
	}
}

// TestAllocGuardCofactorRootPublish: a one-key cofactor root over 43 variables
// (15 KB of S and Q) that merges and publishes, every epoch released when the
// next one is out, replaces its entry by the one the last merge replaced, even
// with no reclaim point: a publish's own objects, no payload bytes.
func TestAllocGuardCofactorRootPublish(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc guards run in the non-race pass")
	}
	cf := ring.Cofactor{}
	p := cf.One()
	for j := 0; j < 43; j++ {
		p = cf.Mul(p, ring.LiftValue(j, float64(j+1)))
	}
	r := NewRelation[ring.Triple](cf, NewSchema("A"))
	mergeAndPublish := func() {
		r.Merge(Ints(1), p)
		r.Snapshot().Release()
	}
	for range 3 * genSpan {
		mergeAndPublish()
	}
	const runs = 200
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	allocs := testing.AllocsPerRun(runs, mergeAndPublish)
	runtime.ReadMemStats(&m1)
	perOp := (m1.TotalAlloc - m0.TotalAlloc) / (runs + 1)
	if allocs > 2 || perOp > 512 {
		t.Errorf("merge and publish: %.2f allocs/op, %d B/op, want <= 2 and no payload storage (%d B)", allocs, perOp, 8*(43+43*43))
	}
	// No reclaim point: the root is two entries, the one stored and the one the
	// last merge replaced, which the next merge takes back.
	if ps := r.PoolStats(); ps.Free != 1 || ps.RowsRetired != 0 {
		t.Errorf("pool %+v, want the replaced entry free for the next merge", ps)
	}
}
