package data

import (
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

// TestPayloadsRespectPinnedEpochs: a cofactor relation whose every key is
// merged into, overwritten (Set) or deleted and re-inserted in every epoch,
// under three kinds of reader at once — one that pins an epoch for 3·genSpan
// publishes, one that takes every epoch and releases it two publishes later,
// one that forgets every seventh. The pinned epoch must read, bit for bit, the
// deep copy made when it was pinned, and no live entry may sit in storage it
// reads; the live relation must equal a model kept with the immutable ring;
// what the relation retains is bounded. After the pin's release every key's
// next move lands in storage that was seen before, and a reader that releases
// nothing at all costs correctness nothing, only dropped payloads.
func TestPayloadsRespectPinnedEpochs(t *testing.T) {
	const keys = 4
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
			e, _ := r.EntryKey(Ints(k).Key())
			switch {
			case !stored:
				model[k] = triple(0, 1, 2)
				r.Merge(Ints(k), triple(0, 1, 2))
				e, _ = r.EntryKey(Ints(k).Key())
			case (i+int(k))%5 == 0:
				delete(model, k)
				r.Merge(Ints(k), cf.Neg(old)) // e is parked, intact until Reclaim
			case (i+int(k))%5 == 1:
				model[k] = cf.Add(triple(0, 1, 2), triple(0, 1, 2))
				r.Set(Ints(k), model[k])
			default:
				model[k] = cf.Add(old, triple(0, 1, 2))
				r.Merge(Ints(k), triple(0, 1, 2))
			}
			seen[&e.Payload.S[0]] = true
		}
	}
	check := func(i int, pinned map[*float64]bool) {
		t.Helper()
		if r.Len() != len(model) {
			t.Fatalf("round %d: %d keys stored, model has %d", i, r.Len(), len(model))
		}
		for k, want := range model {
			e, ok := r.EntryKey(Ints(k).Key())
			if !ok || !sameBits(e.Payload, want) {
				t.Fatalf("round %d: key %d holds %v, model %v", i, k, e, want)
			}
			if pinned[&e.Payload.S[0]] {
				t.Fatalf("round %d: key %d lives in storage a pinned epoch reads", i, k)
			}
		}
		if s := r.snap; len(s.retired) > payloadsMax || len(s.spares) > payloadsMax {
			t.Fatalf("round %d: %d retired, %d spare payloads, bound %d", i, len(s.retired), len(s.spares), payloadsMax)
		}
	}
	type pin struct {
		snap    *RelationSnapshot[ring.Triple]
		want    map[string]ring.Triple
		storage map[*float64]bool
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
		check(i, nil)
	}
	k := pinNow()
	var held []*RelationSnapshot[ring.Triple]
	for i := 8; i < 8+3*genSpan+5; i++ {
		round(i)
		if s := r.Snapshot(); i%7 != 3 { // else forgotten
			held = append(held, s)
		}
		r.Reclaim()
		if len(held) > 2 {
			held[0].Release()
			held = held[1:]
		}
		check(i, k.storage)
		verify(i, k)
	}
	k.snap.Release()
	for _, s := range held {
		s.Release()
	}
	r.Snapshot().Release()
	// A key inserted again lands in a row a released epoch gave back, with the
	// payload storage that row kept; every other key moves into a spare.
	ps := r.PoolStats()
	before, known := ps.Arena.PayloadsReused+ps.RowsReused, len(seen)
	round(100)
	check(100, nil)
	if ps := r.PoolStats(); len(seen) != known || ps.Arena.PayloadsReused+ps.RowsReused != before+keys {
		t.Fatalf("after the pin's release %d keys moved into new storage; pool %+v, %d payloads and rows reused before",
			len(seen)-known, ps, before)
	}
	r.Snapshot().Release()
	r.Reclaim()

	// Nobody releases anything (the snapshots stay reachable: no backstop).
	var forgotten []pin
	for i := 200; i < 200+2*payloadsMax/keys+genSpan; i++ {
		round(i)
		if len(forgotten) > 0 {
			check(i, forgotten[len(forgotten)-1].storage)
		}
		forgotten = append(forgotten, pinNow())
		r.Reclaim()
	}
	for i, p := range forgotten {
		verify(i, p)
	}
	if as := r.PoolStats().Arena; as.PayloadsDropped == 0 {
		t.Fatalf("arena %+v: %d epochs forgotten and no payload dropped", as, len(forgotten))
	}
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
	for _, e := range r.pool[r.free:r.ret] {
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
	before, known := r.PoolStats(), len(seen)
	round()
	if ps := r.PoolStats(); len(seen) != known || ps.TuplesCopied != before.TuplesCopied || ps.SlabChunks != before.SlabChunks ||
		ps.RowsReused != before.RowsReused+churn {
		t.Fatalf("after the last release %d inserts landed in new cells: pool %+v, was %+v", len(seen)-known, ps, before)
	}
}

// TestAllocGuardPlainTouchPublish: a ring.Float relation that touches 256
// published keys and publishes allocates what a publish allocates (see
// TestAllocGuardSnapshotPublish), nothing per key: a payload that holds
// nothing outside itself is sealed by value and never moved.
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
// next one is out, moves between the storages two released epochs gave up: a
// publish's own objects, no payload bytes.
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
	if as := r.PoolStats().Arena; as.PayloadsReused < runs || as.PayloadsDropped != 0 {
		t.Errorf("arena %+v, want every move into reused storage", as)
	}
}
