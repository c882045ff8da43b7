package data

import (
	"math"
	"runtime"
	"slices"
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
	before, known := r.PoolStats().Arena.PayloadsReused, len(seen)
	round(100)
	check(100, nil)
	if as := r.PoolStats().Arena; len(seen) != known || as.PayloadsReused != before+keys {
		t.Fatalf("after the pin's release %d keys moved into new storage; arena %+v, %d payloads reused before",
			len(seen)-known, as, before)
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
