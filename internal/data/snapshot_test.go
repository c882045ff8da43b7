package data

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"fivm/internal/ring"
)

// fingerprint renders sorted contents for equality checks.
func fingerprint[P any](entries []Entry[P]) string {
	var out strings.Builder
	for _, e := range entries {
		fmt.Fprintf(&out, "%v=%v;", e.Tuple, e.Payload)
	}
	return out.String()
}

func snapFingerprint[P any](s *RelationSnapshot[P]) string { return fingerprint(s.SortedEntries()) }

func relFingerprint[P any](r *Relation[P]) string { return fingerprint(r.SortedEntries()) }

// snapshotInputs are the tuples TestSnapshotMatchesRelation merges: small
// integer pairs, and String cells built against key order's edges — the
// boundary bytes 0x00/0x01/0xFE/0xFF, a long prefix every key shares, a
// staircase of lengths where each key is a prefix of the next, and a handful
// of values drawn so often that one epoch's dirty list repeats its keys
// (every delete-then-reinsert records a key again).
var snapshotInputs = []struct {
	name  string
	tuple func(rng *rand.Rand) Tuple
}{
	{"ints", func(rng *rand.Rand) Tuple { return Ints(int64(rng.Intn(20)), int64(rng.Intn(5))) }},
	{"boundary_bytes", func(rng *rand.Rand) Tuple {
		b := make([]byte, rng.Intn(4))
		for i := range b {
			b[i] = []byte{0x00, 0x01, 0xFE, 0xFF}[rng.Intn(4)]
		}
		return Tuple{String(string(b)), Int(int64(rng.Intn(2)))}
	}},
	{"shared_prefix", func(rng *rand.Rand) Tuple {
		return Tuple{String(strings.Repeat("\x00p\xffq", 40) + fmt.Sprint(rng.Intn(200))), Int(int64(rng.Intn(2)))}
	}},
	{"prefix_staircase", func(rng *rand.Rand) Tuple {
		full := strings.Repeat("ab\x00", 30)
		return Tuple{String(full[:rng.Intn(len(full)+1)]), String(full[:rng.Intn(3)])}
	}},
	{"heavy_dups", func(rng *rand.Rand) Tuple {
		distinct := []string{"", "\x00", "\x00\x00", "a", "aa", "ab", "\xff", "\xff\xff"}
		return Tuple{String(distinct[rng.Intn(len(distinct))]), Int(int64(rng.Intn(2)))}
	}},
}

// TestSnapshotMatchesRelation drives a relation through random merges and
// deletions of each of snapshotInputs, publishing snapshots along the way:
// every snapshot must equal the relation's state at publication, in strictly
// increasing key order, answer Lookup for each key and ScanPrefix for each
// leading cell, and previously pinned snapshots must not change as the
// relation keeps mutating.
func TestSnapshotMatchesRelation(t *testing.T) {
	for _, in := range snapshotInputs {
		t.Run(in.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			r := NewRelation[int64](ring.Int{}, NewSchema("A", "B"))

			type pinned struct {
				snap *RelationSnapshot[int64]
				fp   string
			}
			var pins []pinned
			for round := 0; round < 50; round++ {
				for i := 0; i < 40; i++ {
					tup := in.tuple(rng)
					if rng.Intn(3) == 0 {
						if p, ok := r.Get(tup); ok {
							r.Merge(tup, -p) // cancel to zero: delete
							continue
						}
					}
					r.Merge(tup, int64(rng.Intn(5)+1))
				}
				s := r.Snapshot()
				if got, want := snapFingerprint(s), relFingerprint(r); got != want {
					t.Fatalf("round %d: snapshot diverges from relation:\n got %s\nwant %s", round, got, want)
				}
				if s.Len() != r.Len() {
					t.Fatalf("round %d: snapshot Len %d != relation Len %d", round, s.Len(), r.Len())
				}
				checkSnapshotReads(t, s, r)
				pins = append(pins, pinned{snap: s, fp: snapFingerprint(s)})
				// Every pinned snapshot must still read exactly as published.
				for i, p := range pins {
					if got := snapFingerprint(p.snap); got != p.fp {
						t.Fatalf("round %d: pinned snapshot %d changed", round, i)
					}
				}
			}
		})
	}
}

// checkSnapshotReads checks snapshot s of relation r through its read paths:
// IterateEntries visits keys in strictly increasing byte order, Lookup finds
// every live key with its payload, and ScanPrefix of each key's leading cell
// visits exactly the live entries that share it.
func checkSnapshotReads(t *testing.T, s *RelationSnapshot[int64], r *Relation[int64]) {
	t.Helper()
	prev := ""
	s.IterateEntries(func(e *Entry[int64]) bool {
		if prev != "" && e.key <= prev {
			t.Fatalf("key %q follows %q", e.key, prev)
		}
		prev = e.key
		return true
	})
	byCell := map[string]int{}
	for _, e := range r.Entries() {
		if got := s.Lookup([]byte(e.key)); got == nil || got.Payload != e.Payload {
			t.Fatalf("Lookup %v: got %v, want payload %d", e.Tuple, got, e.Payload)
		}
		byCell[e.Tuple[:1].Key()]++
	}
	for cell, want := range byCell {
		got := 0
		s.ScanPrefix([]byte(cell), func(e *Entry[int64]) bool {
			if !strings.HasPrefix(e.key, cell) {
				t.Fatalf("ScanPrefix %q visited %q", cell, e.key)
			}
			got++
			return true
		})
		if got != want {
			t.Fatalf("ScanPrefix %q visited %d entries, want %d", cell, got, want)
		}
	}
}

// TestSnapshotMutableRingIsolation checks that a snapshot never sees a later
// write, whatever the ring: the first in-place touch after a publish replaces
// the entry (touchEntry), so a pinned snapshot keeps reading the entries it
// points at — for payloads held outside the entry (owned triples, F[Z]
// multisets) as for those held inside it (Int, Float), and in an
// IndexedRelation, whose buckets follow each replacement.
func TestSnapshotMutableRingIsolation(t *testing.T) {
	checkSnapshotIsolation[ring.Triple](t, ring.Cofactor{}, ring.LiftValue(0, 2))
	checkSnapshotIsolation[*Multiset](t, RelRing{}, SingletonMultiset("B", Int(2)))

	sch := NewSchema("A", "B")
	ints := NewRelation[int64](ring.Int{}, sch)
	checkPinnedIsolation(t, "Int", ints, func(t Tuple, p int64) { ints.Merge(t, p) }, ints.Set, func(i int) int64 { return int64(i) }, nil)
	floats := NewRelation[float64](ring.Float{}, sch)
	checkPinnedIsolation(t, "Float", floats, func(t Tuple, p float64) { floats.Merge(t, p) }, floats.Set, func(i int) float64 { return float64(i) / 4 }, nil)
	ir := NewIndexedRelation(NewRelation[float64](ring.Float{}, sch))
	merge := indexedMerge(ir)
	set := func(tup Tuple, p float64) { // through the indexes: merge the difference
		cur, _ := ir.Get(tup)
		merge(tup, p-cur)
	}
	checkPinnedIsolation(t, "IndexedRelation", ir.Relation, merge, set, func(i int) float64 { return float64(i) / 4 }, ir.EnsureIndex(NewSchema("A")))
}

// checkPinnedIsolation drives pooled relation r over keys (a, b), a < 4,
// b < 4, for 100 publishes: every key is merged into, Set, deleted, or
// deleted and inserted again in one epoch, in turn, and r reclaims after
// every publish. The epoch published first stays pinned throughout, and every
// tenth one for five publishes: each must keep reading its own values through
// Lookup, ScanPrefix and IterateEntries (a reused entry reads poison), the
// latest must equal r, and ix, if set, must hold exactly r's entries.
func checkPinnedIsolation[P any](t *testing.T, name string, r *Relation[P], merge, set func(Tuple, P), val func(int) P, ix *Index[P]) {
	t.Helper()
	const side = 4
	r.Reclaim()
	tup := func(k int) Tuple { return Ints(int64(k/side), int64(k%side)) }
	render := func(e *Entry[P]) string {
		if e == nil {
			return "absent"
		}
		if e.Key() != e.Tuple.Key() {
			return fmt.Sprintf("%v under %q", e.Tuple, e.Key())
		}
		return fmt.Sprintf("%v=%v", e.Tuple, e.Payload)
	}
	// read renders everything a reader can see of s.
	read := func(s *RelationSnapshot[P]) string {
		var b strings.Builder
		for k := range side * side {
			b.WriteString(render(s.Lookup(tup(k).AppendKey(nil))) + ";")
		}
		for a := range side {
			s.ScanPrefix(Ints(int64(a)).AppendKey(nil), func(e *Entry[P]) bool {
				b.WriteString(render(e) + ",")
				return true
			})
			b.WriteString("|")
		}
		s.IterateEntries(func(e *Entry[P]) bool {
			b.WriteString(render(e) + " ")
			return true
		})
		return b.String()
	}
	type pin struct {
		snap *RelationSnapshot[P]
		want string
		at   int
	}
	pinNow := func(i int) pin {
		s := r.Snapshot()
		return pin{s, read(s), i}
	}
	rg := r.Ring()
	for k := range side * side {
		merge(tup(k), val(k+1))
	}
	first := pinNow(0)
	var held []pin
	for i := 1; i <= 100; i++ {
		for k := range side * side {
			cur, stored := r.Get(tup(k))
			switch (i + k) % 4 {
			case 0:
				merge(tup(k), val(i))
			case 1:
				set(tup(k), val(i+k+1))
			case 2:
				if stored {
					merge(tup(k), rg.Neg(cur))
				}
			case 3:
				if stored {
					merge(tup(k), rg.Neg(cur))
				}
				merge(tup(k), val(k+2))
			}
		}
		s := r.Snapshot()
		if got, want := snapFingerprint(s), relFingerprint(r); got != want {
			t.Fatalf("%s, publish %d: the snapshot reads %s, the relation holds %s", name, i, got, want)
		}
		if i%10 == 0 {
			held = append(held, pin{s, read(s), i})
		} else {
			s.Release()
		}
		r.Reclaim()
		if len(held) > 0 && held[0].at+5 <= i {
			held[0].snap.Release()
			held = held[1:]
		}
		for _, p := range append(held, first) {
			if got := read(p.snap); got != p.want {
				t.Fatalf("%s, publish %d: the epoch pinned at publish %d reads\n%s\nread\n%s", name, i, p.at, got, p.want)
			}
		}
		if ix != nil {
			n := 0
			for a := range side {
				bucket := ix.ProbeBytes(Ints(int64(a)).AppendKey(nil))
				for e := range bucket.All() {
					if n++; r.lookup(e.Tuple) != e {
						t.Fatalf("%s, publish %d: index bucket %d holds %s, which the table does not", name, i, a, render(e))
					}
				}
			}
			if n != r.Len() {
				t.Fatalf("%s, publish %d: the index holds %d entries, the table %d", name, i, n, r.Len())
			}
		}
	}
	for _, p := range append(held, first) {
		p.snap.Release()
	}
}

func checkSnapshotIsolation[P any](t *testing.T, rg ring.Ring[P], one P) {
	t.Helper()
	r := NewRelation(rg, NewSchema("A"))
	r.Merge(Ints(1), one)
	s1 := r.Snapshot()
	fp1 := snapFingerprint(s1)
	for i := 0; i < 5; i++ {
		r.Merge(Ints(1), one) // AddInto mutates the live payload in place
	}
	s2 := r.Snapshot()
	if got := snapFingerprint(s1); got != fp1 {
		t.Fatalf("%T: pinned snapshot mutated by in-place accumulation:\n got %s\nwant %s", rg, got, fp1)
	}
	if snapFingerprint(s2) == fp1 {
		t.Fatalf("%T: second snapshot did not observe the merges", rg)
	}
	if got, want := snapFingerprint(s2), relFingerprint(r); got != want {
		t.Fatalf("%T: snapshot diverges: got %s want %s", rg, got, want)
	}
}

// TestSnapshotUnchangedIsShared verifies the no-change fast path returns the
// identical snapshot.
func TestSnapshotUnchangedIsShared(t *testing.T) {
	r := NewRelation[int64](ring.Int{}, NewSchema("A"))
	r.Merge(Ints(1), 1)
	s1 := r.Snapshot()
	s2 := r.Snapshot()
	if s1 != s2 {
		t.Fatalf("snapshot without changes should be shared")
	}
	r.Merge(Ints(2), 1)
	if s3 := r.Snapshot(); s3 == s2 {
		t.Fatalf("snapshot after a change must be fresh")
	}
}

// TestSnapshotDeleteThenReinsertOneEpoch is the regression test for dirty-
// list dedup: deleting a key and reinserting it within one publish epoch
// records the key twice (markEntry on the cancel, markInserted on the fresh
// entry), and the patch merge must see it exactly once — a duplicate key in
// the sorted dirty list would insert the entry twice into the merged chunk,
// corrupting the snapshot's sort invariant and Len.
func TestSnapshotDeleteThenReinsertOneEpoch(t *testing.T) {
	r := NewRelation[int64](ring.Int{}, NewSchema("A", "B"))
	for i := int64(0); i < 200; i++ {
		r.Merge(Ints(i, i%7), i+1)
	}
	r.Snapshot() // attach dirty tracking

	// One epoch: delete 40 keys, reinsert 25 of them with new payloads, and
	// delete-reinsert-delete a few more for odd touch counts.
	for i := int64(0); i < 40; i++ {
		tup := Ints(i*5, (i*5)%7)
		p, ok := r.Get(tup)
		if !ok {
			t.Fatalf("key %d missing before delete", i*5)
		}
		r.Merge(tup, -p)
		if i < 25 {
			r.Merge(tup, 1000+i)
		}
		if i >= 35 {
			r.Merge(tup, 7)
			if p, ok = r.Get(tup); !ok || p != 7 {
				t.Fatalf("key %d: payload %d after reinsert", i*5, p)
			}
			r.Merge(tup, -7)
		}
	}
	s := r.Snapshot()
	if got, want := snapFingerprint(s), relFingerprint(r); got != want {
		t.Fatalf("snapshot diverges after delete-then-reinsert epoch:\n got %s\nwant %s", got, want)
	}
	if s.Len() != r.Len() {
		t.Fatalf("snapshot Len %d != relation Len %d", s.Len(), r.Len())
	}
	// The sort invariant must hold: strictly increasing keys, no duplicates.
	es := s.SortedEntries()
	for i := 1; i < len(es); i++ {
		if es[i-1].key >= es[i].key {
			t.Fatalf("snapshot keys out of order or duplicated at %d: %q >= %q", i, es[i-1].key, es[i].key)
		}
	}
	// And the next epoch must still patch cleanly on top.
	r.Merge(Ints(0, 0), 3)
	if got, want := snapFingerprint(r.Snapshot()), relFingerprint(r); got != want {
		t.Fatalf("follow-up snapshot diverges:\n got %s\nwant %s", got, want)
	}
}

// TestSnapshotScanPrefix exercises prefix scans: every group of a leading
// variable must be contiguous and complete.
func TestSnapshotScanPrefix(t *testing.T) {
	r := NewRelation[int64](ring.Int{}, NewSchema("A", "B"))
	want := map[int64]int{}
	for a := int64(0); a < 30; a++ {
		for b := int64(0); b < int64(1+a%7); b++ {
			r.Merge(Ints(a, b), a*100+b+1)
			want[a]++
		}
	}
	s := r.Snapshot()
	for a := int64(-1); a <= 30; a++ {
		prefix := Tuple{Int(a)}.AppendKey(nil)
		got := 0
		s.ScanPrefix(prefix, func(e *Entry[int64]) bool {
			if e.Tuple[0].AsInt() != a {
				t.Fatalf("prefix scan for A=%d yielded tuple %v", a, e.Tuple)
			}
			got++
			return true
		})
		if got != want[a] {
			t.Fatalf("prefix scan A=%d: got %d entries, want %d", a, got, want[a])
		}
	}
	// Empty prefix scans everything, in key order.
	n := 0
	last := ""
	s.ScanPrefix(nil, func(e *Entry[int64]) bool {
		if e.Key() <= last && n > 0 {
			t.Fatalf("full scan out of order")
		}
		last = e.Key()
		n++
		return true
	})
	if n != r.Len() {
		t.Fatalf("full scan visited %d of %d entries", n, r.Len())
	}
}

// TestSnapshotAfterClear covers wholesale invalidation.
func TestSnapshotAfterClear(t *testing.T) {
	r := NewRelation[int64](ring.Int{}, NewSchema("A"))
	for i := int64(0); i < 300; i++ {
		r.Merge(Ints(i), i+1)
	}
	s1 := r.Snapshot()
	r.Clear()
	r.Merge(Ints(7), 9)
	s2 := r.Snapshot()
	if s1.Len() != 300 {
		t.Fatalf("pinned snapshot lost entries after Clear: %d", s1.Len())
	}
	if s2.Len() != 1 {
		t.Fatalf("post-Clear snapshot has %d entries, want 1", s2.Len())
	}
	if p, ok := s2.Get(Ints(7)); !ok || p != 9 {
		t.Fatalf("post-Clear snapshot Get = %d,%v", p, ok)
	}
}

// BenchmarkSnapshotPublish measures the incremental publish cost: a large
// relation with a small per-epoch change set.
func BenchmarkSnapshotPublish(b *testing.B) {
	r := NewRelation[int64](ring.Int{}, NewSchema("A", "B"))
	for i := int64(0); i < 100000; i++ {
		r.Merge(Ints(i, i%97), 1)
	}
	r.Snapshot()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := int64(i % 1000)
		for j := int64(0); j < 100; j++ {
			r.Merge(Ints(base*100+j, j%97), 1)
		}
		r.Snapshot()
	}
}

// BenchmarkSnapshotPublishHeldEpochs measures a batch under epochs readers
// hold: a 2 400-key float relation whose batches merge 100 random keys,
// publish and reclaim. During 1 000 warm-up batches one epoch in 16 is held,
// one per generation, so 64 generations stay open; the timed batches hold
// none. A batch should cost what its delta touches, whatever the held epochs
// read; rows_retired is what they hold, gens_open the generations a sweep
// tests. Reported, never gated.
func BenchmarkSnapshotPublishHeldEpochs(b *testing.B) {
	const keys, batch, warm = 2400, 100, 1000
	rng := rand.New(rand.NewSource(55))
	r := NewRelation[float64](ring.Float{}, NewSchema("A", "B"))
	r.Reclaim()
	step := func() *RelationSnapshot[float64] {
		for range batch {
			k := int64(rng.Intn(keys))
			r.Merge(Ints(k/48, k%48), 1)
		}
		s := r.Snapshot()
		r.Reclaim()
		return s
	}
	for k := range int64(keys) {
		r.Merge(Ints(k/48, k%48), 1)
	}
	var held []*RelationSnapshot[float64]
	for i := range warm {
		if s := step(); i%genSpan == 0 {
			held = append(held, s)
		} else {
			s.Release()
		}
	}
	b.ResetTimer()
	for range b.N {
		step().Release()
	}
	b.StopTimer()
	ps := r.PoolStats()
	b.ReportMetric(float64(ps.RowsRetired), "rows_retired")
	b.ReportMetric(float64(ps.Arena.GenerationsOpen), "gens_open")
	for _, s := range held {
		s.Release()
	}
}

// TestSnapshotHeaderComesBack: the struct of a snapshot whose last reference
// is gone is scribbled, refuses Retain, and is what a later publish is built
// in; one somebody still holds is left alone.
func TestSnapshotHeaderComesBack(t *testing.T) {
	r := NewRelation[int64](ring.Int{}, NewSchema("A"))
	r.Merge(Ints(1), 1)
	s1 := r.Snapshot()
	s1.Release() // the relation's reference is the last
	r.Merge(Ints(2), 1)
	s2 := r.Snapshot() // held from here on
	want2 := snapFingerprint(s2)
	if s1.n != -1 || len(s1.chunks) != 0 || s1.keep != nil {
		t.Fatalf("released snapshot still reads: n %d, %d chunks", s1.n, len(s1.chunks))
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Retain on a released snapshot did not panic")
			}
		}()
		s1.Retain()
	}()
	r.Merge(Ints(3), 1)
	s3 := r.Snapshot()
	defer s3.Release()
	if s3 != s1 {
		t.Error("the third snapshot is not built in the first one's struct")
	}
	if got, want := snapFingerprint(s3), relFingerprint(r); got != want {
		t.Errorf("recycled snapshot reads %s, the relation %s", got, want)
	}
	if got := snapFingerprint(s2); got != want2 {
		t.Errorf("held snapshot moved from %s to %s", want2, got)
	}
	if h := r.PoolStats().Arena.Headers; h != (Recycled{Reused: 1, Allocated: 2}) {
		t.Errorf("headers %+v, want one reused and two allocated", h)
	}
}
