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

// TestSnapshotMatchesRelation drives a relation through random merges and
// deletions, publishing snapshots along the way: every snapshot must equal
// the relation's state at publication, and previously pinned snapshots must
// not change as the relation keeps mutating.
func TestSnapshotMatchesRelation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	r := NewRelation[int64](ring.Int{}, NewSchema("A", "B"))

	type pinned struct {
		snap *RelationSnapshot[int64]
		fp   string
	}
	var pins []pinned
	for round := 0; round < 50; round++ {
		for i := 0; i < 40; i++ {
			tup := Ints(int64(rng.Intn(20)), int64(rng.Intn(5)))
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
		pins = append(pins, pinned{snap: s, fp: snapFingerprint(s)})
		// Every pinned snapshot must still read exactly as published.
		for i, p := range pins {
			if got := snapFingerprint(p.snap); got != p.fp {
				t.Fatalf("round %d: pinned snapshot %d changed", round, i)
			}
		}
	}
}

// TestSnapshotMutableRingIsolation checks that snapshots of relations with
// payloads held outside the entry (owned triples, F[Z] multisets) never see a
// later merge: the first in-place touch after a publish replaces the entry
// (touchEntry), so a pinned snapshot keeps reading the storage it sealed.
func TestSnapshotMutableRingIsolation(t *testing.T) {
	checkSnapshotIsolation[ring.Triple](t, ring.Cofactor{}, ring.LiftValue(0, 2))
	checkSnapshotIsolation[*Multiset](t, RelRing{}, SingletonMultiset("B", Int(2)))
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
	if s1.n != -1 || s1.chunks != nil || s1.keep != nil {
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
