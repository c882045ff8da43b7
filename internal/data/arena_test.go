package data

import "testing"

// fillArena builds one batch of n two-column inserts in a and returns it.
func fillArena(a *BatchArena, n int) []BaseUpdate {
	ts := a.Tuples(n)
	for i := 0; i < n; i++ {
		tu := a.Tuple(2)
		tu[0], tu[1] = Int(int64(i)), String("v")
		ts = append(ts, tu)
	}
	return append(a.Updates(1), a.Update("R", 1, ts))
}

// TestBatchArenaRewind: what an arena handed out dies at Rewind — under the
// poison hook the batch, its tuple list and its tuples all read poison — and
// a batch of the same shape takes nothing from the heap afterwards. A nil
// arena is the heap: unmarked updates nobody rewinds.
func TestBatchArenaRewind(t *testing.T) {
	var a BatchArena
	batch := fillArena(&a, 300) // past the first chunk of every slab
	ts := batch[0].Tuples
	if len(ts) != 300 || ts[299][0] != Int(299) || batch[0].arena != &a {
		t.Fatalf("batch of %d tuples, last %v", len(ts), ts[len(ts)-1])
	}
	if got := ArenaBytes(batch); got != a.Bytes() || got < 300*2*valueBytes {
		t.Fatalf("ArenaBytes %d, arena %d", got, a.Bytes())
	}
	first := ts[0]
	a.Rewind()
	if first[0] != poisonTuple[0] || ts[0][0] != poisonTuple[0] || batch[0].Rel != poisonKey {
		t.Fatalf("kept across Rewind: tuple %v, list head %v, update %q", first, ts[0], batch[0].Rel)
	}
	heap := fillArena(nil, 3)
	if heap[0].arena != nil || ArenaBytes(heap) != 0 || len(heap[0].Tuples) != 3 || heap[0].Tuples[2][0] != Int(2) {
		t.Fatalf("heap batch: %+v", heap)
	}

	fillArena(&a, 300) // merges the chunks the first fill opened
	a.Rewind()
	size := a.Bytes()
	guardZeroAllocs(t, "refilling a rewound arena", func() {
		fillArena(&a, 300)
		a.Rewind()
	})
	if a.Bytes() != size {
		t.Fatalf("the arena grew from %d to %d bytes over batches of one shape", size, a.Bytes())
	}
}
