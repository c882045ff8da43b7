package data

import (
	"math/rand"
	"runtime"
	"testing"

	"fivm/internal/ring"
)

// slotsFor is the largest table a peak of live entries can leave behind: a
// table doubles only when more than 25/32 of its slots are live, so it never
// passes the smallest power of two that holds the peak at that load.
func slotsFor(peak int) int {
	s := groupSlots
	for 25*s < 32*peak {
		s *= 2
	}
	return s
}

// TestEntryTableChurn runs seed-reproducible insert/delete histories against
// a map: every entry stays reachable, a table is never larger than its peak
// live count alone requires — tombstones grow nothing — and one that ran
// empty holds no tombstone.
func TestEntryTableChurn(t *testing.T) {
	type history struct {
		name string
		run  func(rng *rand.Rand, ins func() *Entry[int64], del func(i int), live func() int)
	}
	constant := func(n int) func(*rand.Rand, func() *Entry[int64], func(int), func() int) {
		return func(rng *rand.Rand, ins func() *Entry[int64], del func(int), live func() int) {
			for live() < n {
				ins()
			}
			for step := 0; step < 20*n; step++ {
				del(rng.Intn(live()))
				ins()
			}
		}
	}
	histories := []history{
		// Of a 1024-slot table: a half, three quarters (under the 25/32 at
		// which the live entries alone ask for more) and 85 % (over it).
		{"constant-50", constant(512)},
		{"constant-75", constant(768)},
		{"constant-85", constant(870)},
		{"sliding-window", func(_ *rand.Rand, ins func() *Entry[int64], del func(int), live func() int) {
			for step := 0; step < 20000; step++ {
				ins()
				if live() > 700 {
					del(0) // the oldest
				}
			}
		}},
		{"fill-empty-refill", func(rng *rand.Rand, ins func() *Entry[int64], del func(int), live func() int) {
			for round := 0; round < 6; round++ {
				for live() < 600 {
					ins()
				}
				for live() > 0 {
					del(rng.Intn(live()))
				}
			}
		}},
	}
	for _, h := range histories {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			var tab entryTable[int64]
			model := map[string]*Entry[int64]{}
			var order []*Entry[int64] // live entries, oldest first
			next, peak, steps := 0, 0, 0
			check := func() {
				t.Helper()
				if want := slotsFor(peak); len(tab.slots) > want {
					t.Fatalf("%s seed %d: %d slots for a peak of %d live entries, want <= %d", h.name, seed, len(tab.slots), peak, want)
				}
				if len(model) == 0 && tab.dead != 0 {
					t.Fatalf("%s seed %d: an empty table holds %d tombstones", h.name, seed, tab.dead)
				}
				if steps++; steps%97 == 0 || len(model) == 0 {
					checkTable(t, &tab, model)
				}
			}
			ins := func() *Entry[int64] {
				k := Ints(seed, int64(next)).Key()
				next++
				e := &Entry[int64]{key: k, hash: hashString(k)}
				tab.insert(e)
				model[k] = e
				order = append(order, e)
				peak = max(peak, len(model))
				check()
				return e
			}
			del := func(i int) {
				e := order[i]
				order = append(order[:i], order[i+1:]...)
				tab.del(e)
				delete(model, e.key)
				check()
			}
			h.run(rng, ins, del, func() int { return len(order) })
			checkTable(t, &tab, model)
			for len(order) > 0 {
				del(len(order) - 1)
			}
			for g, w := range tab.ctrl {
				if w != emptyWord {
					t.Fatalf("%s seed %d: group %d of an emptied table reads %#x", h.name, seed, g, w)
				}
			}
		}
	}
}

// bucketSlots sums what the index's buckets hold: table slots and the
// capacity of linear slices, and the entries in them.
func bucketSlots[P any](ix *Index[P]) (slots, entries int) {
	ix.dir.all(func(n *Entry[*EntrySet[P]]) bool {
		slots += len(n.Payload.tab.slots) + cap(n.Payload.small)
		entries += n.Payload.Len()
		return true
	})
	return slots, entries
}

// TestIndexBucketTablesBySize: a bucket's table is sized for its contents,
// not for the largest bucket its directory node ever hosted. Two keys of 20
// and 2 000 entries trade sizes round after round — the node the large
// bucket leaves serves the small one next — and the index holds the same
// bytes from the first round on; an interleaved fill and retraction of a
// hundred buckets of mixed sizes then allocates nothing from the second
// cycle on, with at most two slots to an entry at the top.
func TestIndexBucketTablesBySize(t *testing.T) {
	ir := NewIndexedRelation(NewRelation[int64](ring.Int{}, NewSchema("A", "B")))
	merge := indexedMerge(ir)
	ix := ir.EnsureIndex(NewSchema("A"))
	ir.Reclaim()
	key := func(a int64) []byte { return Ints(a).AppendKey(nil) }
	var fresh entryTable[int64]
	fresh.reserve(2 * setSmallMax)
	promoted := len(fresh.slots)
	var held int
	for round := 0; round < 10; round++ {
		small, large := int64(round%2), int64(1-round%2)
		for _, mult := range []int64{1, -1} {
			// The large key goes first on the way out, so on the way in the
			// small one takes the node it left.
			for i := int64(0); i < 2000; i++ {
				merge(Ints(large, i), mult)
				if i < 20 {
					merge(Ints(small, i), mult)
				}
			}
			if mult == 1 {
				s, l := ix.ProbeBytes(key(small)), ix.ProbeBytes(key(large))
				if s.Len() != 20 || l.Len() != 2000 {
					t.Fatalf("round %d: buckets of %d and %d entries", round, s.Len(), l.Len())
				}
				if got := len(s.tab.slots); got != promoted {
					t.Errorf("round %d: the bucket of 20 scans %d slots, want the %d of a promotion", round, got, promoted)
				}
				if got := len(l.tab.slots); got > slotsFor(2000) {
					t.Errorf("round %d: the bucket of 2000 holds %d slots, want <= %d", round, got, slotsFor(2000))
				}
			}
			ir.Reclaim()
		}
		if ix.Len() != 0 {
			t.Fatalf("round %d: %d buckets left", round, ix.Len())
		}
		switch tb := ir.PoolStats().TableBytes; {
		case round == 0:
			held = tb
		case tb != held:
			t.Errorf("round %d: the index holds %d table bytes, %d after the first round", round, tb, held)
		}
	}

	if raceEnabled {
		return // race instrumentation allocates
	}
	// A hundred buckets of 30 to 1 500 entries filling up side by side, then
	// emptying: every bucket walks through every size class under its own.
	rng := rand.New(rand.NewSource(3))
	var rows []Tuple
	for a := int64(0); a < 100; a++ {
		for i, n := int64(0), int64(30+rng.Intn(1471)); i < n; i++ {
			rows = append(rows, Ints(100+a, i))
		}
	}
	rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	cycle := func() (bytes uint64) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for _, mult := range []int64{1, -1} {
			for i, row := range rows {
				merge(row, mult)
				if i%100 == 99 {
					ir.Reclaim()
				}
			}
			if slots, entries := bucketSlots(ix); mult == 1 && (entries != len(rows) || slots > 2*entries) {
				t.Errorf("at the top the buckets hold %d slots for %d entries, want at most two to an entry", slots, entries)
			}
			ir.Reclaim()
		}
		runtime.ReadMemStats(&m1)
		return m1.TotalAlloc - m0.TotalAlloc
	}
	first := cycle()
	held = ir.PoolStats().TableBytes
	for c := 2; c <= 4; c++ {
		// The runtime allocates on its own now and then (starting a thread,
		// say): of three runs of a cycle the least is the index's.
		bytes := ^uint64(0)
		for range 3 {
			bytes = min(bytes, cycle())
			if tb := ir.PoolStats().TableBytes; tb != held {
				t.Errorf("cycle %d holds %d table bytes (after the first: %d), want the same", c, tb, held)
			}
		}
		if bytes != 0 {
			t.Errorf("cycle %d allocated %d bytes at the least (the first: %d), want 0", c, bytes, first)
		}
	}
}

// TestSlabRewindKeepsChunks: a rewind buys nothing. The chunks a batch opened
// are poisoned, kept and handed out again in the order they were filled; only
// a request none of them fits opens another.
func TestSlabRewindKeepsChunks(t *testing.T) {
	var s slab[byte]
	sizes := []int{700, 700, 1500, 3000, 100, 6000}
	fill := func() (taken [][]byte) {
		for _, n := range sizes {
			b := s.take(n)
			for i := range b {
				b[i] = 1
			}
			taken = append(taken, b)
		}
		return taken
	}
	first := fill()
	chunks, bytes := len(s.chunks), s.bytes()
	if chunks < 4 {
		t.Fatalf("fixture: %d chunks", chunks)
	}
	s.rewind(0xFF)
	for i, b := range first {
		for _, c := range b {
			if c != 0xFF {
				t.Fatalf("take %d reads %#x after the rewind, want poison", i, c)
			}
		}
	}
	if s.used() || len(s.chunks) != chunks || s.bytes() != bytes {
		t.Fatalf("after the rewind: used %v, %d chunks, %d bytes; want unused, %d, %d", s.used(), len(s.chunks), s.bytes(), chunks, bytes)
	}
	second := fill()
	for i := range first {
		if &first[i][0] != &second[i][0] {
			t.Errorf("take %d of the second batch is not where the first batch's was", i)
		}
	}
	if len(s.chunks) != chunks || s.bytes() != bytes {
		t.Errorf("a batch of the same shape left %d chunks, %d bytes; want %d, %d", len(s.chunks), s.bytes(), chunks, bytes)
	}
	if !raceEnabled {
		guardZeroAllocs(t, "slab rewind and refill", func() {
			s.rewind(0xFF)
			for _, n := range sizes {
				s.take(n)
			}
		})
	}
	// A request larger than every kept chunk passes them by and opens one
	// more, once.
	s.rewind(0xFF)
	big := s.take(2 * bytes)
	if len(big) != 2*bytes || len(s.chunks) != chunks+1 {
		t.Fatalf("a request of %d bytes: got %d, %d chunks, want %d", 2*bytes, len(big), len(s.chunks), chunks+1)
	}
	bytes = s.bytes()
	s.rewind(0xFF)
	if s.take(2 * bytes / 3); len(s.chunks) != chunks+1 || s.bytes() != bytes {
		t.Errorf("the second large request opened a chunk: %d chunks, %d bytes", len(s.chunks), s.bytes())
	}
}
