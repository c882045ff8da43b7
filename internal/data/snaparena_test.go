package data

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"fivm/internal/ring"
)

// churnAndPublish applies n random steady-state merges and publishes a
// snapshot, returning it.
func churnAndPublish(rng *rand.Rand, r *Relation[int64], n int) *RelationSnapshot[int64] {
	for i := 0; i < n; i++ {
		r.Merge(Ints(int64(rng.Intn(600)), int64(rng.Intn(7))), int64(rng.Intn(9)-4))
	}
	return r.Snapshot()
}

// TestArenaRecyclingPreservesPinnedSnapshots churns a relation through many
// epochs while most snapshots are dropped and collected (so the publish-path
// sweep releases their chunks and rows), with a few pinned: the pinned epochs
// must keep serving their exact published contents even as the storage around
// them is wiped and reused, and the freshest snapshot must always equal the
// relation.
func TestArenaRecyclingPreservesPinnedSnapshots(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	r := NewRelation[int64](ring.Int{}, NewSchema("A", "B"))

	type pin struct {
		snap *RelationSnapshot[int64]
		fp   string
	}
	var pins []pin
	for round := 0; round < 120; round++ {
		s := churnAndPublish(rng, r, 80)
		if round%17 == 0 {
			pins = append(pins, pin{snap: s, fp: snapFingerprint(s)})
		}
		if round%25 == 0 {
			runtime.GC() // let dropped snapshots' backstop cleanups fire
		}
		if got, want := snapFingerprint(s), relFingerprint(r); got != want {
			t.Fatalf("round %d: fresh snapshot diverges from relation", round)
		}
	}
	runtime.GC()
	for i, p := range pins {
		if got := snapFingerprint(p.snap); got != p.fp {
			t.Fatalf("pin %d mutated after arena recycling:\n got %s\nwant %s", i, got, p.fp)
		}
	}
}

// TestArenaRecyclesReleased pins the deterministic reclamation contract:
// when every published snapshot is Released, every chunk array but the latest
// snapshot's is given back (the next publish takes it from the free list
// again) and generations' pin sets are recycled without any garbage
// collection at all.
func TestArenaRecyclesReleased(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	r := NewRelation[int64](ring.Int{}, NewSchema("A", "B"))
	for i := 0; i < 3000; i++ {
		r.Merge(Ints(int64(rng.Intn(600)), int64(rng.Intn(7))), int64(rng.Intn(9)-4))
	}
	r.Snapshot().Release()
	// Publish far more than one generation span, so the generations all die
	// explicitly.
	for i := 0; i < 2000; i++ {
		r.Merge(Ints(int64(rng.Intn(600)), int64(rng.Intn(7))), int64(rng.Intn(9)-4))
		r.Snapshot().Release()
	}
	a := &r.snap.arena
	if as, n := r.PoolStats().Arena, len(r.snap.last.chunks); as.ChunksLive != n || as.ChunksRetired != 0 {
		t.Errorf("%+v: want only the latest snapshot's %d chunks live despite every snapshot being released", as, n)
	}
	if len(a.freeSets) == 0 {
		t.Error("no generation pin set recycled despite every snapshot being released")
	}
}

// TestArenaConcurrentRelease releases snapshots from reader goroutines while
// the writer keeps publishing — the cross-goroutine path of the reference
// counts and the dead list (meaningful mainly under -race). Every snapshot
// is verified against its fingerprint before release; pinned contents must
// survive the concurrent churn.
func TestArenaConcurrentRelease(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	r := NewRelation[int64](ring.Int{}, NewSchema("A", "B"))
	snaps := make(chan *RelationSnapshot[int64], 64)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range snaps {
				_ = snapFingerprint(s)
				s.Release()
			}
		}()
	}
	for round := 0; round < 400; round++ {
		s := churnAndPublish(rng, r, 40)
		if got, want := snapFingerprint(s), relFingerprint(r); got != want {
			t.Errorf("round %d: fresh snapshot diverges from relation", round)
		}
		snaps <- s
	}
	close(snaps)
	wg.Wait()
}

// TestArenaRecyclesBlocks checks the GC backstop completes the cycle for
// snapshots that are dropped without Release: once the garbage collector
// proves them dead, their generations' cleanups fire and the next publish
// returns the chunk arrays to the free list for reuse. GC completion timing
// is not synchronous, so the test churns and polls under a deadline.
func TestArenaRecyclesBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	r := NewRelation[int64](ring.Int{}, NewSchema("A", "B"))
	churnAndPublish(rng, r, 3000) // build a base and enable dirty tracking

	deadline := time.Now().Add(10 * time.Second)
	for {
		// Keep publishing so replaced chunks retire and later sweeps run;
		// every snapshot is dropped immediately.
		for i := 0; i < 40; i++ {
			churnAndPublish(rng, r, 120)
		}
		runtime.GC()
		churnAndPublish(rng, r, 1) // one more publish to sweep after the GC
		if len(r.snap.arena.free) > 0 || len(r.snap.arena.freeSets) > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("no chunk array was ever recycled onto the free list")
		}
	}
}

// chunksOf returns the chunk arrays s reads, each with the first snapshot
// that read it.
func chunksOf(s *RelationSnapshot[float64]) map[*snapChunk[float64]]uint64 {
	cs := map[*snapChunk[float64]]uint64{}
	for _, c := range s.chunks {
		cs[c] = c.born
	}
	return cs
}

// TestArenaHoldsWhatItsSnapshotsRead: a chunk array waits for the snapshots
// that read it and for no others. A 1 200-key float relation dirties every
// chunk on every publish and each snapshot is released at once: the arena
// holds exactly the chunks of the latest two (the relation keeps the previous
// one until the next publish). A reader that pins an epoch across 3·genSpan
// publishes reads it bit for bit (poisoned rows would show) and holds its own
// chunks on top of that, no others — on generation-held storage it would hold
// two generations' worth — and its chunks are given back one publish after its
// Release, leaving no chunk retired. A snapshot nobody releases holds its own
// chunks until the collector's backstop reports it, and then gives them back.
func TestArenaHoldsWhatItsSnapshotsRead(t *testing.T) {
	const keys = 1200
	r := NewRelation[float64](ring.Float{}, NewSchema("A"))
	for k := range keys {
		r.Merge(Ints(int64(k)), 1)
	}
	r.Snapshot().Release()
	a := &r.snap.arena
	round, prev := 0, map[*snapChunk[float64]]uint64{}
	// publish merges into every eighth key, a different eighth each round, and
	// publishes; every chunk is rewritten.
	publish := func() *RelationSnapshot[float64] {
		for k := round % 8; k < keys; k += 8 {
			r.Merge(Ints(int64(k)), 1)
		}
		round++
		s := r.Snapshot()
		cs := chunksOf(s)
		for c := range cs {
			if _, ok := prev[c]; ok {
				t.Fatalf("round %d: a chunk of %d entries is shared with the previous snapshot", round, c.n)
			}
		}
		prev = cs
		return s
	}
	// step publishes and releases, checking the arena holds no more than the
	// latest two snapshots' chunks and those of held.
	last, peak := len(r.snap.last.chunks), 0
	step := func(held map[*snapChunk[float64]]uint64) {
		t.Helper()
		s := publish()
		n := len(s.chunks)
		s.Release()
		as := r.PoolStats().Arena
		if as.ChunksLive > n+last+len(held) {
			t.Fatalf("round %d: %+v, want at most %d+%d chunks of the latest two snapshots and %d held",
				round, as, n, last, len(held))
		}
		last, peak = n, max(peak, as.ChunksLive)
	}
	// freed reports whether every chunk of cs is given back: on the free
	// list, or taken from it again by a later publish, which the chunk's first
	// reader tells.
	freed := func(cs map[*snapChunk[float64]]uint64) bool {
		for c, born := range cs {
			if c.born == born && !slices.Contains(a.free, c) {
				return false
			}
		}
		return true
	}

	for range 3 * genSpan {
		step(nil)
	}

	k := publish()
	type row struct {
		tuple Tuple
		bits  uint64
	}
	want := map[string]row{}
	k.IterateEntries(func(e *Entry[float64]) bool {
		want[strings.Clone(e.key)] = row{slices.Clone(e.Tuple), math.Float64bits(e.Payload)}
		return true
	})
	pinned := chunksOf(k)
	for range 3*genSpan + 5 {
		step(pinned)
		n := 0
		k.IterateEntries(func(e *Entry[float64]) bool {
			n++
			if w, ok := want[e.key]; !ok || !slices.Equal(e.Tuple, w.tuple) || math.Float64bits(e.Payload) != w.bits {
				t.Fatalf("round %d: the pinned epoch reads %v = %v under %q, read %+v when pinned", round, e.Tuple, e.Payload, e.key, w)
			}
			return true
		})
		if n != len(want) {
			t.Fatalf("round %d: the pinned epoch has %d keys, had %d when pinned", round, n, len(want))
		}
	}
	k.Release()
	step(nil)
	if as := r.PoolStats().Arena; !freed(pinned) || as.ChunksRetired != 0 {
		t.Fatalf("round %d: a chunk the released epoch read is not given back one publish later: %+v", round, as)
	}

	// Nobody releases this one; only the collector can say it is gone.
	forgotten := chunksOf(publish())
	for try := 0; r.PoolStats().Arena.BackstopReclaims == 0; try++ {
		if try == 200 {
			t.Fatalf("%+v: the forgotten snapshot was never reported", r.PoolStats().Arena)
		}
		runtime.GC()
		step(forgotten)
	}
	step(nil) // drains the report
	if !freed(forgotten) {
		t.Fatalf("a chunk the forgotten snapshot read is not free once the backstop reported it: %+v", r.PoolStats().Arena)
	}
	t.Logf("%d publishes, %d chunks a snapshot, at most %d live", round, last, peak)
}

// TestSnapshotWalkKeepsItsSnapshot walks a forgotten snapshot (never
// Released: readable while reachable), which the test holds no reference to
// past the call, and at its first row collects until the GC backstop reports
// a generation dead and publishes a change, which frees the rows and chunks
// that generation alone read. The walk must go on reading the snapshot's own
// rows: a walk keeps its snapshot reachable until it returns.
func TestSnapshotWalkKeepsItsSnapshot(t *testing.T) {
	for _, w := range []struct {
		name string
		walk func(s *RelationSnapshot[float64], f func(e *Entry[float64]) bool)
	}{
		{"IterateEntries", (*RelationSnapshot[float64]).IterateEntries},
		{"ScanPrefix", func(s *RelationSnapshot[float64], f func(e *Entry[float64]) bool) { s.ScanPrefix(nil, f) }},
		{"Iterate", func(s *RelationSnapshot[float64], f func(e *Entry[float64]) bool) {
			s.Iterate(func(t Tuple, p float64) bool { return f(&Entry[float64]{Tuple: t, Payload: p}) })
		}},
	} {
		t.Run(w.name, func(t *testing.T) {
			r := NewRelation[float64](ring.Float{}, NewSchema("A"))
			for i := range 1000 {
				r.Set(Ints(int64(i)), 1)
			}
			s := r.Snapshot()
			type row struct {
				tuple Tuple
				p     float64
			}
			var want []row
			s.IterateEntries(func(e *Entry[float64]) bool {
				want = append(want, row{slices.Clone(e.Tuple), e.Payload})
				return true
			})
			// Replace every row and close s's generation; every later
			// snapshot is released, so only s can be forgotten.
			for range 2 * genSpan {
				for i := range 1000 {
					r.Merge(Ints(int64(i)), 1)
				}
				r.Snapshot().Release()
			}
			before := r.PoolStats().Arena.BackstopReclaims
			n := 0
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("row %d: the walk panicked: %v", n, p)
				}
			}()
			w.walk(s, func(e *Entry[float64]) bool {
				if n == 0 {
					for try := 0; try < 20 && r.PoolStats().Arena.BackstopReclaims == before; try++ {
						runtime.GC()
						r.Merge(Ints(0), 1)
						r.Snapshot().Release()
					}
					r.Merge(Ints(0), 1)
					r.Snapshot().Release()
				}
				if n >= len(want) || e == nil || !slices.Equal(e.Tuple, want[n].tuple) || e.Payload != want[n].p {
					t.Fatalf("row %d: the walk read %+v, want %+v (backstop reports %d → %d)",
						n, e, want[min(n, len(want)-1)], before, r.PoolStats().Arena.BackstopReclaims)
				}
				n++
				return true
			})
			if n != len(want) {
				t.Fatalf("the walk read %d rows, want %d", n, len(want))
			}
		})
	}
}
