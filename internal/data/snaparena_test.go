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
// sweep releases their blocks), with a few pinned: the pinned epochs must
// keep serving their exact published contents even as the blocks around them
// are wiped and reused, and the freshest snapshot must always equal the
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
// when every published snapshot is Released, blocks return to the freelists
// and generations' pin sets are recycled without any garbage collection at all.
func TestArenaRecyclesReleased(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	r := NewRelation[int64](ring.Int{}, NewSchema("A", "B"))
	for i := 0; i < 3000; i++ {
		r.Merge(Ints(int64(rng.Intn(600)), int64(rng.Intn(7))), int64(rng.Intn(9)-4))
	}
	r.Snapshot().Release()
	// Publish far more than one refresh lap (chunk count) plus one
	// generation span, so carried-over chunks rotate off their original
	// blocks, those blocks retire and the generations all die explicitly.
	for i := 0; i < 2000; i++ {
		r.Merge(Ints(int64(rng.Intn(600)), int64(rng.Intn(7))), int64(rng.Intn(9)-4))
		r.Snapshot().Release()
	}
	a := &r.snap.arena
	if len(a.runs.free) == 0 {
		t.Error("no run block recycled despite every snapshot being released")
	}
	if len(a.dirs.free) == 0 {
		t.Error("no directory block recycled despite every snapshot being released")
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
// returns the blocks to the freelist for reuse. GC completion timing is not
// synchronous, so the test churns and polls under a deadline.
func TestArenaRecyclesBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	r := NewRelation[int64](ring.Int{}, NewSchema("A", "B"))
	churnAndPublish(rng, r, 3000) // build a base and enable dirty tracking

	deadline := time.Now().Add(10 * time.Second)
	for {
		// Keep publishing so filled blocks retire and later sweeps run; every
		// snapshot is dropped immediately.
		for i := 0; i < 40; i++ {
			churnAndPublish(rng, r, 120)
		}
		runtime.GC()
		churnAndPublish(rng, r, 1) // one more publish to sweep after the GC
		if len(r.snap.arena.runs.free) > 0 || len(r.snap.arena.freeSets) > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("no arena block was ever recycled onto the freelist")
		}
	}
}

// blocksOf returns the distinct arena blocks s reads: its runs' and its
// directory's.
func blocksOf(s *RelationSnapshot[float64]) map[any]bool {
	bs := map[any]bool{}
	for _, c := range s.chunks {
		if c.blk != nil {
			bs[c.blk] = true
		}
	}
	if s.dirBlk != nil {
		bs[s.dirBlk] = true
	}
	return bs
}

// TestArenaHoldsWhatItsSnapshotsRead: an arena block waits for the snapshots
// that read it and for no others. A 1 200-key float relation dirties every
// chunk on every publish and each snapshot is released at once: the arena
// holds at most the blocks of the latest two (the relation keeps the previous
// one until the next publish) and the two it fills. A reader that pins an
// epoch across 3·genSpan publishes reads it bit for bit (poisoned blocks
// would show) and holds its own blocks on top of that, no others — on
// generation-held blocks it would hold two generations' worth — and its
// blocks are back on the freelists one publish after its Release. A snapshot
// nobody releases holds its own blocks until the collector's backstop reports
// it, and then gives them back.
func TestArenaHoldsWhatItsSnapshotsRead(t *testing.T) {
	const keys = 1200
	r := NewRelation[float64](ring.Float{}, NewSchema("A"))
	for k := range keys {
		r.Merge(Ints(int64(k)), 1)
	}
	r.Snapshot().Release()
	a := &r.snap.arena
	round, prev := 0, map[*Entry[float64]]bool{}
	// publish merges into every eighth key, a different eighth each round, and
	// publishes; every chunk is rewritten.
	publish := func() *RelationSnapshot[float64] {
		for k := round % 8; k < keys; k += 8 {
			r.Merge(Ints(int64(k)), 1)
		}
		round++
		s := r.Snapshot()
		runs := map[*Entry[float64]]bool{}
		for _, c := range s.chunks {
			if runs[&c.es[0]] = true; prev[&c.es[0]] {
				t.Fatalf("round %d: a chunk of %d entries is shared with the previous snapshot", round, len(c.es))
			}
		}
		prev = runs
		return s
	}
	// step publishes and releases, checking the arena holds no more than the
	// latest two snapshots' blocks, those of held and the two it fills.
	last, peak := 0, 0
	step := func(held map[any]bool) {
		t.Helper()
		s := publish()
		n := len(blocksOf(s))
		s.Release()
		as := r.PoolStats().Arena
		if as.BlocksLive > n+last+len(held)+2 {
			t.Fatalf("round %d: %+v, want at most %d+%d blocks of the latest two snapshots, %d held, and 2",
				round, as, n, last, len(held))
		}
		last, peak = n, max(peak, as.BlocksLive)
	}
	freed := func(bs map[any]bool) bool {
		for b := range bs {
			switch b := b.(type) {
			case *bumpBlock[Entry[float64]]:
				if !slices.Contains(a.runs.free, b) {
					return false
				}
			case *bumpBlock[snapChunk[float64]]:
				if !slices.Contains(a.dirs.free, b) {
					return false
				}
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
	pinned := blocksOf(k)
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
	if !freed(pinned) {
		t.Fatalf("round %d: a block the released epoch read is not free one publish later: %+v", round, r.PoolStats().Arena)
	}

	// Nobody releases this one; only the collector can say it is gone.
	forgotten := blocksOf(publish())
	for try := 0; r.PoolStats().Arena.BackstopReclaims == 0; try++ {
		if try == 200 {
			t.Fatalf("%+v: the forgotten snapshot was never reported", r.PoolStats().Arena)
		}
		runtime.GC()
		step(forgotten)
	}
	step(nil) // drains the report
	if !freed(forgotten) {
		t.Fatalf("a block the forgotten snapshot read is not free once the backstop reported it: %+v", r.PoolStats().Arena)
	}
	t.Logf("%d publishes, %d blocks a snapshot, at most %d live", round, last, peak)
}

// TestArenaOversizeRunsBypassBlocks pins the fallback contract: runs larger
// than a block are plain allocations with no block attribution, and still
// read back correctly.
func TestArenaOversizeRunsBypassBlocks(t *testing.T) {
	var a snapArena[int64]
	a.init()
	run, blk := a.runs.alloc(runBlockCap + 1)
	if blk != nil {
		t.Fatal("oversize run attributed to a block")
	}
	if cap(run) != runBlockCap+1 || len(run) != 0 {
		t.Fatalf("oversize run cap %d len %d", cap(run), len(run))
	}
	run2, blk2 := a.runs.alloc(16)
	if blk2 == nil || len(run2) != 0 {
		t.Fatal("small run not block-allocated")
	}
	a.runs.trim(run2[:4], blk2)
	if got := len(blk2.buf); got != 4 {
		t.Fatalf("trim left block at %d entries, want 4", got)
	}
}

// TestArenaDirectoryBlocksRecycle covers the directory arena the same way:
// chunk directories are arena runs too, stamped through the snapshot's dirBlk
// and freed by the sweep.
func TestArenaDirectoryBlocksRecycle(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	r := NewRelation[int64](ring.Int{}, NewSchema("A", "B"))
	s := churnAndPublish(rng, r, 3000)
	if s.dirBlk == nil {
		t.Fatal("published directory not arena-allocated")
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		for i := 0; i < 40; i++ {
			churnAndPublish(rng, r, 120)
		}
		runtime.GC()
		churnAndPublish(rng, r, 1)
		if len(r.snap.arena.dirs.free) > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("no directory block was ever recycled onto the freelist")
		}
	}
}
