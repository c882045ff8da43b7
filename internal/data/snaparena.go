package data

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// Snapshot arena: a published snapshot is a directory of chunks, each a fixed
// array of snapChunkMax pointers to the relation's own entries in key order,
// and under a continuous update stream the chunks covering changed keys die a
// few epochs after a publish replaced them, when the snapshots that read them
// are dropped. The arena keeps those arrays on a per-relation free list, the
// directories in the snapshot headers it recycles, so steady-state Snapshot()
// publishing hands the garbage collector almost nothing.
//
// A chunk retires by span. The snapshots that read a chunk are numbered born,
// the publish that filled it, to last, the one before the publish that dropped
// it from the directory — a patch never takes a dropped chunk back, so the span
// is contiguous. A dropped chunk waits on the retired list and goes back at the
// first sweep that finds no snapshot numbered born to last pinned. A row
// follows its chunks: each entry counts the chunks that point at it, and one
// out of the table goes back to the free list with its last count. So a reader
// that pins an epoch holds the rows and chunks that epoch reads and no others.
//
// Snapshot lifetime is reader-controlled — a pinned reader may hold an old
// snapshot arbitrarily long (see serve.Reader) — so which numbers are pinned
// is tracked per publish GENERATION, a group of genSpan consecutive
// publishes: a pin set holds one live bit per snapshot, which pinned reads.
// Generations carry only those bits and the backstop, and amortize the
// backstop to 1/genSpan of the publishes. A snapshot's death is seen two ways:
//
//   - Explicitly: every snapshot carries a reference count and the last
//     Release clears its live bit. The publishing relation itself holds (and
//     releases, at the next publish) a reference on its previous snapshot, so
//     a steady publish loop whose consumers Release gets each chunk and row
//     back within a publish of its last reader — deterministically, with no
//     garbage collector involvement.
//   - As a GC backstop: when a generation closes, a runtime.AddCleanup on a
//     sentinel object (strongly referenced by every snapshot of the
//     generation) reports it dead once all its unreleased snapshots are
//     collected; the writer then stops reading its bits. Snapshots that are
//     never Released are therefore safe — merely slow to reclaim, because
//     cleanup latency is a full GC cycle, and dead-but-unreclaimed storage
//     inflates the collector's heap target, which grows the cycle further: a
//     high-rate publish loop relying on the backstop degenerates to plain
//     allocation with extra steps. Release is the fast path, not a nicety.
//
// The backstop is a GC cleanup, not a weak.Pointer poll, for a subtle
// reason beyond cost: polling weak pointers from the publish path resurrects
// the dead. weak.Pointer.Value conjures a strong reference, so a poll that
// lands inside a concurrent mark phase re-marks a dead generation live for
// that whole GC cycle — and a steady publish stream polls far more often
// than collections complete, so every mark phase overlaps a poll and no
// generation is EVER collected (observed as unbounded heap growth in
// exactly the benchmark this arena exists for). Cleanups run strictly after
// the GC has proven death, so they cannot resurrect anything.
//
// A relation that stops publishing retains its retired chunks until it
// publishes again or becomes unreachable itself. Chunks and lists are
// writer-goroutine-only (no atomics, no locks); the only cross-goroutine
// state is the snapshot reference counts, the live bits and the dead list
// guarded by deadMu.
const (
	// chunkFreeMax caps the chunk free list; arrays beyond it go back to the
	// GC. Released snapshots give their chunks back a publish later, so the
	// list stays small in steady state; the cap only matters when the GC
	// backstop reclaims a burst of generations leaked by callers that never
	// Release.
	chunkFreeMax = 256
	// genSpan is the number of publishes grouped under one liveness sentinel.
	genSpan = 16
)

// ArenaStats is a snapshotting relation's arena accounting (PoolStats.Arena):
// chunk arrays taken (the retired ones included) and arrays parked for reuse,
// chunks dropped from the latest directory that wait for a pinned epoch that
// reads them (a reader that pins shows as this climbing, like
// PoolStats.RowsRetired), publish generations not yet drained, and
// generations whose death the GC backstop reported instead of Release — each
// of those is a lease somebody forgot. Headers counts the structs of the
// relation's snapshots — and, summed in by their publishers, of the epochs
// that carry them — as recycled or new.
type ArenaStats struct {
	ChunksLive, ChunksFree, ChunksRetired, GenerationsOpen int
	BackstopReclaims                                       uint64
	Headers                                                Recycled
}

// arenaStats reports the relation's snapshot arena (zero before the first
// Snapshot).
func (r *Relation[P]) arenaStats() ArenaStats {
	if r.snap == nil {
		return ArenaStats{}
	}
	a := &r.snap.arena
	a.deadMu.Lock()
	backstops := a.backstops
	a.deadMu.Unlock()
	return ArenaStats{a.live, len(a.free), len(a.retired), len(a.open), backstops, a.headers.Stats()}
}

// chunk returns an empty chunk array that snapshot seq is the first to read:
// a free one or, none there, a new one.
func (a *snapArena[P]) chunk(seq uint64) *snapChunk[P] {
	var c *snapChunk[P]
	if n := len(a.free); n > 0 {
		c = a.free[n-1]
		a.free[n-1] = nil
		a.free = a.free[:n-1]
	} else {
		c = new(snapChunk[P])
	}
	a.live++
	c.born, c.n = seq, 0
	return c
}

// retire records that the directory of snapshot seq dropped c: the snapshots
// numbered c.born to seq-1 read it.
func (a *snapArena[P]) retire(c *snapChunk[P], seq uint64) {
	c.last = seq - 1
	a.retired = append(a.retired, c)
}

// sweep gives back the retired chunks no snapshot numbered born to last pins,
// cleared: a read through a released snapshot panics instead of reading
// another epoch's rows, and a parked array keeps no entry reachable. Each of
// their entries loses a count, and r frees a retired one that loses its last.
func (a *snapArena[P]) sweep(r *Relation[P]) {
	retired := a.retired[:0]
	for _, c := range a.retired {
		if a.pinned(c.born, c.last) {
			retired = append(retired, c)
			continue
		}
		for _, e := range c.entries() {
			if e.chunks--; e.chunks == 0 && e.retired {
				r.freeEntry(e)
			}
		}
		clear(c.es[:c.n])
		a.live--
		if len(a.free) < chunkFreeMax {
			a.free = append(a.free, c)
		}
	}
	clear(a.retired[len(retired):])
	a.retired = retired
}

// genSentinel is one publish generation's liveness anchor: every snapshot of
// the generation strongly references it (RelationSnapshot.keep) and carries
// the generation's death cleanup, which fires exactly when the last such
// snapshot is collected. Deliberately non-empty — zero-size allocations
// share one address, fusing every generation's identity — and deliberately
// pointer-typed: a small pointer-free object would go through the runtime's
// tiny allocator, which packs unrelated objects into shared 16-byte slots
// whose storage lives as long as the longest-lived co-resident, so a dead
// generation's cleanup could be deferred indefinitely.
type genSentinel struct{ _ *genSentinel }

// pinSet is one publish generation's liveness accounting. Sets are pooled:
// draining a dead generation recycles its set for a later generation.
type pinSet[P any] struct {
	owner *snapArena[P]
	// base is the sequence number (snapState.gen at its publish) of the
	// generation's first snapshot. live holds one bit per reason the
	// generation cannot be reclaimed: bit i while snapshot base+i has
	// references left, writerStake while the generation is open. Whoever
	// clears the last bit reports the generation dead (any goroutine); the
	// writer reads them to learn who may still read a retired chunk, and so
	// the rows it points at (pinned).
	base uint64
	live atomic.Uint32
	// genID distinguishes incarnations of a recycled set, so a backstop
	// cleanup queued for a previous incarnation cannot kill the current one;
	// dead marks the set as already on the dead list. Both are guarded by
	// owner.deadMu.
	genID uint64
	dead  bool
	// stop cancels the incarnation's backstop cleanup; set at generation
	// close, stopped on drain. Writer-only.
	stop runtime.Cleanup
}

// deadNote is the backstop cleanup's argument: the generation's pin set and
// the incarnation it was armed for.
type deadNote[P any] struct {
	set *pinSet[P]
	gen uint64
}

// snapArena allocates snapshot storage for one relation: chunk arrays,
// snapshot headers, and the generation bookkeeping that says which snapshots
// are still pinned. Writer-goroutine only, except the dead list (see deadMu).
type snapArena[P any] struct {
	// free holds the chunk arrays no snapshot reads, retired those the latest
	// directory dropped that a pinned snapshot may still read; live counts the
	// arrays taken and not given back.
	free, retired []*snapChunk[P]
	live          int
	n             int // publishes in the current generation

	cur    *genSentinel // open generation's sentinel (nil between generations)
	curSet *pinSet[P]

	// onDead is the generation death backstop, bound once so closing a
	// generation allocates no closure. It runs on the GC's cleanup
	// goroutine and only touches the dead list.
	onDead func(deadNote[P])

	deadMu    sync.Mutex
	dead      []*pinSet[P] // generations whose snapshots are all dead
	backstops uint64       // generations the GC backstop, not Release, reported

	drainScratch []*pinSet[P]
	freeSets     []*pinSet[P]
	open         []*pinSet[P] // generations not yet drained, the current one included
	// headers holds the snapshot structs whose last Release has come (newSnapshot).
	headers Recycler[RelationSnapshot[P]]
}

// writerStake is the pinSet.live bit the writer holds while a generation is
// open; the genSpan bits below it are the generation's snapshots.
const writerStake = 1 << genSpan

func (a *snapArena[P]) init() {
	a.onDead = func(n deadNote[P]) {
		a.deadMu.Lock()
		if n.set.genID == n.gen && !n.set.dead {
			n.set.dead = true
			a.dead = append(a.dead, n.set)
			a.backstops++
		}
		a.deadMu.Unlock()
	}
}

// reportDead puts a generation's pin set on the dead list (idempotently) for
// the writer to drain at the next publish. Called by whoever cleared the last
// of the set's live bits — any goroutine.
func (a *snapArena[P]) reportDead(set *pinSet[P]) {
	a.deadMu.Lock()
	if !set.dead {
		set.dead = true
		a.dead = append(a.dead, set)
	}
	a.deadMu.Unlock()
}

// takeSet opens a generation whose first snapshot is numbered base, on a
// recycled pin set or a fresh one.
func (a *snapArena[P]) takeSet(base uint64) *pinSet[P] {
	var s *pinSet[P]
	if n := len(a.freeSets); n > 0 {
		s = a.freeSets[n-1]
		a.freeSets[n-1] = nil
		a.freeSets = a.freeSets[:n-1]
	} else {
		s = &pinSet[P]{owner: a}
	}
	s.base = base
	s.live.Store(writerStake)
	a.open = append(a.open, s)
	return s
}

// pinned reports whether a snapshot numbered in [lo, hi] still has references
// (writer goroutine). A generation the backstop reported reads as pinned until
// it is drained: late, never early.
func (a *snapArena[P]) pinned(lo, hi uint64) bool {
	for _, set := range a.open {
		if hi < set.base || lo >= set.base+genSpan {
			continue
		}
		from, to := max(lo, set.base)-set.base, min(hi, set.base+genSpan-1)-set.base
		if set.live.Load()&(uint32(2)<<to-uint32(1)<<from) != 0 {
			return true
		}
	}
	return false
}

// drain recycles the pin sets of generations reported dead since the last
// publish. The writer swaps the dead list out under the mutex — bumping each
// set's incarnation there, so a straggling backstop cleanup cannot re-kill the
// recycled set — and does the rest outside it.
func (a *snapArena[P]) drain() {
	a.deadMu.Lock()
	if len(a.dead) == 0 {
		a.deadMu.Unlock()
		return
	}
	dead := a.dead
	a.dead = a.drainScratch[:0]
	for _, set := range dead {
		set.genID++
		set.dead = false
	}
	a.deadMu.Unlock()
	for i, set := range dead {
		set.stop.Stop()
		a.open = slices.DeleteFunc(a.open, func(o *pinSet[P]) bool { return o == set })
		a.freeSets = append(a.freeSets, set)
		dead[i] = nil
	}
	a.drainScratch = dead[:0]
}

// publish enrolls s, the relation's seq-th snapshot, in the current generation
// — opening one if needed, setting s's live bit with one reference held by the
// publishing relation. Every genSpan publishes the generation closes: the
// backstop cleanup is armed on the sentinel and the writer's live stake is
// dropped, after which the generation dies with its last snapshot.
func (a *snapArena[P]) publish(s *RelationSnapshot[P], seq uint64) {
	a.drain()
	if a.cur == nil {
		a.cur = &genSentinel{}
		a.curSet = a.takeSet(seq)
	}
	s.keep = a.cur
	s.set = a.curSet
	s.bit = 1 << a.n
	s.refs.Store(1) // the relation's own reference, dropped at the next publish
	a.curSet.live.Add(s.bit)
	a.n++
	if a.n >= genSpan {
		set := a.curSet
		set.stop = runtime.AddCleanup(a.cur, a.onDead, deadNote[P]{set: set, gen: set.genID})
		a.cur, a.curSet, a.n = nil, nil, 0
		if set.live.Add(^uint32(writerStake-1)) == 0 { // subtracting a set bit clears it
			a.reportDead(set)
		}
	}
}

// Retain adds a reference to the snapshot, for handing it to an additional
// independent owner; each owner must balance its reference with Release. The
// caller must hold a reference itself: a count found at zero is a snapshot
// already given back, and panics.
func (s *RelationSnapshot[P]) Retain() {
	if s != nil && s.refs.Add(1) == 1 {
		panic("data: Retain on a RelationSnapshot whose last reference was released")
	}
}

// Release drops one reference to the snapshot. Dropping the last one lets the
// relation's next sweep give the rows and chunks the snapshot reads, and no
// unreleased snapshot else, back to its pools — the deterministic reclamation
// path high-rate publish loops need (see the package comment) — and gives the
// snapshot struct itself, scribbled, to the relation's next publish.
// Releasing is optional for correctness: unreleased snapshots are reclaimed
// by the GC backstop once unreachable, never recycled. Safe from any
// goroutine; releasing more times than retained corrupts the count.
func (s *RelationSnapshot[P]) Release() {
	if s == nil {
		return
	}
	if s.refs.Add(-1) != 0 {
		return
	}
	set := s.set
	a := set.owner
	if set.live.Add(-s.bit) == 0 {
		a.reportDead(set)
	}
	// A parked header must not keep its generation's sentinel from the
	// backstop; its directory keeps its capacity for the next publish.
	s.chunks, s.keep, s.n = s.chunks[:0], nil, -1
	a.headers.Put(s)
}
