package data

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// Snapshot arena: steady-state publishing produces one entry run per dirty
// chunk plus one chunk directory per epoch, and under a continuous update
// stream those die a few epochs later when the snapshots referencing them
// are dropped — a textbook arena workload. The arena bump-allocates both
// (entry runs and directories are separate typed arenas of the same shape)
// out of fixed-size blocks and recycles a block onto a freelist once no
// snapshot that reads it has references left, so steady-state Snapshot()
// publishing hands the garbage collector almost nothing: the snapshot struct
// itself comes back too.
//
// A block retires like a row (sweepRows): by span. The snapshots that read a
// block are numbered born to last — a patch never reads a superseded run
// again, so once the latest snapshot reads nothing in a block the writer has
// stopped filling, no later one will, and the span is contiguous or wider than
// the true set, which is safe. Each publish stamps last on the blocks the new
// snapshot reads and retires the others (one nothing ever read goes straight
// back); a retired block goes back at the first publish that finds no
// snapshot numbered born to last pinned. So a reader that pins an epoch holds
// the blocks that epoch reads and no others, and the refresh cursor
// (snapState.refresh) keeps one long-clean chunk from holding its block's
// span open for ever.
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
//     a steady publish loop whose consumers Release gets each block back
//     within a publish of its last reader — deterministically, with no
//     garbage collector involvement.
//   - As a GC backstop: when a generation closes, a runtime.AddCleanup on a
//     sentinel object (strongly referenced by every snapshot of the
//     generation) reports it dead once all its unreleased snapshots are
//     collected; the writer then stops reading its bits. Snapshots that are
//     never Released are therefore safe — merely slow to reclaim, because
//     cleanup latency is a full GC cycle, and dead-but-unreclaimed blocks
//     inflate the collector's heap target, which grows the cycle further: a
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
// A relation that stops publishing retains its retired blocks until it
// publishes again or becomes unreachable itself. Blocks and freelists are
// writer-goroutine-only (no atomics, no locks); the only cross-goroutine
// state is the snapshot reference counts, the live bits and the dead list
// guarded by deadMu.
const (
	// runBlockCap is the entry-run block size in entries. Runs larger than a
	// block — wholesale rebuilds, huge dirty ranges — fall back to plain GC
	// allocations with a nil block. Sized so a block of small-payload entries
	// stays under the runtime's 32KB large-object threshold: large objects
	// are zeroed eagerly on allocation, and that memclr dominates the publish
	// profile whenever a fresh block is needed.
	runBlockCap = 512
	// dirBlockCap is the directory block size in chunk descriptors.
	dirBlockCap = 512
	// arenaFreeMax caps each freelist; blocks beyond it go back to the GC.
	// Released snapshots give their blocks back a publish later, so the
	// freelist stays small in steady state; the cap only matters when the GC
	// backstop reclaims a burst of generations leaked by callers that never
	// Release.
	arenaFreeMax = 256
	// genSpan is the number of publishes grouped under one liveness sentinel.
	genSpan = 16
)

// bumpBlock is one fixed-capacity allocation block of a bumpArena: the
// snapshots numbered born to last read runs in buf (born 0: none yet).
// Writer-goroutine owned.
type bumpBlock[T any] struct {
	born, last uint64
	buf        []T
}

// ArenaStats is a snapshotting relation's arena accounting (PoolStats.Arena):
// blocks taken (the retired ones included) and blocks parked for reuse, blocks
// retired that wait for a pinned epoch that reads them (a reader that pins
// shows as this climbing, like PoolStats.RowsRetired), publish generations not
// yet drained, and generations whose death the GC backstop reported instead of
// Release — each of those is a lease somebody forgot.
// Headers counts the structs of the relation's snapshots — and, summed in by
// their publishers, of the epochs that carry them — as recycled or new.
type ArenaStats struct {
	BlocksLive, BlocksFree, BlocksRetired, GenerationsOpen int
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
	return ArenaStats{a.runs.live + a.dirs.live, len(a.runs.free) + len(a.dirs.free), len(a.runs.retired) + len(a.dirs.retired),
		len(a.open), backstops, a.headers.Stats()}
}

// bumpArena bump-allocates fixed-capacity runs of T out of recycled blocks.
type bumpArena[T any] struct {
	blockCap int
	cur      *bumpBlock[T]
	// held lists the blocks taken and not retired: cur, those filled since the
	// last publish and those the latest snapshot reads; retired, those a
	// snapshot that reads them may still pin.
	held, retired []*bumpBlock[T]
	// lastBlk/lastStart remember the most recent allocation so trim can give
	// unused capacity back to the bump pointer.
	lastBlk   *bumpBlock[T]
	lastStart int
	free      []*bumpBlock[T]
	// live counts blocks taken and not yet given back; scribble (set under
	// PoisonReclaimed only) overwrites a dead block's contents.
	live     int
	scribble func([]T)
}

// alloc returns an empty run with the given strict capacity bound and the
// block it lives in (nil for zero-size and oversize runs, which are plain
// allocations). Callers must never append beyond the capacity — that would
// silently move the run out of the block and break its span.
func (a *bumpArena[T]) alloc(capacity int) ([]T, *bumpBlock[T]) {
	if capacity == 0 || capacity > a.blockCap {
		return make([]T, 0, capacity), nil
	}
	b := a.cur
	if b == nil || len(b.buf)+capacity > cap(b.buf) {
		b = a.take()
		a.cur = b
	}
	start := len(b.buf)
	b.buf = b.buf[:start+capacity]
	a.lastBlk, a.lastStart = b, start
	return b.buf[start : start : start+capacity], b
}

// trim gives the unused capacity of the most recent allocation back to the
// block, so a run that ended shorter than its bound does not waste space.
func (a *bumpArena[T]) trim(run []T, blk *bumpBlock[T]) {
	if blk != nil && blk == a.lastBlk {
		blk.buf = blk.buf[:a.lastStart+len(run)]
	}
	a.lastBlk = nil
}

// take pops a recycled block or allocates a fresh one, held.
func (a *bumpArena[T]) take() *bumpBlock[T] {
	var b *bumpBlock[T]
	if n := len(a.free); n > 0 {
		b = a.free[n-1]
		a.free[n-1] = nil
		a.free = a.free[:n-1]
	} else {
		b = &bumpBlock[T]{buf: make([]T, 0, a.blockCap)}
	}
	a.live++
	a.held = append(a.held, b)
	return b
}

// put returns a block no snapshot reads to the freelist. The buffer is NOT
// wiped: a recycled block is overwritten as it is reused and a discarded one
// is garbage wholesale, so the only cost of keeping the stale contents is that
// a block parked on the freelist retains references to the keys and payloads
// of its dead runs until reuse — bounded by arenaFreeMax blocks of entries
// that in steady state mostly still live in the relation anyway.
func (a *bumpArena[T]) put(b *bumpBlock[T]) {
	if a.scribble != nil {
		a.scribble(b.buf)
	}
	b.buf, b.born, b.last = b.buf[:0], 0, 0
	a.live--
	if len(a.free) < arenaFreeMax {
		a.free = append(a.free, b)
	}
}

// read records that snapshot seq reads a run in b (nil: a plain allocation).
func (b *bumpBlock[T]) read(seq uint64) {
	if b != nil {
		if b.born == 0 {
			b.born = seq
		}
		b.last = seq
	}
}

// retire runs at the publish of snapshot seq, once its blocks are read: a held
// block seq does not read, other than cur, retires, and the retired blocks no
// snapshot numbered born to last pins go back — one nothing ever read (0 to 0)
// at once.
func (a *bumpArena[T]) retire(seq uint64, pinned func(lo, hi uint64) bool) {
	held := a.held[:0]
	for _, b := range a.held {
		if b == a.cur || b.last == seq {
			held = append(held, b)
		} else {
			a.retired = append(a.retired, b)
		}
	}
	clear(a.held[len(held):])
	a.held = held
	retired := a.retired[:0]
	for _, b := range a.retired {
		if pinned(b.born, b.last) {
			retired = append(retired, b)
		} else {
			a.put(b)
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
	// writer reads them to learn who may still read a retired block or row
	// (pinned).
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

// snapArena allocates snapshot storage for one relation: entry runs, chunk
// directories, and the generation bookkeeping that says which snapshots are
// still pinned. Writer-goroutine only, except the dead list (see deadMu).
type snapArena[P any] struct {
	runs bumpArena[Entry[P]]
	dirs bumpArena[snapChunk[P]]
	n    int // publishes in the current generation

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
	a.runs.blockCap = runBlockCap
	a.dirs.blockCap = dirBlockCap
	if poison {
		a.runs.scribble = poisonRun[P]
		a.dirs.scribble = func(cs []snapChunk[P]) { clear(cs) } // Lookup and ScanPrefix panic
	}
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
// publishing relation — stamps the blocks s reads, and retires the blocks no
// later snapshot can read. Every genSpan publishes the generation closes: the
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
	for i := range s.chunks {
		s.chunks[i].blk.read(seq)
	}
	s.dirBlk.read(seq)
	a.n++
	if a.n >= genSpan {
		set := a.curSet
		set.stop = runtime.AddCleanup(a.cur, a.onDead, deadNote[P]{set: set, gen: set.genID})
		a.cur, a.curSet, a.n = nil, nil, 0
		if set.live.Add(^uint32(writerStake-1)) == 0 { // subtracting a set bit clears it
			a.reportDead(set)
		}
	}
	a.runs.retire(seq, a.pinned)
	a.dirs.retire(seq, a.pinned)
}

// Retain adds a reference to the snapshot, for handing it to an additional
// independent owner; each owner must balance its reference with Release. The
// caller must hold a reference itself: a count found at zero is a snapshot
// already given back, and panics. Snapshots not backed by the publish arena
// (Seal, ReduceSealed) need no lifetime management and ignore both calls.
func (s *RelationSnapshot[P]) Retain() {
	if s != nil && s.set != nil && s.refs.Add(1) == 1 {
		panic("data: Retain on a RelationSnapshot whose last reference was released")
	}
}

// Release drops one reference to the snapshot. Dropping the last one lets the
// relation's next publish give the arena blocks the snapshot reads, and no
// unreleased snapshot else, back to its arena — the deterministic reclamation
// path high-rate publish loops need (see the package comment) — and gives the
// snapshot struct itself, scribbled, to the relation's next publish.
// Releasing is optional for correctness: unreleased snapshots are reclaimed
// by the GC backstop once unreachable, never recycled. Safe from any
// goroutine; releasing more times than retained corrupts the count.
func (s *RelationSnapshot[P]) Release() {
	if s == nil || s.set == nil {
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
	// A parked header must not keep its generation's sentinel from the backstop.
	s.chunks, s.dirBlk, s.keep, s.n = nil, nil, nil, -1
	a.headers.Put(s)
}
