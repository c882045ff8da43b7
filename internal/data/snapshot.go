package data

import (
	"reflect"
	"sort"
	"sync/atomic"

	"fivm/internal/ring"
)

// Snapshot chunk sizing: published entries are held in key-sorted chunks so a
// publish clones only the chunks containing changed keys. Chunks split at
// snapChunkMax into runs of snapChunkTarget; smaller constants cheapen the
// per-changed-key clone, larger ones cheapen the per-snapshot directory.
const (
	snapChunkTarget = 64
	snapChunkMax    = 128
)

// RelationSnapshot is an immutable point-in-time copy of a Relation: a
// finite map from encoded tuple keys to payloads that is never mutated after
// publication, so any number of goroutines may read it concurrently, with no
// locks, while the source relation keeps changing.
//
// Entries are held by value in chunks sorted by encoded key. The key
// encoding (Tuple.AppendKey) is self-delimiting and prefix-preserving — the
// encoding of a tuple prefix is a byte-prefix of the full encoding — so the
// sorted order groups every group-by prefix contiguously and ScanPrefix
// serves leading-variable range scans without secondary indexes.
//
// Consecutive snapshots of one relation share the chunks (and their entry
// storage) of every key range that did not change between publishes:
// publishing costs O(changed keys · chunk size + chunk count), not
// O(relation size). Chunk storage is recycled through a block arena (see
// snaparena.go), so an *Entry obtained from a snapshot (Lookup, ScanPrefix,
// IterateEntries), or an in-place ring's payload, is valid until the
// snapshot's last Release, not merely "while reachable" — copy it out first.
//
// A snapshot is a lease: the publishing relation holds one reference while it
// is the latest and every Relation.Snapshot call one more (Retain adds one
// for another owner). The arena blocks it reads wait for its last Release,
// and those of older snapshots only if it reads them too: a held epoch holds
// its own storage, no other (ArenaStats.BlocksRetired). Release is optional —
// a forgotten snapshot stays readable while reachable and is reclaimed by a
// GC backstop, counted in ArenaStats.BackstopReclaims — but a high-rate
// publish loop that skips it waits on full collection cycles and loses the
// arena's recycling entirely. The last Release also gives this struct back:
// the relation builds a later snapshot in it, so nothing of a released
// snapshot may be read, not even Len.
type RelationSnapshot[P any] struct {
	schema Schema
	ring   ring.Ring[P]
	n      int
	chunks []snapChunk[P]
	// dirBlk is the arena block the chunks directory itself lives in (nil
	// for plain allocations); publication stamps it like the run blocks.
	dirBlk *bumpBlock[snapChunk[P]]
	// keep anchors the publish generation this snapshot belongs to: while
	// any snapshot of the generation is reachable, so is the sentinel, and
	// the GC backstop cannot report the generation dead (see snaparena.go).
	keep *genSentinel
	// refs counts the snapshot's owners (the publishing relation plus one
	// per handle returned by Snapshot); set is the publish generation's pin
	// set and bit the snapshot's bit of set.live, which the last Release
	// clears. All nil/unused for snapshots not backed by the arena
	// (ReduceSealed).
	refs atomic.Int32
	bit  uint32
	set  *pinSet[P]
}

// snapChunk is one sorted chunk of a snapshot: an entry run plus the arena
// block it lives in (nil for plain allocations), which publication stamps
// with the snapshot's number so the block waits for it (see snaparena.go).
type snapChunk[P any] struct {
	es  []Entry[P]
	blk *bumpBlock[Entry[P]]
}

// snapState is the incremental publication machinery a relation carries once
// its first Snapshot has been taken: the keys dirtied since the last publish
// and the last published snapshot, which the next publish patches.
type snapState[P any] struct {
	// dirtyKeys lists the keys changed since the last publish, deduplicated
	// on the hot path by entry generation (one compare per touch) and again
	// during the publish radix sort; the slice is reset (capacity kept) per
	// publish, so steady-state dirty tracking does not allocate or hash.
	dirtyKeys []string
	// fullDirty marks wholesale invalidation (Clear): the next publish
	// rebuilds from the live contents instead of patching.
	fullDirty bool
	last      *RelationSnapshot[P]
	// arena allocates chunk entry runs and directories; dirScratch is the
	// reusable buffer the next chunk directory is assembled in before the
	// exact-size arena copy.
	arena      snapArena[P]
	dirScratch []snapChunk[P]
	// refresh is the round-robin chunk-refresh cursor: each patch copies the
	// chunk at this index into a fresh arena run even when it is clean, so
	// every chunk's storage is rewritten at least once per len(chunks)
	// publishes. Without it, one long-clean chunk keeps its whole arena block
	// read by every snapshot — and each block holds many publishes' runs —
	// so steady-state arena footprint would grow with key-range staleness
	// instead of staying proportional to the relation (observed as unbounded
	// heap growth under a cycling update stream). With it, the latest
	// snapshot stops reading a block once the cursor has lapped it, and the
	// block retires.
	refresh int
	// gen is the publish generation, bumped after every published snapshot:
	// the sequence number the next snapshot will carry. An entry whose gen is
	// current has already been recorded dirty this epoch and is the writer's
	// alone until the next publish; an older gen means the entry is untouched
	// since the last publish and the snapshots numbered born to gen-1 read
	// it, so publishing never deep-copies payloads and keys written once are
	// never copied (insert-heavy streams publish with no payload copying).
	gen uint64
	// shares: the snapshots share the entries' payload storage — a P is not
	// just a number, whose sealed copy is the whole payload. The first
	// in-place touch of a sealed entry then replaces it (touchEntry, replace);
	// a number is written where it is.
	// swept is the gen takeEntry last freed the retired rows in (sweepRows).
	shares bool
	swept  uint64
}

// sweepRows frees the retired rows — pool[free:ret] — that no unreleased
// snapshot reads: all of them in a relation that never published, otherwise
// those no snapshot numbered born to gen (park, replace) still pins, moved to
// the front. So a pinned epoch holds only rows it reads, at most its own size.
func (r *Relation[P]) sweepRows() {
	for n := r.free; n < r.ret; n++ {
		if e := r.pool[n]; r.snap == nil || e.born > e.gen || !r.snap.arena.pinned(e.born, e.gen) {
			r.pool[n], r.pool[r.free] = r.pool[r.free], e
			r.freeEntry(e)
		}
	}
}

// sealed returns the snapshot-owned copy of a live entry: the entry value
// sharing key bytes, tuple and payload storage, which the writer never writes
// again while a snapshot that reads them is held — a removed entry is retired
// whole, and so is one whose first touch after the publish replaced it
// (touchEntry) — so sealing is O(1) regardless of payload size, and entry
// values land directly in arena runs instead of individual heap allocations.
func sealed[P any](e *Entry[P]) Entry[P] {
	return Entry[P]{key: e.key, hash: e.hash, Tuple: e.Tuple, Payload: e.Payload}
}

// touchEntry prepares stored entry e for an in-place payload mutation and
// returns the entry to write: e itself, recorded dirty on its first touch per
// publish epoch, or — on that first touch, when snapshots share the payload
// storage — a copy of e holding src as its payload, not yet stored, which
// settle swaps in for e or frees. Later touches in the same epoch cost one
// comparison; relations never snapshotted pay a nil check.
func (r *Relation[P]) touchEntry(e *Entry[P], src P) *Entry[P] {
	if s := r.snap; s != nil && e.gen != s.gen && s.shares {
		en := r.takeEntry(keyView(e.key), e.hash, e.Tuple)
		r.ring.CopyInto(&en.Payload, src)
		return en
	}
	r.markEntry(e)
	return e
}

// replace stores en, touchEntry's copy of stored entry e, in e's place — the
// primary table here, the index buckets in IndexedRelation.reindex — and
// retires e whole: the snapshots numbered born to gen-1, the latest included,
// read it, so sweepRows frees it by the rows' test, pooled relation or not.
func (r *Relation[P]) replace(e, en *Entry[P]) {
	r.entries.replace(e, en)
	r.markInserted(en)
	e.gen = r.snap.gen - 1
	r.retireEntry(e)
}

// markEntry records an entry's key in the dirty list without touching its
// payload storage (a payload assigned whole, or overwritten where it is).
func (r *Relation[P]) markEntry(e *Entry[P]) {
	if s := r.snap; s != nil && e.gen != s.gen {
		e.gen = s.gen
		s.dirtyKeys = append(s.dirtyKeys, e.key)
	}
}

// markInserted records a freshly inserted entry: its key goes in the dirty
// list unconditionally (a recycled entry struct may carry a current gen for
// a different key) and its generation is made current — fresh payload
// storage is writer-owned until the next publish seals it, the first to read
// its key and tuple (born).
func (r *Relation[P]) markInserted(e *Entry[P]) {
	if s := r.snap; s != nil {
		e.gen, e.born = s.gen, s.gen
		s.dirtyKeys = append(s.dirtyKeys, e.key)
	}
}

// DirtyKeys returns how many key changes the next Snapshot call will patch in
// (every live key after a Clear; a key deleted and re-inserted counts twice)
// and whether the relation tracks changes at all — false until its first
// Snapshot. Same goroutine as the mutations.
func (r *Relation[P]) DirtyKeys() (n int, tracking bool) {
	s := r.snap
	switch {
	case s == nil:
		return 0, false
	case s.fullDirty:
		return r.entries.len(), true
	}
	return len(s.dirtyKeys), true
}

// Snapshot publishes an immutable copy of the relation's current contents.
// The first call is O(n) and attaches dirty tracking; every later call costs
// O(keys changed since the previous call) and shares all unchanged storage
// with the previous snapshot (a call with no changes returns the previous
// snapshot itself). Snapshot must be called from the goroutine that mutates
// the relation; the returned snapshot may then be read from any goroutine,
// and should be Released when no longer needed so its storage returns to
// the relation's arena instead of waiting on the garbage collector.
func (r *Relation[P]) Snapshot() *RelationSnapshot[P] {
	if r.snap == nil {
		k := reflect.TypeFor[P]().Kind()
		r.snap = &snapState[P]{gen: 1, shares: k < reflect.Bool || k > reflect.Complex128}
		r.snap.arena.init()
		r.snap.last = r.buildSnapshot()
		r.snap.arena.publish(r.snap.last, 1)
		r.snap.gen++
	} else if s := r.snap; s.fullDirty || len(s.dirtyKeys) > 0 {
		var next *RelationSnapshot[P]
		if s.fullDirty {
			s.fullDirty = false
			s.dirtyKeys = s.dirtyKeys[:0]
			next = r.buildSnapshot()
		} else {
			next = s.last.patch(r, s.dirtyKeys)
			s.dirtyKeys = s.dirtyKeys[:0]
		}
		// Publish (stamping the blocks next shares with the previous
		// snapshot) before dropping the relation's reference on it.
		s.arena.publish(next, s.gen)
		s.last.Release()
		s.last = next
		s.gen++
	}
	last := r.snap.last
	last.refs.Add(1) // the returned handle's reference
	return last
}

// buildSnapshot constructs a snapshot from the full live contents in the
// relation's arena, radix-sorting the sealed entry values into one run.
func (r *Relation[P]) buildSnapshot() *RelationSnapshot[P] {
	es, blk := r.snap.arena.runs.alloc(r.entries.len())
	r.entries.all(func(e *Entry[P]) bool {
		es = append(es, sealed(e))
		return true
	})
	radixSortEntries(es)
	s := newSnapshot(&r.snap.arena.headers, r.schema, r.ring, len(es))
	r.finishDir(s, appendChunked(r.snap.dirScratch[:0], es, blk))
	return s
}

// newSnapshot is where every snapshot header comes from: one a last Release
// gave back to the relation's arena or, none there or no arena
// (ReduceSealed), a new one.
func newSnapshot[P any](from *Recycler[RelationSnapshot[P]], schema Schema, rg ring.Ring[P], n int) *RelationSnapshot[P] {
	s := from.Take()
	if s == nil {
		s = &RelationSnapshot[P]{}
	}
	s.schema, s.ring, s.n = schema, rg, n
	return s
}

// finishDir installs an assembled chunk directory into s: an exact-size copy
// allocated from the directory arena, with the scratch buffer cleared and
// handed back for the next publish.
func (r *Relation[P]) finishDir(s *RelationSnapshot[P], out []snapChunk[P]) {
	dir, blk := r.snap.arena.dirs.alloc(len(out))
	s.chunks = append(dir, out...)
	s.dirBlk = blk
	clear(out[:cap(out)])
	r.snap.dirScratch = out[:0]
}

// patch publishes the next snapshot from the previous one: chunks covering
// no dirty key are shared, chunks covering dirty keys are re-merged against
// the live contents. The dirty list is radix-sorted with duplicates dropped
// during the distribution passes (delete-then-reinsert within one epoch
// records a key twice; the merge below must see it once).
func (prev *RelationSnapshot[P]) patch(r *Relation[P], keys []string) *RelationSnapshot[P] {
	keys = radixSortKeysDedup(keys)

	arena := &r.snap.arena
	next := newSnapshot(&arena.headers, prev.schema, prev.ring, r.entries.len())
	if len(prev.chunks) == 0 {
		buf, blk := arena.runs.alloc(len(keys))
		for _, k := range keys {
			if e := r.lookupString(k); e != nil {
				buf = append(buf, sealed(e))
			}
		}
		arena.runs.trim(buf, blk)
		r.finishDir(next, appendChunked(r.snap.dirScratch[:0], buf, blk))
		return next
	}
	out := r.snap.dirScratch[:0]
	ki := 0
	cursor := r.snap.refresh % len(prev.chunks)
	r.snap.refresh = cursor + 1
	for ci := range prev.chunks {
		c := prev.chunks[ci]
		last := ci == len(prev.chunks)-1
		// Chunk ci covers keys up to (not including) the next chunk's first
		// key; the first chunk also absorbs smaller keys, the last all larger.
		lo := ki
		for ki < len(keys) && (last || keys[ki] < prev.chunks[ci+1].es[0].key) {
			ki++
		}
		if lo == ki {
			if ci == cursor && c.blk != nil {
				// Refresh turn: rewrite the clean chunk into a fresh run so
				// its old block can retire (see snapState.refresh).
				run, blk := arena.runs.alloc(len(c.es))
				run = append(run, c.es...)
				out = appendChunked(out, run, blk)
				continue
			}
			out = append(out, c)
			continue
		}
		run, blk := mergeChunk(r, c.es, keys[lo:ki])
		out = appendChunked(out, run, blk)
	}
	r.finishDir(next, out)
	return next
}

// mergeChunk merges a sorted chunk with sorted dirty keys: dirty keys still
// live are replaced by sealed copies of their current entries, dead ones are
// dropped, and untouched entries are carried over by value. The merged run
// is arena-allocated; len(c)+len(keys) is a strict upper bound on its size.
func mergeChunk[P any](r *Relation[P], c []Entry[P], keys []string) ([]Entry[P], *bumpBlock[Entry[P]]) {
	arena := &r.snap.arena.runs
	out, blk := arena.alloc(len(c) + len(keys))
	i := 0
	for _, k := range keys {
		for i < len(c) && c[i].key < k {
			out = append(out, c[i])
			i++
		}
		if i < len(c) && c[i].key == k {
			i++ // superseded or deleted
		}
		if e := r.lookupString(k); e != nil {
			out = append(out, sealed(e))
		}
	}
	out = append(out, c[i:]...)
	arena.trim(out, blk)
	return out, blk
}

// appendChunked appends a sorted entry run to the chunk list, splitting runs
// longer than snapChunkMax into snapChunkTarget-sized chunks (subslices of
// one backing array, immutable after publication, all attributed to the
// run's arena block).
func appendChunked[P any](out []snapChunk[P], es []Entry[P], blk *bumpBlock[Entry[P]]) []snapChunk[P] {
	for len(es) > snapChunkMax {
		out = append(out, snapChunk[P]{es: es[:snapChunkTarget:snapChunkTarget], blk: blk})
		es = es[snapChunkTarget:]
	}
	if len(es) > 0 {
		out = append(out, snapChunk[P]{es: es, blk: blk})
	}
	return out
}

// Schema returns the snapshot's schema.
func (s *RelationSnapshot[P]) Schema() Schema { return s.schema }

// Ring returns the payload ring.
func (s *RelationSnapshot[P]) Ring() ring.Ring[P] { return s.ring }

// Len returns the number of keys with non-zero payloads at publication time.
func (s *RelationSnapshot[P]) Len() int { return s.n }

// cmpKey compares an encoded key held as a string with one held as bytes,
// byte-wise, without converting (and therefore without allocating).
func cmpKey(a string, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

// findChunk returns the index of the chunk whose key range contains key:
// the last chunk whose first key is <= key (the first chunk also covers
// smaller keys). Only valid when the snapshot has chunks.
func (s *RelationSnapshot[P]) findChunk(key []byte) int {
	i := sort.Search(len(s.chunks), func(i int) bool {
		return cmpKey(s.chunks[i].es[0].key, key) > 0
	})
	if i > 0 {
		i--
	}
	return i
}

// Lookup returns the entry stored under an encoded tuple key, or nil. The
// key bytes may live in a caller-owned scratch buffer; the lookup does not
// allocate or retain them. The returned entry is valid until the snapshot is
// Released; copy it out first.
func (s *RelationSnapshot[P]) Lookup(key []byte) *Entry[P] {
	if len(s.chunks) == 0 {
		return nil
	}
	c := s.chunks[s.findChunk(key)].es
	i := sort.Search(len(c), func(i int) bool { return cmpKey(c[i].key, key) >= 0 })
	if i < len(c) && cmpKey(c[i].key, key) == 0 {
		return &c[i]
	}
	return nil
}

// Get returns the payload of tuple t and whether it is non-zero.
func (s *RelationSnapshot[P]) Get(t Tuple) (P, bool) {
	var buf [96]byte
	if e := s.Lookup(t.AppendKey(buf[:0])); e != nil {
		return e.Payload, true
	}
	var zero P
	return zero, false
}

// ScanPrefix visits, in encoded-key order, every entry whose key starts with
// the given encoded prefix, until f returns false. A prefix is the encoding
// of values for a leading subset of the schema's variables (Tuple.AppendKey
// of a prefix tuple); an empty prefix scans the whole snapshot. The
// self-delimiting key encoding guarantees a byte-prefix match is exactly a
// leading-variable value match. Entries passed to f are valid until the
// snapshot is Released.
func (s *RelationSnapshot[P]) ScanPrefix(prefix []byte, f func(e *Entry[P]) bool) {
	if len(s.chunks) == 0 {
		return
	}
	ci := s.findChunk(prefix)
	c := s.chunks[ci].es
	i := sort.Search(len(c), func(i int) bool { return cmpKey(c[i].key, prefix) >= 0 })
	for ; ci < len(s.chunks); ci++ {
		c = s.chunks[ci].es
		for ; i < len(c); i++ {
			e := &c[i]
			if len(e.key) < len(prefix) || e.key[:len(prefix)] != string(prefix) {
				return
			}
			if !f(e) {
				return
			}
		}
		i = 0
	}
}

// Iterate calls f for each entry in encoded-key order until f returns false.
func (s *RelationSnapshot[P]) Iterate(f func(t Tuple, p P) bool) {
	for _, c := range s.chunks {
		for i := range c.es {
			if !f(c.es[i].Tuple, c.es[i].Payload) {
				return
			}
		}
	}
}

// IterateEntries calls f for each entry in encoded-key order until f returns
// false. Entries are immutable, must not be modified, and are valid until the
// snapshot is Released.
func (s *RelationSnapshot[P]) IterateEntries(f func(e *Entry[P]) bool) {
	for _, c := range s.chunks {
		for i := range c.es {
			if !f(&c.es[i]) {
				return
			}
		}
	}
}

// SortedEntries returns copies of the entries in encoded-key order, for
// deterministic comparison in tests and tools.
func (s *RelationSnapshot[P]) SortedEntries() []Entry[P] {
	out := make([]Entry[P], 0, s.n)
	for _, c := range s.chunks {
		out = append(out, c.es...)
	}
	return out
}
