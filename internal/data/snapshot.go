package data

import (
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"fivm/internal/ring"
)

// Snapshot chunk sizing: published entries are held in key-sorted chunks so a
// publish rebuilds only the chunks containing changed keys. Chunks split at
// snapChunkMax into runs of snapChunkTarget; smaller constants cheapen the
// per-changed-key rebuild, larger ones cheapen the per-snapshot directory.
const (
	snapChunkTarget = 64
	snapChunkMax    = 128
)

// RelationSnapshot is an immutable point-in-time view of a Relation: a
// finite map from encoded tuple keys to payloads that is never mutated after
// publication, so any number of goroutines may read it concurrently, with no
// locks, while the source relation keeps changing.
//
// A snapshot points at the relation's own entries, in chunks sorted by
// encoded key; the writer never writes a published entry again (touchEntry
// copies it on its first touch after a publish). The key encoding
// (Tuple.AppendKey) is self-delimiting and prefix-preserving — the encoding
// of a tuple prefix is a byte-prefix of the full encoding — so the sorted
// order groups every group-by prefix contiguously and ScanPrefix serves
// leading-variable range scans without secondary indexes.
//
// Consecutive snapshots of one relation share the chunks of every key range
// that did not change between publishes: publishing costs O(changed keys +
// chunk count), not O(relation size). Entries and chunk arrays are recycled
// (see snaparena.go), so an *Entry obtained from a snapshot (Lookup,
// ScanPrefix, IterateEntries), or an in-place ring's payload, is valid until
// the snapshot's last Release, not merely "while reachable" — copy it out
// first.
//
// A snapshot is a lease: the publishing relation holds one reference while it
// is the latest and every Relation.Snapshot call one more (Retain adds one
// for another owner). The chunks it reads wait for its last Release, and
// those of older snapshots only if it reads them too, and a row waits for the
// last chunk that points at it: a held epoch holds its own storage, no other
// (PoolStats.RowsRetired, ArenaStats.ChunksRetired).
// Release is optional — a forgotten snapshot stays readable while reachable
// (a walk keeps it reachable until the walk returns) and is reclaimed by a
// GC backstop, counted in ArenaStats.BackstopReclaims — but a high-rate
// publish loop that skips it waits on full collection cycles and loses the
// recycling entirely. The last Release also gives this struct back: the
// relation builds a later snapshot in it, so nothing of a released snapshot
// may be read, not even Len.
type RelationSnapshot[P any] struct {
	schema Schema
	ring   ring.Ring[P]
	n      int
	// chunks is the directory; a recycled header keeps its capacity.
	chunks []*snapChunk[P]
	// keep anchors the publish generation this snapshot belongs to: while
	// any snapshot of the generation is reachable, so is the sentinel, and
	// the GC backstop cannot report the generation dead (see snaparena.go).
	keep *genSentinel
	// refs counts the snapshot's owners (the publishing relation plus one
	// per handle returned by Snapshot); set is the publish generation's pin
	// set and bit the snapshot's bit of set.live, which the last Release
	// clears.
	refs atomic.Int32
	bit  uint32
	set  *pinSet[P]
}

// snapChunk is one sorted chunk of a snapshot: n pointers to entries, read by
// the snapshots numbered born to last (see snaparena.go).
type snapChunk[P any] struct {
	born, last uint64
	n          int
	es         [snapChunkMax]*Entry[P]
}

// entries returns the chunk's entries in key order.
func (c *snapChunk[P]) entries() []*Entry[P] { return c.es[:c.n] }

// snapState is the incremental publication machinery a relation carries once
// its first Snapshot has been taken: the keys dirtied since the last publish
// and the last published snapshot, which the next publish patches.
type snapState[P any] struct {
	// dirtyKeys lists the keys changed since the last publish, deduplicated
	// on the hot path by the entry's chunk count (one compare per touch) and
	// again after the publish sorts them; the slice is reset (capacity kept)
	// per publish, so steady-state dirty tracking does not allocate or hash.
	dirtyKeys []string
	// fullDirty marks wholesale invalidation (Clear): the next publish
	// rebuilds from the live contents instead of patching.
	fullDirty bool
	last      *RelationSnapshot[P]
	// arena recycles chunk arrays and snapshot headers; run is the reusable
	// buffer a sorted run of entries is assembled in before it is chunked.
	arena snapArena[P]
	run   []*Entry[P]
	// gen is the publish generation, bumped after every published snapshot:
	// the sequence number the next snapshot will carry. swept is the gen
	// takeEntry last swept the chunks in (snapArena.sweep).
	gen, swept uint64
}

// touchEntry prepares stored entry e for an in-place payload mutation and
// returns the entry to write: e itself when no snapshot reads it, or — on
// e's first touch after a publish, whose chunks point at its key, cells and
// payload — a copy of e holding src as its payload, not yet stored, which
// settle swaps in for e or frees. Every touch costs one comparison: an entry
// stored since the last publish is in no chunk, so publishing never copies
// anything.
func (r *Relation[P]) touchEntry(e *Entry[P], src P) *Entry[P] {
	if e.chunks > 0 {
		en := r.takeEntry(keyView(e.key), e.hash, e.Tuple)
		r.ring.CopyInto(&en.Payload, src)
		r.touchCopies++
		return en
	}
	return e
}

// replace stores en, touchEntry's copy of stored entry e, in e's place — the
// primary table here, the index buckets in IndexedRelation.reindex — and
// retires e whole: the latest snapshot's chunks point at it, so the chunk
// sweep frees it once no held epoch reads it, pooled relation or not.
func (r *Relation[P]) replace(e, en *Entry[P]) {
	r.entries.replace(e, en)
	r.markInserted(en)
	r.retire(e, 1)
}

// markInserted puts a freshly inserted entry's key in the dirty list: the
// entry is in no chunk, writer-owned, until the next publish.
func (r *Relation[P]) markInserted(e *Entry[P]) {
	if s := r.snap; s != nil {
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

// Snapshot publishes an immutable view of the relation's current contents.
// The first call is O(n) and attaches dirty tracking; every later call costs
// O(keys changed since the previous call) and shares all unchanged chunks
// with the previous snapshot (a call with no changes returns the previous
// snapshot itself). Snapshot must be called from the goroutine that mutates
// the relation; the returned snapshot may then be read from any goroutine,
// and should be Released when no longer needed so its storage returns to
// the relation instead of waiting on the garbage collector.
func (r *Relation[P]) Snapshot() *RelationSnapshot[P] {
	if r.snap == nil {
		r.snap = &snapState[P]{gen: 1}
		r.snap.arena.init()
		r.snap.last = r.buildSnapshot(nil)
		r.snap.arena.publish(r.snap.last, 1)
		r.snap.gen++
	} else if s := r.snap; s.fullDirty || len(s.dirtyKeys) > 0 {
		var next *RelationSnapshot[P]
		if s.fullDirty {
			s.fullDirty = false
			s.dirtyKeys = s.dirtyKeys[:0]
			next = r.buildSnapshot(s.last)
		} else {
			next = s.last.patch(r, s.dirtyKeys)
			s.dirtyKeys = s.dirtyKeys[:0]
		}
		// Publish and give back what no pinned snapshot reads before
		// dropping the relation's reference on the previous snapshot.
		s.arena.publish(next, s.gen)
		s.arena.sweep(r)
		s.last.Release()
		s.last = next
		s.gen++
	}
	last := r.snap.last
	last.refs.Add(1) // the returned handle's reference
	return last
}

// buildSnapshot constructs a snapshot from the full live contents, pointers
// to the entries sorted by key into one run, and retires every chunk of prev.
func (r *Relation[P]) buildSnapshot(prev *RelationSnapshot[P]) *RelationSnapshot[P] {
	a, seq := &r.snap.arena, r.snap.gen
	run := r.snap.run[:0]
	r.entries.all(func(e *Entry[P]) bool {
		run = append(run, e)
		return true
	})
	slices.SortFunc(run, byKey[P])
	r.snap.run = run
	if prev != nil {
		for _, c := range prev.chunks {
			a.retire(c, seq)
		}
	}
	s := newSnapshot(&a.headers, r.schema, r.ring, len(run))
	s.chunks = a.appendChunked(s.chunks, run, seq)
	return s
}

// newSnapshot is where every snapshot header comes from: one a last Release
// gave back to the relation's arena or, none there, a new one.
func newSnapshot[P any](from *Recycler[RelationSnapshot[P]], schema Schema, rg ring.Ring[P], n int) *RelationSnapshot[P] {
	s := from.Take()
	if s == nil {
		s = &RelationSnapshot[P]{}
	}
	s.schema, s.ring, s.n = schema, rg, n
	return s
}

// patch publishes the next snapshot from the previous one: chunks covering
// no dirty key are shared, chunks covering dirty keys are re-merged against
// the live contents and retired. The dirty list is sorted and its duplicates
// dropped (delete-then-reinsert within one epoch records a key twice; the
// merge below must see it once).
func (prev *RelationSnapshot[P]) patch(r *Relation[P], keys []string) *RelationSnapshot[P] {
	slices.Sort(keys)
	keys = slices.Compact(keys)
	a, seq := &r.snap.arena, r.snap.gen
	next := newSnapshot(&a.headers, prev.schema, prev.ring, r.entries.len())
	if len(prev.chunks) == 0 {
		next.chunks = a.appendChunked(next.chunks, r.mergeChunk(nil, keys), seq)
		return next
	}
	ki := 0
	for ci, c := range prev.chunks {
		last := ci == len(prev.chunks)-1
		// Chunk ci covers keys up to (not including) the next chunk's first
		// key; the first chunk also absorbs smaller keys, the last all larger.
		lo := ki
		for ki < len(keys) && (last || keys[ki] < prev.chunks[ci+1].es[0].key) {
			ki++
		}
		if lo == ki {
			next.chunks = append(next.chunks, c)
			continue
		}
		a.retire(c, seq)
		next.chunks = a.appendChunked(next.chunks, r.mergeChunk(c.entries(), keys[lo:ki]), seq)
	}
	return next
}

// mergeChunk merges a sorted chunk with sorted dirty keys into the run
// buffer: dirty keys still live take their current entries, dead ones are
// dropped, and untouched entries are carried over.
func (r *Relation[P]) mergeChunk(c []*Entry[P], keys []string) []*Entry[P] {
	out := r.snap.run[:0]
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
			out = append(out, e)
		}
	}
	out = append(out, c[i:]...)
	r.snap.run = out
	return out
}

// appendChunked appends a sorted entry run to a directory, in chunk arrays
// snapshot seq is the first to read, splitting runs longer than snapChunkMax
// into snapChunkTarget-sized chunks, counts each chunk in its entries, and
// clears the run.
func (a *snapArena[P]) appendChunked(dir []*snapChunk[P], run []*Entry[P], seq uint64) []*snapChunk[P] {
	for es := run; len(es) > 0; {
		c := a.chunk(seq)
		if len(es) > snapChunkMax {
			c.n = copy(c.es[:snapChunkTarget], es)
		} else {
			c.n = copy(c.es[:], es)
		}
		for _, e := range c.entries() {
			e.chunks++
		}
		dir = append(dir, c)
		es = es[c.n:]
	}
	clear(run)
	return dir
}

// Schema returns the snapshot's schema.
func (s *RelationSnapshot[P]) Schema() Schema { return s.schema }

// Ring returns the payload ring.
func (s *RelationSnapshot[P]) Ring() ring.Ring[P] { return s.ring }

// Len returns the number of keys with non-zero payloads at publication time.
func (s *RelationSnapshot[P]) Len() int { return s.n }

// byKey orders entries by encoded key. Key order is Go's string order (the
// key codec preserves tuple order), for snapshots, checkpoints and the
// readers' binary searches alike.
func byKey[P any](a, b *Entry[P]) int { return strings.Compare(a.key, b.key) }

// findChunk returns the index of the chunk whose key range contains key:
// the last chunk whose first key is <= key (the first chunk also covers
// smaller keys). Only valid when the snapshot has chunks.
func (s *RelationSnapshot[P]) findChunk(key string) int {
	i := sort.Search(len(s.chunks), func(i int) bool {
		return s.chunks[i].es[0].key > key
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
	defer runtime.KeepAlive(s)
	if len(s.chunks) == 0 {
		return nil
	}
	k := keyString(key)
	c := s.chunks[s.findChunk(k)].entries()
	i := sort.Search(len(c), func(i int) bool { return c[i].key >= k })
	if i < len(c) && c[i].key == k {
		return c[i]
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
	defer runtime.KeepAlive(s)
	if len(s.chunks) == 0 {
		return
	}
	p := keyString(prefix)
	ci := s.findChunk(p)
	c := s.chunks[ci].entries()
	i := sort.Search(len(c), func(i int) bool { return c[i].key >= p })
	for ; ci < len(s.chunks); ci++ {
		c = s.chunks[ci].entries()
		for ; i < len(c); i++ {
			e := c[i]
			if !strings.HasPrefix(e.key, p) {
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
	defer runtime.KeepAlive(s)
	for _, c := range s.chunks {
		for _, e := range c.entries() {
			if !f(e.Tuple, e.Payload) {
				return
			}
		}
	}
}

// IterateEntries calls f for each entry in encoded-key order until f returns
// false. Entries are immutable, must not be modified, and are valid until the
// snapshot is Released.
func (s *RelationSnapshot[P]) IterateEntries(f func(e *Entry[P]) bool) {
	defer runtime.KeepAlive(s)
	for _, c := range s.chunks {
		for _, e := range c.entries() {
			if !f(e) {
				return
			}
		}
	}
}

// SortedEntries returns copies of the entries in encoded-key order, for
// deterministic comparison in tests and tools.
func (s *RelationSnapshot[P]) SortedEntries() []Entry[P] {
	defer runtime.KeepAlive(s)
	out := make([]Entry[P], 0, s.n)
	for _, c := range s.chunks {
		for _, e := range c.entries() { // the fields a reader may read: the writer still counts chunks
			out = append(out, Entry[P]{key: e.key, hash: e.hash, Tuple: e.Tuple, Payload: e.Payload})
		}
	}
	return out
}
