package data

import (
	"fmt"
	"slices"
	"strings"
	"unsafe"

	"fivm/internal/ring"
)

// Entry is one key-payload pair of a relation. Relations store entries by
// pointer, so a payload update in place does not reallocate or re-hash; the
// unexported key field caches the encoded tuple key for index maintenance
// and deletion without re-encoding, and hash caches the key's table hash so
// growth and index bucket membership never touch the key bytes again.
type Entry[P any] struct {
	key     string
	hash    uint64
	Tuple   Tuple
	Payload P
	// gen is the publish generation the entry was stored in: when it is older
	// than the relation's, the snapshots published since point at the entry —
	// key bytes, cells, payload storage — and the next in-place mutation
	// replaces the entry instead of writing into it (Relation.touchEntry). born
	// is the first snapshot that reads the entry; once it is removed or
	// replaced, gen is the last (park, replace). Both zero on relations never
	// snapshotted.
	gen, born uint64
}

// Key returns the entry's encoded tuple key. The bytes are the entry's own
// (ownership table below): unless the relation publishes snapshots they are
// overwritten when the entry is reused, so a key kept past the owner's
// reclaim point must be copied.
func (e *Entry[P]) Key() string { return e.key }

// keyCap is the key storage an entry holds for a key of n bytes: the length
// rounded up to the allocator's granularity, so an entry needs no capacity
// field and every key of a fixed-width schema fits the storage of any other.
func keyCap(n int) int { return (n + 7) &^ 7 }

// keyStore returns the key bytes e owns, capacity included (nil: none). Only
// valid on an entry of a non-scratch relation, whose keys setKey allocated.
func (e *Entry[P]) keyStore() []byte {
	if len(e.key) == 0 {
		return nil
	}
	return unsafe.Slice(unsafe.StringData(e.key), keyCap(len(e.key)))
}

// keyView reads a key string as bytes without copying; the result is never
// written through.
func keyView(key string) []byte { return unsafe.Slice(unsafe.StringData(key), len(key)) }

// keyString is keyView in reverse: a probe's key bytes read as a string,
// without copying, for the duration of the probe only.
func keyString(key []byte) string { return unsafe.String(unsafe.SliceData(key), len(key)) }

// Relation is a finite-support function from tuples over a schema to
// payloads in a ring D: the paper's relations R : Dom(S) -> D. Keys with
// payload 0 are not stored, so Len is the paper's |R|.
//
// Entries live in an open-addressing, group-probed hash table (see swiss.go)
// specialized for the pointer-entry layout: slots hold entry pointers only,
// keys and hashes are cached inside the entries.
//
// Mutating and probing methods share a per-relation scratch buffer for key
// encoding, so steady-state Get/Merge/Set do zero key allocations; as a
// consequence a Relation must not be accessed concurrently, even for reads
// through keyBuf-using methods (pure entry iteration — Iterate,
// IterateEntries, MergeAll's source side — does not touch the scratch and
// may be shared read-only across goroutines).
//
// Payloads are owned: deep-copied on first store (CopyInto) and mutated in
// place by later merges (AddInto, MulAddInto), so steady-state payload
// accumulation does zero allocations. Payloads read out of a relation are
// snapshots only until its next update.
//
// For concurrent readers, Snapshot publishes an immutable RelationSnapshot
// of the current contents at O(changed-since-last-snapshot) cost; it points
// at the relation's entries, which are never mutated once published, so
// pinned snapshots stay valid while the live relation keeps changing.
//
// Ownership. Storage has one owner and one reclaim point; a relation whose
// owner has none (nobody calls Reclaim or RecycleCleared) never reuses
// anything, stores the tuples it is handed and leaves removed entries to the
// collector.
//
//	                 entry struct          key bytes            tuple cells         payload storage
//	pooled           relation; parked on   the entry's own,     the entry's own:    relation; a reused entry
//	(Reclaim: every  removal, free after   like its cells: a    every insert        keeps it and the next
//	ivm view, the    the reclaim point,    reused entry keeps   copies the row in   insert overwrites it
//	base store at    with its key bytes,   them for the next    (ownTuple), a
//	each batch end)  cells and payload     key that fits        reused entry keeps
//	                                                            them (the arity is
//	                                                            fixed: they fit)
//	publishing       as pooled, but a      as pooled            as pooled           as pooled, but never written once
//	pooled (Snapshot removed entry is                                               published: the first touch after a
//	was called)      retired, whole, at                                             publish (merge, Set) copies the
//	                 the reclaim point,                                             entry — key, cells, payload — into
//	                 a replaced one at                                              a free one that takes its place,
//	                 once, and free only                                            and retires the old one whole,
//	                 after the last                                                 whatever the ring
//	                 Release of every
//	                 epoch that could
//	                 read it
//	scratch          relation; reusable    relation's slab,     relation's slab     as pooled: overwritten by
//	(RecycleCleared, after the next Clear  rewound by Clear     when the relation   the next batch's inserts
//	Clear per batch)                                            projected it, the
//	                                                            supplier's otherwise
//	volatile batch   —                     —                    the BatchArena's,   —
//	(BaseUpdate from                                            dead at its Rewind:
//	a BatchArena)                                               a pooled relation
//	                                                            copies as always, a
//	                                                            scratch relation
//	                                                            handed one reports
//	                                                            volatile
//
// Who may retain what: nobody retains an *Entry, or a key, a tuple or a
// payload read through one, past the owner's reclaim point (work
// items, index buckets and iterators all die with the batch); what must live
// longer is copied (Clone and MergeAll do) or read through
// a snapshot, which holds it until its last Release. An *Entry held across a
// merge into its own relation sees the old version once the merge replaced it
// (no work item does this: a delta plan merges into a view only after the step
// that probes it). Every insert copies its key into the entry (setKey), and a
// pooled relation its tuple too, so no such relation holds another's bytes.
// Nothing a scratch relation made survives its
// next Clear: consumers copy the payloads they keep, and the tuples too once
// the relation has projected one into its slab, or was handed one of a
// volatile batch, since its last Clear (the test is per relation, not per
// entry: VolatileTuples). A tuple a scratch or unpooled relation was handed is
// stored as given and stays the supplier's: never written again.
type Relation[P any] struct {
	schema  Schema
	ring    ring.Ring[P]
	entries entryTable[P]
	keyBuf  []byte
	rowBuf  Tuple // a projected row that an owning relation's insert copies (projApply)
	// keyHash is the hash of the key most recently encoded into keyBuf (or
	// looked up by string); insertEntry stores it into the fresh entry, so a
	// probe-then-insert pair hashes the key exactly once.
	keyHash uint64
	// The entry pool — the relation's one reuse mechanism (ownership table
	// above). pooled is set once the owner has a reclaim point; removed
	// entries then wait at the end of pool, parked, until it (Reclaim for
	// views, Clear for scratch relations) makes them pool[:free], which
	// takeEntry hands out again — or, in a publishing relation,
	// pool[free:ret], retired, until sweepRows finds no epoch that can read
	// them; an entry replaced (touchEntry) retires at once, pooled or not.
	// One list: reclaiming and sweeping move marks, not the entries.
	pooled    bool
	pool      []*Entry[P]
	free, ret int
	reclaimed uint64
	// keyBytes is the key storage the entries own — stored, parked or free —
	// outside the slab; freeKeyBytes the part of it free entries hold for the
	// next insert. Counted where storage is allocated or dropped, so
	// flatBytes and PoolStats never walk the entries.
	keyBytes, freeKeyBytes int
	// scratch marks a delta-scratch relation (RecycleCleared): Clear is its
	// reclaim point, and its encoded keys and the tuples it projects live in
	// keys and tuples, slabs Clear rewinds.
	scratch bool
	keys    slab[byte]
	tuples  slab[Value]
	// shareProjected lets projected merges store prefix subslices of the
	// source tuple instead of copies; see ShareProjectedTuples.
	shareProjected bool
	// handedVolatile marks a scratch relation handed a tuple of a volatile
	// batch since its last Clear (MarkVolatile). copied counts the rows whose
	// cells were bought new (ownTuple, keepTuple), rowsReused those written
	// into the cells of a reused entry, touchCopies the entries copied on a
	// first touch after a publish (touchEntry).
	handedVolatile                  bool
	copied, rowsReused, touchCopies uint64
	// snap, when non-nil, tracks the keys dirtied since the last published
	// snapshot; see Snapshot.
	snap *snapState[P]
}

// NewRelation creates an empty relation over the given ring and schema.
func NewRelation[P any](r ring.Ring[P], schema Schema) *Relation[P] {
	return &Relation[P]{schema: schema, ring: r}
}

// Schema returns the relation's schema.
func (r *Relation[P]) Schema() Schema { return r.schema }

// Ring returns the relation's payload ring.
func (r *Relation[P]) Ring() ring.Ring[P] { return r.ring }

// Len returns the number of keys with non-zero payloads.
func (r *Relation[P]) Len() int { return r.entries.len() }

// Reserve grows the entry table to hold at least n entries without
// rehashing, a capacity hint for bulk loads and delta materialization.
func (r *Relation[P]) Reserve(n int) {
	r.entries.reserve(n)
}

// Clear removes every entry, retaining the table's capacity. On a pooled
// relation the entries are parked like any other removal; on a scratch
// relation Clear is also the reclaim point: every parked entry becomes
// reusable and the key and tuple slabs rewind, so nothing read out of the
// relation — entry, key, mutable payload, projected tuple — may be used past
// this call.
func (r *Relation[P]) Clear() {
	if r.pooled {
		r.entries.all(func(e *Entry[P]) bool {
			r.park(e)
			return true
		})
	} else {
		r.keyBytes = 0
	}
	if r.snap != nil {
		// Wholesale invalidation: the next publish rebuilds from scratch.
		r.snap.fullDirty = true
		r.snap.dirtyKeys = r.snap.dirtyKeys[:0]
	}
	r.entries.clear()
	if r.scratch {
		r.handedVolatile = false
		r.reclaim()
		r.keys.rewind(0xFF)
		r.tuples.rewind(poisonTuple[0])
	}
}

// ShareProjectedTuples makes the projecting merges (MergeProjected,
// MergeMulProjected) store a subslice of the source tuple
// instead of a copy, until it is switched off again (a plan step decides per
// run, on a cleared relation). Every projector must then be a prefix
// projection (Projector.IsPrefix; SharedApply panics otherwise), and every
// source tuple must be durable — immutable and never reused — because
// consumers keep a shared tuple without copying it: a tuple of a caller's heap
// batch qualifies, a tuple of a BatchArena, of another scratch relation's slab
// or of a delta plan's join arena does not.
func (r *Relation[P]) ShareProjectedTuples(on bool) { r.shareProjected = on }

// projApply materializes the projection of t for storage: shared with t,
// copied into the relation's tuple slab (scratch), into its reused row buffer
// (a relation that owns its rows, whose insert copies it into the row's
// cells), or into a heap tuple.
func (r *Relation[P]) projApply(proj Projector, t Tuple) Tuple {
	switch {
	case r.shareProjected:
		return proj.SharedApply(t)
	case r.scratch:
		return proj.AppendTo(r.tuples.take(proj.Len())[:0], t)
	case r.ownsRows():
		r.rowBuf = proj.AppendTo(r.rowBuf[:0], t)
		return r.rowBuf
	}
	return proj.AppendTo(make(Tuple, 0, proj.Len()), t)
}

// RecycleCleared declares the relation delta scratch: a relation refilled
// per batch whose owner calls Clear before each refill (the scratch row of
// the ownership table). Clear then recycles entry structs, mutable payload
// storage, key bytes and the tuples the relation projected for itself, so a
// steady-state refill allocates nothing; the price is that consumers must
// copy what they keep past the next Clear — MergeAll, MergeAllIndexed, Clone
// and Negate do: keys and payloads always, tuples once the relation has
// projected one since its last Clear. Tuples it was handed are stored as
// given and never reused.
func (r *Relation[P]) RecycleCleared() { r.pooled, r.scratch = true, true }

// Reclaim is the reclaim point of a relation that lives across batches (a
// maintained view): its owner calls it when the batch that removed entries
// has finished and no work item, index bucket or iterator can still hold
// one. Every entry removed since the last call becomes reusable by later
// inserts. The first call declares the reclaim point — a relation nobody
// reclaims leaves its removed entries to the collector — and with it the
// ownership of the rows: the tuples stored so far, which may be shared with
// whoever handed them in, are copied into cells of the relation's own, so no
// reuse ever writes into a tuple the relation was handed. Declaring it before
// the first insert costs nothing; it must come before the first Snapshot,
// whose readers point at the entries it rewrites.
func (r *Relation[P]) Reclaim() {
	if !r.pooled {
		r.pooled = true
		r.tuples.maxChunk = 1 << 16 / valueBytes // rows come 64 KiB of cells at a time: the most a tail leaves unused
		r.entries.all(func(e *Entry[P]) bool {
			e.Tuple = r.ownTuple(nil, e.Tuple)
			return true
		})
	}
	r.reclaim()
}

// ownsRows reports whether r copies every tuple it stores into cells of its
// own (ownTuple): a pooled relation that is not scratch.
func (r *Relation[P]) ownsRows() bool { return r.pooled && !r.scratch }

// reclaim hands the parked entries back: free at once where no epoch can read
// them — a scratch relation's give up key and tuple, the slab's or the
// supplier's — and retired in a publishing relation until none does.
func (r *Relation[P]) reclaim() {
	for _, e := range r.pool[r.ret:] {
		if r.scratch {
			e.key, e.Tuple = "", nil
		}
	}
	r.reclaimed += uint64(len(r.pool) - r.ret)
	r.ret = len(r.pool)
	r.sweepRows()
}

// freeEntry makes e, at pool[free], free: it keeps its key bytes for the next
// insert to overwrite (setKey), its cells (ownTuple) and its payload storage
// (CopyInto/MulInto reuse destination capacity). Under the poison hook all of
// it is scribbled.
func (r *Relation[P]) freeEntry(e *Entry[P]) {
	r.freeKeyBytes += keyCap(len(e.key))
	if poison {
		poisonEntry(e, r.ownsRows())
	}
	r.free++
}

// park puts a removed entry at the end of the pool; in a publishing relation
// its gen becomes the last snapshot that can read it.
func (r *Relation[P]) park(e *Entry[P]) {
	if s := r.snap; s != nil {
		e.gen = s.gen - 1
	}
	r.pool = append(r.pool, e)
}

// removeEntry deletes an entry, records its key in the snapshot dirty list,
// and parks the struct for reuse after the owner's reclaim point. Until
// then its fields stay intact: index maintenance and work items of the
// running batch may still read them.
func (r *Relation[P]) removeEntry(e *Entry[P]) {
	r.entries.del(e)
	if s := r.snap; s != nil && e.gen != s.gen {
		s.dirtyKeys = append(s.dirtyKeys, e.key)
	}
	if r.pooled {
		r.park(e)
	} else if !r.scratch {
		r.keyBytes -= keyCap(len(e.key)) // the entry is the collector's now, key intact
	}
}

// setKey makes e own a copy of key. On a scratch relation the copy lives in
// the key slab until the next Clear; elsewhere in the entry's own storage —
// what a reclaimed entry kept from its last key when key fits it (always,
// for a fixed-width schema), a fresh allocation otherwise. No relation ever
// stores key bytes it was handed, so overwriting an entry's never reaches
// another relation.
func (r *Relation[P]) setKey(e *Entry[P], key []byte) {
	if r.scratch {
		e.key = internKey(&r.keys, key)
		return
	}
	buf := e.keyStore()
	if len(key) > len(buf) || len(key) == 0 {
		r.keyBytes += keyCap(len(key)) - len(buf)
		buf = make([]byte, keyCap(len(key)))
	}
	copy(buf, key)
	e.key = unsafe.String(unsafe.SliceData(buf), len(key))
}

// keepTuple returns a tuple a source entry carries in a form r may store:
// shared, unless the source relation is VolatileTuples, whose tuples die
// before r's do — or as it is to a pooled r, whose insert copies it anyway.
func (r *Relation[P]) keepTuple(t Tuple, volatile bool) Tuple {
	if !volatile || r.ownsRows() {
		return t
	}
	r.copied++
	if r.scratch {
		c := Tuple(r.tuples.take(len(t)))
		copy(c, t)
		return c
	}
	return t.Clone()
}

// VolatileTuples reports whether consumers must copy the tuples they keep: r
// is pooled, and overwrites a removed row's cells on reuse, or r is scratch
// and since its last Clear has put a tuple into its slab or was handed one of
// a volatile batch (MarkVolatile). The test is per relation — a durable tuple
// stored beside a volatile one is copied with it.
func (r *Relation[P]) VolatileTuples() bool {
	return r.ownsRows() || r.scratch && (r.handedVolatile || r.tuples.used())
}

// MarkVolatile declares that a tuple handed to scratch relation r since its
// last Clear dies with its batch (a BatchArena's, or another volatile
// relation's stored as given), so r reports VolatileTuples until then.
func (r *Relation[P]) MarkVolatile() { r.handedVolatile = true }

// ownTuple copies t into cells of the relation's own: dst, the cells a reused
// entry kept from its last row — a relation's arity is fixed, so they fit —
// or, while the pool is cold, fresh ones from the relation's tuple slab, which
// only a scratch relation ever rewinds.
func (r *Relation[P]) ownTuple(dst, t Tuple) Tuple {
	if dst == nil || cap(dst) < len(t) {
		dst = r.tuples.take(len(t))
		r.copied++
	} else {
		r.rowsReused++
	}
	dst = dst[:len(t)]
	copy(dst, t)
	return dst
}

// insertEntry stores a fresh entry under a copy of key (which must be absent
// and must be the key whose hash a lookup just left in keyHash) and t. The
// caller must set Payload (reused entries may hold stale payloads whose
// storage CopyInto/MulInto reuse).
func (r *Relation[P]) insertEntry(key []byte, t Tuple) *Entry[P] {
	e := r.takeEntry(key, r.keyHash, t)
	r.entries.insert(e)
	r.markInserted(e)
	return e
}

// takeEntry returns an entry holding a copy of key (hash h) and t — its own
// cells, in a relation that owns its rows — not yet stored: a free one, which
// keeps its struct, key storage, cells and payload storage, or a new one. A
// publishing relation first frees, once an epoch, the retired rows no
// unreleased snapshot reads (sweepRows).
func (r *Relation[P]) takeEntry(key []byte, h uint64, t Tuple) *Entry[P] {
	if s := r.snap; s != nil && s.swept != s.gen {
		s.swept = s.gen
		r.sweepRows()
	}
	var e *Entry[P]
	if r.free > 0 {
		// The last free entry leaves the list: a retired entry moves into its
		// slot and the last parked one into the retired entry's.
		r.free--
		r.ret--
		last := len(r.pool) - 1
		e, r.pool[r.free] = r.pool[r.free], r.pool[r.ret]
		r.pool[r.ret], r.pool[last] = r.pool[last], nil
		r.pool = r.pool[:last]
		r.freeKeyBytes -= len(e.keyStore())
	} else {
		e = new(Entry[P])
		if r.scratch { // bought with its place in the pool: Clear parks every entry and never grows the list
			r.pool = slices.Grow(r.pool, r.entries.len()+1)
		}
	}
	r.setKey(e, key)
	if r.ownsRows() {
		t = r.ownTuple(e.Tuple, t)
	}
	e.Tuple, e.hash = t, h
	return e
}

// retireEntry puts an entry that left the table at the end of the retired
// segment, pool[free:ret], for sweepRows to free.
func (r *Relation[P]) retireEntry(e *Entry[P]) {
	r.pool = append(r.pool, e)
	last := len(r.pool) - 1
	r.pool[r.ret], r.pool[last] = e, r.pool[r.ret]
	r.ret++
}

// lookup returns the entry stored under tuple t, encoding the key into the
// relation's scratch buffer and leaving its hash in keyHash (no allocation).
func (r *Relation[P]) lookup(t Tuple) *Entry[P] {
	r.keyBuf = t.AppendKey(r.keyBuf[:0])
	r.keyHash = hashBytes(r.keyBuf)
	return r.entries.getBytes(r.keyHash, r.keyBuf)
}

// lookupScratch probes for the key currently encoded in the scratch buffer,
// leaving its hash in keyHash.
func (r *Relation[P]) lookupScratch() *Entry[P] {
	r.keyHash = hashBytes(r.keyBuf)
	return r.entries.getBytes(r.keyHash, r.keyBuf)
}

// lookupString probes for an interned key string, leaving its hash in
// keyHash.
func (r *Relation[P]) lookupString(key string) *Entry[P] {
	r.keyHash = hashString(key)
	return r.entries.getString(r.keyHash, key)
}

// Get returns the payload of tuple t and whether it is non-zero.
func (r *Relation[P]) Get(t Tuple) (P, bool) {
	if e := r.lookup(t); e != nil {
		return e.Payload, true
	}
	var zero P
	return zero, false
}

// LookupProjected returns the entry stored under the projection of t by
// proj, or nil. Hot paths use it to reach payloads without copying them;
// the entry is owned by the relation and must not be mutated.
func (r *Relation[P]) LookupProjected(proj Projector, t Tuple) *Entry[P] {
	r.keyBuf = proj.AppendKey(r.keyBuf[:0], t)
	return r.lookupScratch()
}

// Set assigns payload p to tuple t, deleting the key if p is zero.
func (r *Relation[P]) Set(t Tuple, p P) { r.setEntry(t, p) }

// setEntry is Set, reporting the entries stored under t before and after like
// mergeEntry.
func (r *Relation[P]) setEntry(t Tuple, p P) (old, en *Entry[P]) {
	e := r.lookup(t)
	switch {
	case r.ring.IsZero(p):
		if e != nil {
			r.removeEntry(e)
		}
		return e, nil
	case e == nil:
		// lookup left t's encoding in the scratch buffer
		en = r.insertEntry(r.keyBuf, t)
		r.ring.CopyInto(&en.Payload, p) // into the entry's (possibly reclaimed) storage
		return nil, en
	}
	if en = r.touchEntry(e, p); en == e {
		r.ring.CopyInto(&e.Payload, p) // the entry's own storage, or none outside it
	}
	return e, r.settle(e, en)
}

// addInto accumulates p into stored entry e in place and removes e when the
// sum vanishes. It returns the entry stored under e's key after: e, the copy
// that replaced it (touchEntry), or nil. Every sum merged onto an existing key
// ends here, every product in mulAddInto; an entry-resident source is passed
// as src.Payload (a header copy: see ring.Mutable).
func (r *Relation[P]) addInto(e *Entry[P], p P) *Entry[P] {
	en := r.touchEntry(e, e.Payload)
	r.ring.AddInto(&en.Payload, p)
	return r.settle(e, en)
}

// mulAddInto accumulates (*a)*(*b) into stored entry e, removing it when the
// sum vanishes.
func (r *Relation[P]) mulAddInto(e *Entry[P], a, b *P) {
	en := r.touchEntry(e, e.Payload)
	r.ring.MulAddInto(&en.Payload, a, b)
	r.settle(e, en)
}

// settle ends an in-place mutation of stored entry e written into en
// (touchEntry) and returns the entry stored under e's key after. A zero
// payload removes e, like any deletion, and en, a copy never stored, goes
// straight back to the free list; otherwise a copy takes e's place (replace).
func (r *Relation[P]) settle(e, en *Entry[P]) *Entry[P] {
	if r.ring.IsZero(en.Payload) {
		if en != e { // freed where sweepRows frees: moved from retired to pool[free]
			r.retireEntry(en)
			r.pool[r.free], r.pool[r.ret-1] = en, r.pool[r.free]
			r.freeEntry(en)
		}
		r.removeEntry(e)
		return nil
	}
	if en != e {
		r.replace(e, en)
	}
	return en
}

// insertMul stores (*a)*(*b) under the key encoded in the scratch buffer,
// computing the product directly into the entry's storage; a zero product is
// removed again (and parked like any removal).
func (r *Relation[P]) insertMul(t Tuple, a, b *P) {
	e := r.insertEntry(r.keyBuf, t)
	r.ring.MulInto(&e.Payload, a, b)
	if r.ring.IsZero(e.Payload) {
		r.removeEntry(e)
	}
}

// mergeEntry adds p to the payload of tuple t and reports the entry stored
// under t before and after (nil: none), so index maintenance can follow
// appearance, disappearance and replacement (IndexedRelation.reindex).
func (r *Relation[P]) mergeEntry(t Tuple, p P) (old, en *Entry[P]) {
	if e := r.lookup(t); e != nil {
		return e, r.addInto(e, p)
	}
	if r.ring.IsZero(p) {
		return nil, nil
	}
	en = r.insertEntry(r.keyBuf, t) // lookup left t's encoding in the scratch buffer
	r.ring.CopyInto(&en.Payload, p)
	return nil, en
}

// Merge adds p to the payload of tuple t (the pointwise union operator ⊎
// applied to a single key), deleting the key if the sum vanishes. It returns
// the new payload.
func (r *Relation[P]) Merge(t Tuple, p P) P {
	old, en := r.mergeEntry(t, p)
	if en != nil {
		return en.Payload
	}
	var zero P
	if old != nil {
		return zero // cancelled to zero
	}
	return p // zero merge into absent key
}

// MergeProjected merges payload p under the projection of t by proj (which
// must target r's schema). The projected tuple is materialized only when a
// new entry is inserted, so steady-state projected merges do zero
// allocations.
func (r *Relation[P]) MergeProjected(proj Projector, t Tuple, p P) {
	r.keyBuf = proj.AppendKey(r.keyBuf[:0], t)
	if e := r.lookupScratch(); e != nil {
		r.addInto(e, p)
	} else if !r.ring.IsZero(p) {
		r.ring.CopyInto(&r.insertEntry(r.keyBuf, r.projApply(proj, t)).Payload, p)
	}
}

// MergeMul merges the product (*a)*(*b) under tuple t, computed directly
// into the stored payload (zero allocations for existing keys). The operands
// are only read.
func (r *Relation[P]) MergeMul(t Tuple, a, b *P) {
	if e := r.lookup(t); e != nil {
		r.mulAddInto(e, a, b)
	} else {
		r.insertMul(t, a, b)
	}
}

// MergeMulProjected merges the product (*a)*(*b) under the projection of t
// by proj: out[π(t)] += a*b, the innermost operation of delta propagation.
// The product lands directly in the stored payload, so merges onto existing
// keys do zero allocations. The operands are only read.
func (r *Relation[P]) MergeMulProjected(proj Projector, t Tuple, a, b *P) {
	r.keyBuf = proj.AppendKey(r.keyBuf[:0], t)
	if e := r.lookupScratch(); e != nil {
		r.mulAddInto(e, a, b)
	} else {
		r.insertMul(r.projApply(proj, t), a, b)
	}
}

// mergeKeyed is Merge for a caller-encoded key and its hash: key must be t's
// encoding (Tuple.AppendKey) and h its hashBytes. Whoever encodes a tuple
// once for several relations — the base store for itself and its observers
// — merges into each of them this way. The
// key bytes are copied on insert; t is stored as given, or copied when it may
// die before r's entry does (volTuple: keepTuple).
func (r *Relation[P]) mergeKeyed(key []byte, h uint64, t Tuple, volTuple bool, p P) {
	r.keyHash = h
	if e := r.entries.getBytes(h, key); e != nil {
		r.addInto(e, p)
	} else if !r.ring.IsZero(p) {
		r.ring.CopyInto(&r.insertEntry(key, r.keepTuple(t, volTuple)).Payload, p)
	}
}

// mergeFrom merges a source entry — another relation's, same schema — by
// the key and hash it already carries (no re-encoding, no re-hashing) and
// reports the entries before and after like mergeEntry. On insert the key is
// copied like any other and the tuple shared with the source, or copied when
// it may be the source's own (volTuple: see VolatileTuples).
func (r *Relation[P]) mergeFrom(src *Entry[P], volTuple bool) (old, en *Entry[P]) {
	r.keyHash = src.hash
	if e := r.entries.getString(src.hash, src.key); e != nil {
		return e, r.addInto(e, src.Payload)
	}
	if r.ring.IsZero(src.Payload) {
		return nil, nil
	}
	en = r.insertEntry(keyView(src.key), r.keepTuple(src.Tuple, volTuple))
	r.ring.CopyInto(&en.Payload, src.Payload)
	return nil, en
}

// MergeAll merges every entry of o into r: r := r ⊎ o. The relations must
// share a schema (same variables in the same order).
func (r *Relation[P]) MergeAll(o *Relation[P]) {
	volTuple := o.VolatileTuples()
	o.entries.all(func(e *Entry[P]) bool {
		r.mergeFrom(e, volTuple)
		return true
	})
}

// Iterate calls f for each entry until f returns false. Iteration order is
// unspecified.
func (r *Relation[P]) Iterate(f func(t Tuple, p P) bool) {
	r.entries.all(func(e *Entry[P]) bool {
		return f(e.Tuple, e.Payload)
	})
}

// IterateEntries calls f for each stored entry until f returns false. The
// entries are owned by the relation and must not be mutated.
func (r *Relation[P]) IterateEntries(f func(e *Entry[P]) bool) {
	r.entries.all(f)
}

// Entries returns copies of the entries in unspecified order.
func (r *Relation[P]) Entries() []Entry[P] {
	out := make([]Entry[P], 0, r.entries.len())
	r.entries.all(func(e *Entry[P]) bool {
		out = append(out, *e)
		return true
	})
	return out
}

// SortedEntries returns the entries ordered by encoded key, for
// deterministic output in tests and tools.
func (r *Relation[P]) SortedEntries() []Entry[P] {
	out := r.Entries()
	slices.SortFunc(out, func(a, b Entry[P]) int { return byKey(&a, &b) })
	return out
}

// Clone returns a copy sharing tuples (copies, where r is VolatileTuples:
// keepTuple) but no key bytes, entry or table structure. Payloads are
// deep-copied, so later merges into either relation never bleed into the
// other.
func (r *Relation[P]) Clone() *Relation[P] {
	return r.cloneWith(func(dst, src *Entry[P]) { r.ring.CopyInto(&dst.Payload, src.Payload) })
}

// Negate returns a relation mapping every key of r to the additive inverse
// of its payload. A deletion of the tuples of r is expressed as merging
// r.Negate().
func (r *Relation[P]) Negate() *Relation[P] {
	return r.cloneWith(func(dst, src *Entry[P]) { dst.Payload = r.ring.Neg(src.Payload) })
}

// cloneWith copies r entry by entry — own key bytes, cached hash, kept tuple
// — leaving the payload to set.
func (r *Relation[P]) cloneWith(set func(dst, src *Entry[P])) *Relation[P] {
	out := &Relation[P]{schema: r.schema, ring: r.ring}
	out.entries.reserve(r.entries.len())
	volTuple := r.VolatileTuples()
	r.entries.all(func(e *Entry[P]) bool {
		c := &Entry[P]{hash: e.hash, Tuple: out.keepTuple(e.Tuple, volTuple)}
		out.setKey(c, keyView(e.key))
		set(c, e)
		out.entries.insert(c)
		return true
	})
	return out
}

// PoolStats is a relation's retained-but-free storage: Free entries parked,
// retired or reusable, Reclaimed entries ever handed back for reuse,
// RowsRetired the removed or replaced entries that wait for an epoch to be
// released (a reader that pins shows as this climbing), KeyBytes kept for the
// next keys (a scratch relation's key slab, by capacity, or the key storage
// free entries of a pooled relation hold), TupleBytes of the tuple slab
// (capacity), SlabChunks the chunks the two slabs hold, and the snapshot arena
// once the relation publishes. TuplesCopied counts the rows whose cells were
// bought new so far (0 a cycle once a pool is warm), RowsReused those written
// into cells a reused entry kept, by an insert or a copy: TouchCopies counts
// the entries a first touch after a publish copied (touchEntry), to replace
// the entry or, where the touch cancelled it, to give straight back.
// TableBytes is the bucket storage of an IndexedRelation's indexes, in buckets
// or in stock (tableStock): what MemoryBytes does not charge. Bytes and chunks
// stop moving after a workload's first full cycle.
type PoolStats struct {
	Free         int
	Reclaimed    uint64
	RowsRetired  int
	RowsReused   uint64
	KeyBytes     int
	TupleBytes   int
	SlabChunks   int
	TableBytes   int
	TuplesCopied uint64
	TouchCopies  uint64
	Arena        ArenaStats
}

// AddSlabs accumulates the slabs of o, a scratch relation's stats, into s:
// its entries are refilled per batch and are not pool.
func (s *PoolStats) AddSlabs(o PoolStats) {
	s.KeyBytes += o.KeyBytes
	s.TupleBytes += o.TupleBytes
	s.SlabChunks += o.SlabChunks
}

// Add accumulates o into s.
func (s *PoolStats) Add(o PoolStats) {
	s.Free += o.Free
	s.Reclaimed += o.Reclaimed
	s.RowsRetired += o.RowsRetired
	s.RowsReused += o.RowsReused
	s.TuplesCopied += o.TuplesCopied
	s.TouchCopies += o.TouchCopies
	s.TableBytes += o.TableBytes
	s.AddSlabs(o)
	s.Arena.ChunksLive += o.Arena.ChunksLive
	s.Arena.ChunksFree += o.Arena.ChunksFree
	s.Arena.ChunksRetired += o.Arena.ChunksRetired
	s.Arena.GenerationsOpen += o.Arena.GenerationsOpen
	s.Arena.BackstopReclaims += o.Arena.BackstopReclaims
	s.Arena.Headers.Reused += o.Arena.Headers.Reused
	s.Arena.Headers.Allocated += o.Arena.Headers.Allocated
}

// PoolStats reports the relation's pool, slabs and snapshot arena, after
// freeing the retired rows released epochs gave back (writer goroutine).
func (r *Relation[P]) PoolStats() PoolStats {
	r.sweepRows()
	return PoolStats{Free: len(r.pool), Reclaimed: r.reclaimed, RowsRetired: r.ret - r.free, RowsReused: r.rowsReused,
		KeyBytes: r.keys.bytes() + r.freeKeyBytes, TupleBytes: r.tuples.bytes(), TuplesCopied: r.copied, TouchCopies: r.touchCopies,
		SlabChunks: len(r.keys.chunks) + len(r.tuples.chunks), Arena: r.arenaStats()}
}

// valueBytes is the size of one tuple column.
const valueBytes = int(unsafe.Sizeof(Value{}))

// MemoryBytes estimates the heap bytes the relation holds: flatBytes plus
// the payload storage outside the entries (the ring's Bytes), which it walks
// every entry — stored, parked, retired or free — to sum. Tuples shared with
// another relation are charged to each holder; secondary indexes are not
// charged here but reported: PoolStats.TableBytes of the IndexedRelation.
func (r *Relation[P]) MemoryBytes() int {
	total := r.flatBytes()
	charge := func(e *Entry[P]) bool {
		total += r.ring.Bytes(e.Payload) - int(unsafe.Sizeof(e.Payload))
		return true
	}
	r.entries.all(charge)
	for _, e := range r.pool {
		charge(e)
	}
	return total
}

// flatBytes is MemoryBytes without the walk, from counters alone: table
// slots, pool lists, every entry struct with its inline payload header, the
// key storage the entries own (keyBytes) or the key slab, and the tuples —
// the tuple slab's capacity once the relation has taken cells from it (a
// scratch relation's projections, the rows a pooled relation owns, free and
// retired entries' included), a schema-wide tuple per stored entry otherwise. It is
// the whole figure for a ring whose payloads hold nothing outside the entry
// (the base store's).
func (r *Relation[P]) flatBytes() int {
	total := int(unsafe.Sizeof(*r)) + 8*(len(r.entries.ctrl)+len(r.entries.slots)+cap(r.pool)) +
		(r.entries.len()+len(r.pool))*int(unsafe.Sizeof(Entry[P]{})) + r.keyBytes + r.keys.bytes() + r.tuples.bytes()
	if !r.tuples.used() {
		total += r.entries.len() * len(r.schema) * valueBytes
	}
	return total
}

// Equal reports whether two relations have the same schema variables and
// identical key support, comparing payloads with eq.
func (r *Relation[P]) Equal(o *Relation[P], eq func(a, b P) bool) bool {
	if !r.schema.SameSet(o.schema) || r.entries.len() != o.entries.len() {
		return false
	}
	proj := MustProjector(o.schema, r.schema)
	var buf []byte
	equal := true
	o.entries.all(func(e *Entry[P]) bool {
		buf = proj.AppendKey(buf[:0], e.Tuple)
		p := r.entries.getBytes(hashBytes(buf), buf)
		if p == nil || !eq(p.Payload, e.Payload) {
			equal = false
			return false
		}
		return true
	})
	return equal
}

// String renders the relation's sorted contents for debugging.
func (r *Relation[P]) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v{", r.schema)
	for i, e := range r.SortedEntries() {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%v->%v", e.Tuple, e.Payload)
	}
	b.WriteString("}")
	return b.String()
}
