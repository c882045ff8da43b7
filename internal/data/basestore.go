package data

import (
	"cmp"
	"fmt"
	"iter"
	"slices"
	"unsafe"

	"fivm/internal/ring"
)

// BaseUpdate is one relation's slice of a base-store batch: tuples applied
// with a signed multiplicity (negative = deletions). The store and the ivm
// views behind it copy the tuples of the rows they keep; an observer that is
// no pooled relation may share them, so a caller must not mutate them (or
// reuse their backing arrays) afterwards — unless the update was built in a
// BatchArena, whose tuples every consumer copies and which may be rewound
// once the batch is applied.
type BaseUpdate struct {
	Rel    string
	Tuples []Tuple
	// Mult is the signed multiplicity applied per tuple (never 0 inside the
	// store; callers' 0 defaults to +1 before reaching it).
	Mult int64

	// keyed and first are set by BaseStore.ApplyBatch: the batch's encoded
	// keys and hashes, and where this update's tuples start in them. Observers
	// merge by them (MergeUpdate) instead of encoding every tuple again.
	keyed *batchKeys
	first int
	// arena, set by BatchArena.Update, marks the tuples as dying with the
	// batch: the arena they, Tuples and the batch slice itself live in.
	arena *BatchArena
}

// batchKeys holds what ApplyBatch computes once per tuple: the encoded key
// (bytes up to ends[i]) and its table hash, numbered across the whole batch.
// Store-owned scratch, overwritten by the next batch.
type batchKeys struct {
	bytes  []byte
	ends   []int
	hashes []uint64
}

func (k *batchKeys) key(i int) []byte {
	start := 0
	if i > 0 {
		start = k.ends[i-1]
	}
	return k.bytes[start:k.ends[i]]
}

// BaseObserver receives, once per applied batch, the batch's updates
// restricted to the relations the observer registered for. Updates are
// shared and read-only; observers must not retain the slice, or the keys the
// updates carry, beyond the call. A tuple they keep stays the caller's,
// immutable — the store shares none — unless the batch is volatile (built in
// a BatchArena): MergeUpdate then marks its destination, whose consumers copy.
type BaseObserver func(batch []BaseUpdate) error

// BaseStore is the shared base-relation store: the canonical multiplicity
// contents (the Z-ring multiset) of every registered base relation,
// advanced exactly once per applied batch, with attach/detach hooks through
// which any number of downstream consumers — the maintained views — observe
// each batch.
//
// This inverts the pre-DB data ownership: instead of every maintainer
// privately ingesting and copying the same update stream, the store ingests
// it once and fans it out. The stored contents are what late-registered
// consumers backfill from and what checkpoints serialize.
//
// Each relation is a pooled Relation[int64] merged in place: ApplyBatch
// encodes and hashes every tuple's key once, inserts, bumps or cancels the
// row under it, and reclaims the cancelled entries at the end of the batch
// (the pooled row of Relation's ownership table). Memory therefore
// follows the state: an inserted tuple is copied into its row's own cells and
// the caller's is held by nobody, a deleted one is only a probe key, and a
// cancelled row's entry, key bytes and tuple cells serve the next insert. The keys and
// hashes travel with the batch to the observers, so the ingest path still
// encodes each tuple exactly once however many views consume it.
//
// A BaseStore is single-writer: ApplyBatch, Base, and the lifecycle methods
// must come from one goroutine at a time (the maintenance goroutine).
// Observers run synchronously on that goroutine, in attach order.
type BaseStore struct {
	rels  map[string]*Relation[int64]
	names []string // registration order

	obs []baseObserver

	// Scratch reused across calls: the batch's keys and hashes, and
	// per-observer filtered views of the batch.
	keyed      batchKeys
	obsScratch []BaseUpdate
	pending    map[string]*Relation[int64] // Check's running counts per relation
}

type baseObserver struct {
	id   string
	rels map[string]bool // nil means every relation
	fn   BaseObserver
}

// NewBaseStore creates an empty store; relations are added with Register.
func NewBaseStore() *BaseStore {
	return &BaseStore{rels: make(map[string]*Relation[int64]), pending: make(map[string]*Relation[int64])}
}

// Register adds a base relation with its schema. Registering the same name
// twice is an error (schemas are canonical).
func (s *BaseStore) Register(rel string, schema Schema) error {
	if _, ok := s.rels[rel]; ok {
		return fmt.Errorf("data: base relation %q already registered", rel)
	}
	r := NewRelation[int64](ring.Int{}, schema)
	r.Reclaim() // pooled before its first row: every row it holds is its own
	s.rels[rel] = r
	s.names = append(s.names, rel)
	return nil
}

// Relations returns the registered relation names in registration order.
func (s *BaseStore) Relations() []string { return s.names }

// Schema returns the canonical schema of a registered relation.
func (s *BaseStore) Schema(rel string) (Schema, bool) {
	r, ok := s.rels[rel]
	if !ok {
		return nil, false
	}
	return r.Schema(), true
}

// Base returns the multiplicity relation of a registered base relation (nil
// for unknown names). It is owned by the store: callers may read it until the
// next ApplyBatch — which reuses the entries, key bytes and tuple cells
// included, of the rows it cancels — and must never mutate it.
func (s *BaseStore) Base(rel string) *Relation[int64] { return s.rels[rel] }

// Restore fills a registered, still empty relation with exactly n
// checkpoint rows and their multiplicities — the recovery path. It encodes
// and hashes each row's key into store scratch, so rows may yield one reused
// tuple, and buys the entries and key bytes in bulk and the cells from the
// relation's tuple slab: nothing per row but the string of a string cell. A
// schema unlike the registered one, a row of another arity, a key seen
// twice, a zero multiplicity or a count other than n is refused, and the
// store, then partly restored, must be discarded.
func (s *BaseStore) Restore(rel string, schema Schema, n int, rows iter.Seq2[Tuple, int64]) error {
	r, ok := s.rels[rel]
	switch {
	case !ok:
		return fmt.Errorf("data: base relation %q not registered", rel)
	case !r.schema.Equal(schema):
		return fmt.Errorf("data: restore %q: schema %v does not match registered %v", rel, schema, r.schema)
	case r.Len() != 0:
		return fmt.Errorf("data: restore %q: the relation already holds %d rows", rel, r.Len())
	}
	r.Reserve(n)
	es, keys, k := make([]Entry[int64], n), []byte(nil), &s.keyed
	for row, m := range rows {
		k.bytes = row.AppendKey(k.bytes[:0])
		h, kc := hashBytes(k.bytes), keyCap(len(k.bytes))
		switch {
		case len(es) == 0 || len(row) != len(schema) || m == 0:
			return fmt.Errorf("data: restore %q: row %v, multiplicity %d: not one of %d rows of %v", rel, row, m, n, schema)
		case r.entries.getBytes(h, k.bytes) != nil:
			return fmt.Errorf("data: restore %q: row %v twice", rel, row)
		case len(keys) < kc: // a chunk for the rows left, at this row's key size
			keys = make([]byte, max(kc, min(len(es)*kc, 1<<20)))
		}
		e := &es[0]
		copy(keys, k.bytes)
		e.key, e.Tuple, e.hash, e.Payload = unsafe.String(unsafe.SliceData(keys), len(k.bytes)), r.ownTuple(nil, row), h, m
		r.entries.insert(e)
		es, keys, r.keyBytes = es[1:], keys[kc:], r.keyBytes+kc
	}
	if len(es) != 0 {
		return fmt.Errorf("data: restore %q: %d rows announced, %d read", rel, n, n-len(es))
	}
	return nil
}

// Attach registers an observer under an id for the given relations (nil or
// empty rels means all). Observers run synchronously per applied batch in
// attach order; detach by id. Attaching an id twice replaces the previous
// registration in place.
func (s *BaseStore) Attach(id string, rels []string, fn BaseObserver) {
	var set map[string]bool
	if len(rels) > 0 {
		set = make(map[string]bool, len(rels))
		for _, r := range rels {
			set[r] = true
		}
	}
	for i := range s.obs {
		if s.obs[i].id == id {
			s.obs[i] = baseObserver{id: id, rels: set, fn: fn}
			return
		}
	}
	s.obs = append(s.obs, baseObserver{id: id, rels: set, fn: fn})
}

// Detach removes the observer registered under id (a no-op for unknown ids).
func (s *BaseStore) Detach(id string) {
	for i := range s.obs {
		if s.obs[i].id == id {
			s.obs = append(s.obs[:i], s.obs[i+1:]...)
			return
		}
	}
}

// Check refuses a batch that would leave a stored row at a negative
// multiplicity, counting the store and the batch's own earlier updates, with
// an error naming the relation and the row; it changes nothing. A batch with
// no negative Mult passes unread. The running counts are store-owned scratch
// relations, so a warm check allocates nothing.
func (s *BaseStore) Check(batch []BaseUpdate) error {
	if !slices.ContainsFunc(batch, func(u BaseUpdate) bool { return u.Mult < 0 }) {
		return nil
	}
	defer func() {
		for _, p := range s.pending {
			p.Clear()
		}
	}()
	k := &s.keyed
	for _, u := range batch {
		r, p := s.rels[u.Rel], s.pending[u.Rel]
		if r == nil {
			continue // ApplyBatch refuses it
		} else if p == nil {
			p = NewRelation[int64](ring.Int{}, r.schema)
			p.RecycleCleared()
			s.pending[u.Rel] = p
		}
		mult := cmp.Or(u.Mult, 1)
		for _, t := range u.Tuples {
			k.bytes = t.AppendKey(k.bytes[:0])
			h, n := hashBytes(k.bytes), int64(0)
			p.mergeKeyed(k.bytes, h, t, false, mult)
			if e := r.entries.getBytes(h, k.bytes); e != nil {
				n = e.Payload
			}
			if e := p.entries.getBytes(h, k.bytes); e != nil {
				n += e.Payload
			}
			if n < 0 {
				return fmt.Errorf("data: %q row %v: a delete would leave it at multiplicity %d", u.Rel, t, n)
			}
		}
	}
	return nil
}

// ApplyBatch advances the store by one batch of per-relation updates — each
// tuple merged in place into its relation under a key encoded and hashed
// once — and fans the batch, keys included, out to every attached observer.
// Zero multiplicities default to +1; unknown relations and arity mismatches
// are errors, detected before any state changes. The batch slice itself may
// be reused by the caller after the call, and so may its tuples as far as
// the store is concerned: it copies the rows the batch leaves live.
//
// Observer errors abort the fan-out and are returned; the store itself has
// already advanced, so the caller must treat the batch as torn and discard
// or rebuild the failed consumer.
func (s *BaseStore) ApplyBatch(batch []BaseUpdate) error {
	for i := range batch {
		u := &batch[i]
		sch, ok := s.Schema(u.Rel)
		if !ok {
			return fmt.Errorf("data: base relation %q not registered", u.Rel)
		}
		for _, t := range u.Tuples {
			if len(t) != len(sch) {
				return fmt.Errorf("data: %q tuple %v does not match schema %v", u.Rel, t, sch)
			}
		}
		if u.Mult == 0 {
			u.Mult = 1
		}
	}
	k := &s.keyed
	k.bytes, k.ends, k.hashes = k.bytes[:0], k.ends[:0], k.hashes[:0]
	for i := range batch {
		u := &batch[i]
		u.keyed, u.first = k, len(k.ends)
		m := s.rels[u.Rel]
		for _, t := range u.Tuples {
			start := len(k.bytes)
			k.bytes = t.AppendKey(k.bytes)
			h := hashBytes(k.bytes[start:])
			k.ends, k.hashes = append(k.ends, len(k.bytes)), append(k.hashes, h)
			m.mergeKeyed(k.bytes[start:], h, t, false, u.Mult) // insertEntry copies t (ownTuple)
		}
		// Nothing outside this loop held an entry: the rows the update
		// cancelled are reusable from here on.
		m.Reclaim()
	}
	for _, o := range s.obs {
		sub := batch
		if o.rels != nil {
			sub = s.obsScratch[:0]
			for _, u := range batch {
				if o.rels[u.Rel] && len(u.Tuples) > 0 {
					sub = append(sub, u)
				}
			}
			s.obsScratch = sub[:0]
		}
		if len(sub) == 0 {
			continue
		}
		if err := o.fn(sub); err != nil {
			return fmt.Errorf("data: base-store observer %q: %w", o.id, err)
		}
	}
	return nil
}

// MergeUpdate merges every tuple of u — an update as a BaseObserver receives
// it — into dst with payload p, under the key and hash the store computed:
// no re-encoding, no re-hashing. dst must have the base relation's schema; it
// stores the tuples as given, and when they are a BatchArena's it is marked
// (MarkVolatile: dst is then the per-batch scratch its consumers copy from).
func MergeUpdate[P any](dst *Relation[P], u BaseUpdate, p P) {
	if u.arena != nil {
		dst.MarkVolatile()
	}
	for i, t := range u.Tuples {
		dst.mergeKeyed(u.keyed.key(u.first+i), u.keyed.hashes[u.first+i], t, false, p)
	}
}

// Rows returns rel's rows in encoded-key order — the deterministic order a
// checkpoint is written in — as a sequence over the live entries: no row is
// copied and nothing is allocated. Ranging over it packs the entry table's
// pointers at the front of its own slots and sorts them there; when the
// range ends, however it ends, every entry is seated again by its cached
// hash. Until then the relation answers no lookup, so the range must finish
// before the next ApplyBatch, Base read or Rows call; the row count up front
// is Base(rel).Len().
func (s *BaseStore) Rows(rel string) iter.Seq2[Tuple, int64] {
	return func(yield func(Tuple, int64) bool) {
		t := &s.rels[rel].entries
		es := t.pack()
		defer t.unpack(len(es))
		slices.SortFunc(es, byKey[int64])
		for _, e := range es {
			if !yield(e.Tuple, e.Payload) {
				return
			}
		}
	}
}

// BaseStats is one base relation's storage, from counters alone: live rows,
// the bytes they and the pool hold (exact for int64 multiplicities), entries
// free for the next insert or ever reclaimed, the key bytes the free entries
// keep for the next keys, and — as a product, FreeTupleBytes — the tuple cells
// they keep for the next rows.
type BaseStats struct {
	Tuples       int    `json:"tuples"`
	MemoryBytes  int    `json:"memory_bytes"`
	PoolFree     int    `json:"pool_free"`
	Reclaimed    uint64 `json:"reclaimed"`
	FreeKeyBytes int    `json:"recycled_key_bytes"`
}

// FreeTupleBytes is the tuple storage the free entries of a relation of the
// given arity keep for the next rows (recycled_tuple_bytes in GET /stats):
// every pooled entry of the store held a row once and kept its cells.
func (b BaseStats) FreeTupleBytes(arity int) int { return b.PoolFree * arity * valueBytes }

// Stats reports a registered relation's storage; O(1).
func (s *BaseStore) Stats(rel string) BaseStats {
	r := s.rels[rel]
	ps := r.PoolStats()
	return BaseStats{Tuples: r.Len(), MemoryBytes: r.flatBytes(),
		PoolFree: ps.Free, Reclaimed: ps.Reclaimed, FreeKeyBytes: ps.KeyBytes}
}

// MemoryBytes estimates the bytes held by the stored base relations and the
// store's per-batch scratch; O(relations).
func (s *BaseStore) MemoryBytes() int {
	total := cap(s.keyed.bytes) + 8*(cap(s.keyed.ends)+cap(s.keyed.hashes)) +
		cap(s.obsScratch)*int(unsafe.Sizeof(BaseUpdate{}))
	for _, r := range s.rels {
		total += r.flatBytes()
	}
	return total
}
