package data

import (
	"fmt"

	"fivm/internal/ring"
)

// BaseUpdate is one relation's slice of a base-store batch: tuples applied
// with a signed multiplicity (negative = deletions). Tuple storage is shared
// with the caller and must not be mutated afterwards.
type BaseUpdate struct {
	Rel    string
	Tuples []Tuple
	// Mult is the signed multiplicity applied per tuple (never 0 inside the
	// store; callers' 0 defaults to +1 before reaching it).
	Mult int64
}

// BaseObserver receives, once per applied batch, the batch's updates
// restricted to the relations the observer registered for. Updates are
// shared and read-only; observers must not retain the slice beyond the call
// (the tuples themselves stay alive in the store's log).
type BaseObserver func(batch []BaseUpdate) error

// BaseStore is the shared base-relation store: the canonical multiplicity
// contents (the Z-ring multiset) of every registered base relation,
// advanced exactly once per applied batch, with attach/detach hooks through
// which any number of downstream consumers — maintained views, statistics
// collectors — observe each batch.
//
// This inverts the pre-DB data ownership: instead of every maintainer
// privately ingesting and copying the same update stream, the store ingests
// it once and fans it out. The stored contents are what late-registered
// consumers backfill from.
//
// Internally each relation is a lazily compacted update log: ApplyBatch
// appends the batch's tuple slices (shared, no copying or re-encoding) and
// the merged multiset is materialized only when someone asks for it (Base,
// typically a view backfill). The hot ingest path therefore does no
// per-tuple work at all — the coalescing cost is deferred to the rare
// reader that needs the merged view, and paid once.
//
// A BaseStore is single-writer: ApplyBatch, Base, and the lifecycle methods
// must come from one goroutine at a time (the maintenance goroutine).
// Observers run synchronously on that goroutine, in attach order.
type BaseStore struct {
	schemas map[string]Schema
	merged  map[string]*Relation[int64]
	pending map[string][]BaseUpdate
	names   []string // registration order

	obs []baseObserver

	// obsScratch is reused across ApplyBatch calls for per-observer
	// filtered views of the batch.
	obsScratch []BaseUpdate
}

type baseObserver struct {
	id   string
	rels map[string]bool // nil means every relation
	fn   BaseObserver
}

// NewBaseStore creates an empty store; relations are added with Register.
func NewBaseStore() *BaseStore {
	return &BaseStore{
		schemas: make(map[string]Schema),
		merged:  make(map[string]*Relation[int64]),
		pending: make(map[string][]BaseUpdate),
	}
}

// Register adds a base relation with its schema. Registering the same name
// twice is an error (schemas are canonical).
func (s *BaseStore) Register(rel string, schema Schema) error {
	if _, ok := s.schemas[rel]; ok {
		return fmt.Errorf("data: base relation %q already registered", rel)
	}
	s.schemas[rel] = schema
	s.merged[rel] = NewRelation[int64](ring.Int{}, schema)
	s.names = append(s.names, rel)
	return nil
}

// Relations returns the registered relation names in registration order.
func (s *BaseStore) Relations() []string { return s.names }

// Schema returns the canonical schema of a registered relation.
func (s *BaseStore) Schema(rel string) (Schema, bool) {
	sch, ok := s.schemas[rel]
	return sch, ok
}

// Base returns the merged multiplicity relation of a registered base
// relation (nil for unknown names), compacting the relation's pending
// update log first. It is owned by the store: callers may read it until the
// next ApplyBatch but must never mutate it. Maintenance-goroutine only.
func (s *BaseStore) Base(rel string) *Relation[int64] {
	m := s.merged[rel]
	if m == nil {
		return nil
	}
	if pend := s.pending[rel]; len(pend) > 0 {
		n := 0
		for _, u := range pend {
			n += len(u.Tuples)
		}
		m.Reserve(m.Len() + n)
		for _, u := range pend {
			for _, t := range u.Tuples {
				m.Merge(t, u.Mult)
			}
		}
		s.pending[rel] = pend[:0]
		// Whoever read m before this compaction is past its lease (see
		// above), so the entries it cancelled are reusable from here on.
		m.Reclaim()
	}
	return m
}

// AdoptBase replaces the merged contents of a registered relation with r,
// discarding any pending log entries. It is the checkpoint-restore path: a
// recovery layer hands the store a freshly decoded multiplicity relation and
// the store owns it from then on. The relation's schema must equal the
// registered one.
func (s *BaseStore) AdoptBase(rel string, r *Relation[int64]) error {
	sch, ok := s.schemas[rel]
	if !ok {
		return fmt.Errorf("data: base relation %q not registered", rel)
	}
	if !sch.Equal(r.Schema()) {
		return fmt.Errorf("data: adopt %q: schema %v does not match registered %v", rel, r.Schema(), sch)
	}
	s.merged[rel] = r
	s.pending[rel] = nil
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

// Observers returns the attached observer ids in attach order.
func (s *BaseStore) Observers() []string {
	out := make([]string, len(s.obs))
	for i, o := range s.obs {
		out[i] = o.id
	}
	return out
}

// ApplyBatch advances the store by one batch of per-relation updates —
// appended to each relation's pending log at pointer cost — and fans the
// batch out to every attached observer. Zero multiplicities default to +1;
// unknown relations and arity mismatches are errors, detected before any
// state changes. The batch slice itself may be reused by the caller after
// the call; tuple storage is adopted.
//
// Observer errors abort the fan-out and are returned; the store itself has
// already advanced, so the caller must treat the batch as torn and discard
// or rebuild the failed consumer.
func (s *BaseStore) ApplyBatch(batch []BaseUpdate) error {
	for i := range batch {
		u := &batch[i]
		sch, ok := s.schemas[u.Rel]
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
	for _, u := range batch {
		if len(u.Tuples) == 0 {
			continue
		}
		s.pending[u.Rel] = append(s.pending[u.Rel], u)
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

// LiftFrom fills dst with src's tuples, each mapped through lift from its
// multiplicity. It shares src's encoded keys and tuple storage (no
// re-encoding), which is what makes backfilling a view from a compacted
// base relation cheap; dst should be empty and share src's schema.
func LiftFrom[P any](dst *Relation[P], src *Relation[int64], lift func(n int64) P) {
	src.entries.all(func(e *Entry[int64]) bool {
		dst.MergeKey(e.key, e.Tuple, lift(e.Payload))
		return true
	})
}

// Tuples reports the total number of distinct tuples currently stored
// (compacting every pending log). Maintenance-goroutine only.
func (s *BaseStore) Tuples() int {
	n := 0
	for _, rel := range s.names {
		n += s.Base(rel).Len()
	}
	return n
}

// MemoryBytes estimates the bytes held by the stored base relations, merged
// contents (Relation.MemoryBytes) and pending log alike (log tuples are
// shared slices; their backing storage is charged here as it is kept alive).
func (s *BaseStore) MemoryBytes() int {
	total := 0
	for _, r := range s.merged {
		total += r.MemoryBytes()
	}
	for _, pend := range s.pending {
		for _, u := range pend {
			total += 48
			for _, t := range u.Tuples {
				total += 24 + len(t)*valueBytes
			}
		}
	}
	return total
}
