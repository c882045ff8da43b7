package data

// BatchArena is the rewindable home of one batch in flight: the cells of its
// tuples, the []Tuple lists of its updates and the []BaseUpdate itself, taken
// from three slabs and given back at once by Rewind. A decoder of wire
// batches — POST /apply, a replication follower — decodes into an arena it
// owns, applies the batch and rewinds, so a stream of batches allocates no
// tuple. Its tuples live as long as any batch's do (Relation's ownership
// rule: whoever keeps a row past the batch copies it); updates built by Update
// carry the arena only so that ArenaBytes can size it. String values stay
// ordinary heap strings, and so do relation names (Name), which outlive the
// batch.
//
// A nil *BatchArena is the heap — garbage-collected storage — so one decoder
// serves both. An arena belongs to one goroutine at a time.
type BatchArena struct {
	cells   slab[Value]
	tuples  slab[Tuple]
	updates slab[BaseUpdate]
	names   []string // what Name keeps, across Rewind
}

// Name returns a string equal to b that never aliases it. A stream of batches
// names the same few relations: the first 16 distinct names of at most 64
// bytes are kept and come back without allocating.
func (a *BatchArena) Name(b []byte) string {
	if a != nil {
		for _, s := range a.names {
			if s == string(b) {
				return s
			}
		}
		if len(a.names) < 16 && len(b) <= 64 {
			a.names = append(a.names, string(b))
			return a.names[len(a.names)-1]
		}
	}
	return string(b)
}

// Tuple returns a fresh tuple of arity cells for the caller to fill.
func (a *BatchArena) Tuple(arity int) Tuple {
	if a == nil {
		return make(Tuple, arity)
	}
	return a.cells.take(arity)
}

// Tuples returns an empty tuple list with room for n.
func (a *BatchArena) Tuples(n int) []Tuple {
	if a == nil {
		return make([]Tuple, 0, n)
	}
	return a.tuples.take(n)[:0]
}

// Updates returns an empty batch with room for n updates.
func (a *BatchArena) Updates(n int) []BaseUpdate {
	if a == nil {
		return make([]BaseUpdate, 0, n)
	}
	return a.updates.take(n)[:0]
}

// Update builds an update over tuples taken from a, marked as dying with it.
func (a *BatchArena) Update(rel string, mult int64, tuples []Tuple) BaseUpdate {
	return BaseUpdate{Rel: rel, Tuples: tuples, Mult: mult, arena: a}
}

// Bytes is the storage the arena holds: the high-water of its batches.
func (a *BatchArena) Bytes() int { return a.cells.bytes() + a.tuples.bytes() + a.updates.bytes() }

// Rewind takes everything back: the batch is applied (its epoch published)
// and nothing may read its updates, tuple lists or tuples again. Under the
// poison hook they read poison from here on.
func (a *BatchArena) Rewind() {
	a.cells.rewind(poisonTuple[0])
	a.tuples.rewind(poisonTuple)
	a.updates.rewind(BaseUpdate{Rel: poisonKey})
}

// ArenaBytes is the size of the arenas behind a batch (0 for heap tuples),
// each counted where its run of updates starts — a group's members follow
// one another: ingest.arena_bytes in GET /stats.
func ArenaBytes(batch []BaseUpdate) int {
	n := 0
	for i, u := range batch {
		if u.arena != nil && (i == 0 || u.arena != batch[i-1].arena) {
			n += u.arena.Bytes()
		}
	}
	return n
}
