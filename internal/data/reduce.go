package data

import (
	"slices"

	"fivm/internal/ring"
)

// ReduceSealed reduces several relations key-wise into one sealed snapshot:
// the disjoint union of their keys where keys do not repeat, the ring sum of
// the payloads where they do. It is the publication path of the sharded
// parallel maintainer — shard results partition the keyspace when the shard
// variable is free (pure concatenation after sorting) and collapse onto the
// same keys when it is aggregated away (payload summation) — and replaces
// the merge-into-a-fresh-hash-relation reduce with one sort over pointers
// to the gathered entries: no intermediate relation, no per-key
// hashing, no per-entry allocations: the entries, their tuple cells, a slab
// of their keys, the pointers and the chunks.
//
// The inputs must share a schema (same variables in the same order, so equal
// tuples have equal encoded keys) and stay unmodified for the duration of
// the call only: entry values are copied out, payloads are deep-copied and so
// are every key and tuple — a pooled
// input overwrites both when it reuses an entry — so later mutation of the
// inputs never bleeds into the returned snapshot. Keys whose payloads sum to zero
// are dropped, matching Relation.Merge semantics. Where payloads are summed,
// the combination order is sorted-key encounter order, which differs from
// any sequential update order — non-integral float payloads may round
// differently than an unsharded run (see Parallel's floating-point caveat).
func ReduceSealed[P any](rg ring.Ring[P], schema Schema, parts []*Relation[P]) *RelationSnapshot[P] {
	total := 0
	for _, p := range parts {
		total += p.Len()
	}
	es := make([]Entry[P], 0, total)
	var keys slab[byte]
	cells := make(Tuple, 0, total*len(schema))
	for _, p := range parts {
		p.entries.all(func(e *Entry[P]) bool {
			cells = append(cells, e.Tuple...)
			es = append(es, Entry[P]{key: internKey(&keys, e.key), hash: e.hash,
				Tuple: cells[len(cells)-len(e.Tuple) : len(cells) : len(cells)]})
			rg.CopyInto(&es[len(es)-1].Payload, e.Payload) // in storage of its own, never e's
			return true
		})
	}
	run := make([]*Entry[P], len(es))
	for i := range es {
		run[i] = &es[i]
	}
	slices.SortFunc(run, byKey[P])
	w := 0
	for i := 0; i < len(run); {
		j := i + 1
		for j < len(run) && run[j].key == run[i].key {
			rg.AddInto(&run[i].Payload, run[j].Payload)
			j++
		}
		if j == i+1 || !rg.IsZero(run[i].Payload) {
			run[w] = run[i]
			w++
		}
		i = j
	}
	s := newSnapshot(nil, schema, rg, w)
	s.chunks = (*snapArena[P])(nil).appendChunked(nil, run[:w], 0)
	return s
}
