package ivm

import (
	"fivm/internal/data"
)

// NamedDelta pairs an updated relation's name with its delta, one element of
// a batched update. Deletions are encoded, as everywhere, by additively
// inverted payloads.
type NamedDelta[P any] struct {
	Rel   string
	Delta *data.Relation[P]
}

// coalesceBatch groups a batch by relation, merging every delta of the same
// relation into one, preserving first-appearance order. Because payload
// rings are distributive and the maintained state depends only on the final
// database (not on update interleaving), propagating the merged delta once
// per relation is exact — each leaf-to-root plan then runs once per batch
// instead of once per update. The input deltas are never mutated: a combined
// relation is materialized only for relations that appear more than once.
func coalesceBatch[P any](batch []NamedDelta[P]) []NamedDelta[P] {
	// Drop nil deltas up front, so they are no-ops for every strategy and
	// batch shape rather than reaching a maintainer's single-delta path.
	for _, nd := range batch {
		if nd.Delta == nil {
			f := make([]NamedDelta[P], 0, len(batch))
			for _, nd := range batch {
				if nd.Delta != nil {
					f = append(f, nd)
				}
			}
			batch = f
			break
		}
	}
	if len(batch) < 2 {
		return batch
	}
	dup := false
	seen := make(map[string]struct{}, len(batch))
	for _, nd := range batch {
		if _, ok := seen[nd.Rel]; ok {
			dup = true
			break
		}
		seen[nd.Rel] = struct{}{}
	}
	if !dup {
		return batch
	}
	out := make([]NamedDelta[P], 0, len(seen))
	pos := make(map[string]int, len(seen))
	owned := make(map[string]bool, len(seen))
	for _, nd := range batch {
		if nd.Delta == nil {
			continue
		}
		i, ok := pos[nd.Rel]
		if !ok {
			pos[nd.Rel] = len(out)
			out = append(out, nd)
			continue
		}
		cur := out[i].Delta
		if !owned[nd.Rel] {
			// Copy-on-write: the first delta belongs to the caller.
			c := data.NewRelation(cur.Ring(), cur.Schema())
			c.Reserve(cur.Len() + nd.Delta.Len())
			c.MergeAll(cur)
			out[i].Delta = c
			owned[nd.Rel] = true
			cur = c
		}
		if cur.Schema().Equal(nd.Delta.Schema()) {
			cur.MergeAll(nd.Delta)
		} else {
			cur.MergeAll(data.Project(nd.Delta, cur.Schema()))
		}
	}
	return out
}

// driver is the strategy-independent half of maintenance, written once and
// embedded by every strategy: a single delta is a batch of one, a batch is
// coalesced per relation, checked as a whole, applied delta by delta, then
// closed. What differs between F-IVM, 1-IVM, DBT and re-evaluation is the
// update rule, which the strategy supplies at construction. Only Engine
// publishes epochs, through its publisher.
type driver[P any] struct {
	// check is the admission rule: whether rel names a relation the strategy
	// takes deltas for, in a state that takes them, and delta covers its
	// schema. It changes nothing; a batch one of whose deltas fails it is
	// rejected before any of them is applied.
	check func(rel string, delta *data.Relation[P]) error
	// apply is the update rule: how one checked delta changes the stored
	// state.
	apply func(rel string, delta *data.Relation[P]) error
	// end, when set, closes every applied batch: a re-evaluating strategy
	// recomputes its results, the engine publishes and reclaims.
	end func() error
}

// ApplyDelta maintains the result under an update to one relation, a batch
// of one. Deletions are encoded as entries with additively inverted payloads.
func (d *driver[P]) ApplyDelta(rel string, delta *data.Relation[P]) error {
	if err := d.check(rel, delta); err != nil {
		return err
	}
	if err := d.apply(rel, delta); err != nil {
		return err
	}
	return d.endBatch()
}

// ApplyDeltas maintains the result under a batch of updates to any mix of
// relations. Deltas to the same relation are merged and the update rule runs
// once per distinct relation, so a batch of k single-tuple updates to one
// relation costs one propagation instead of k. The batch is all or nothing
// as far as check can tell: one bad delta rejects it before anything is
// applied. An empty or all-nil batch changes nothing and is still a batch:
// a publishing maintainer publishes exactly one epoch per call.
func (d *driver[P]) ApplyDeltas(batch []NamedDelta[P]) error {
	batch = coalesceBatch(batch)
	for _, nd := range batch {
		if err := d.check(nd.Rel, nd.Delta); err != nil {
			return err
		}
	}
	for _, nd := range batch {
		if err := d.apply(nd.Rel, nd.Delta); err != nil {
			return err
		}
	}
	return d.endBatch()
}

// endBatch closes an applied batch.
func (d *driver[P]) endBatch() error {
	if d.end == nil {
		return nil
	}
	return d.end()
}
