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

// ApplyDeltas maintains the result under a batch of updates to any mix of
// relations. Deltas to the same relation are merged and each affected
// leaf-to-root plan is traversed once, so a batch of k single-tuple updates
// to one relation costs one propagation instead of k. With publication
// enabled, one snapshot epoch is published for the whole batch.
func (e *Engine[P]) ApplyDeltas(batch []NamedDelta[P]) error {
	for _, nd := range coalesceBatch(batch) {
		if err := e.applyDelta(nd.Rel, nd.Delta); err != nil {
			return err
		}
	}
	e.endBatch()
	return nil
}

// ApplyDeltas evaluates one first-order delta query per distinct relation in
// the batch, publishing one snapshot epoch for the whole batch.
func (m *FirstOrder[P]) ApplyDeltas(batch []NamedDelta[P]) error {
	for _, nd := range coalesceBatch(batch) {
		if err := m.applyDelta(nd.Rel, nd.Delta); err != nil {
			return err
		}
	}
	m.maybePublish()
	return nil
}

// ApplyDeltas maintains every affected view hierarchy once per distinct
// relation in the batch, publishing one snapshot epoch for the whole batch.
func (m *Recursive[P]) ApplyDeltas(batch []NamedDelta[P]) error {
	for _, nd := range coalesceBatch(batch) {
		if err := m.applyDelta(nd.Rel, nd.Delta); err != nil {
			return err
		}
	}
	m.maybePublish()
	return nil
}

// ApplyDeltas merges the whole batch into the base relations and recomputes
// the result once, instead of once per update.
func (m *ReEval[P]) ApplyDeltas(batch []NamedDelta[P]) error {
	if len(batch) == 0 {
		return nil
	}
	for _, nd := range batch {
		if nd.Delta == nil {
			continue
		}
		if err := m.absorb(nd.Rel, nd.Delta); err != nil {
			return err
		}
	}
	m.result = evalTree(m.root, m.q, m.ring, m.lift, m.bases)
	m.maybePublish()
	return nil
}

// ApplyDeltas merges the whole batch into the base relations and recomputes
// the full join once.
func (m *NaiveReEval[P]) ApplyDeltas(batch []NamedDelta[P]) error {
	if len(batch) == 0 {
		return nil
	}
	for _, nd := range batch {
		if nd.Delta == nil {
			continue
		}
		if err := m.absorb(nd.Rel, nd.Delta); err != nil {
			return err
		}
	}
	m.result = m.recompute()
	m.maybePublish()
	return nil
}

// ApplyDeltas recomputes each aggregate's delta query once per distinct
// relation in the batch, publishing one snapshot epoch for the whole batch.
func (m *MultiFirstOrder) ApplyDeltas(batch []NamedDelta[float64]) error {
	for _, nd := range coalesceBatch(batch) {
		if err := m.applyDelta(nd.Rel, nd.Delta); err != nil {
			return err
		}
	}
	m.maybePublish()
	return nil
}

// ApplyDeltas coalesces the batch once and drives every per-aggregate
// hierarchy with the merged deltas, publishing one snapshot epoch for the
// whole batch.
func (m *MultiRecursive) ApplyDeltas(batch []NamedDelta[float64]) error {
	batch = coalesceBatch(batch)
	for _, inst := range m.instances {
		for _, nd := range batch {
			if err := inst.ApplyDelta(nd.Rel, nd.Delta); err != nil {
				return err
			}
		}
	}
	m.maybePublish()
	return nil
}
