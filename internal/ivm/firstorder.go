package ivm

import (
	"fmt"

	"fivm/internal/data"
	"fivm/internal/query"
	"fivm/internal/ring"
	"fivm/internal/viewtree"
	"fivm/internal/vorder"
)

// FirstOrder is classical first-order IVM (1-IVM): it materializes only the
// input relations and the query result. Each update recomputes the delta
// query on the fly over the stored relations — with aggregates pushed past
// joins, as DBToaster does for delta queries with disconnected components —
// and merges it into the result. No auxiliary views are kept, so updates
// cost at least linear time in general.
type FirstOrder[P any] struct {
	q      query.Query
	ring   ring.Ring[P]
	lift   data.LiftFunc[P]
	root   *viewtree.Node
	bases  map[string]*data.Relation[P]
	result *data.Relation[P]
	pub    publisher[P]
}

// NewFirstOrder builds a first-order IVM maintainer over the given variable
// order (used only to structure the on-the-fly delta evaluation).
func NewFirstOrder[P any](q query.Query, o *vorder.Order, r ring.Ring[P], lift data.LiftFunc[P]) (*FirstOrder[P], error) {
	root, err := buildTree(q, o, true)
	if err != nil {
		return nil, err
	}
	return &FirstOrder[P]{q: q, ring: r, lift: lift, root: root, bases: make(map[string]*data.Relation[P])}, nil
}

// Load installs the initial contents of a relation.
func (m *FirstOrder[P]) Load(rel string, r *data.Relation[P]) error {
	if _, ok := m.q.Rel(rel); !ok {
		return fmt.Errorf("ivm: unknown relation %q", rel)
	}
	m.bases[rel] = r.Clone()
	return nil
}

// Init computes the initial result from the loaded relations.
func (m *FirstOrder[P]) Init() error {
	m.result = evalTree(m.root, m.q, m.ring, m.lift, m.bases)
	return nil
}

// ApplyDelta evaluates the first-order delta query — the query with the
// updated relation replaced by the delta — over the stored base relations,
// merges it into the result, and then merges the delta into the base.
func (m *FirstOrder[P]) ApplyDelta(rel string, delta *data.Relation[P]) error {
	if err := m.applyDelta(rel, delta); err != nil {
		return err
	}
	m.maybePublish()
	return nil
}

// applyDelta is ApplyDelta without the per-batch snapshot publication.
func (m *FirstOrder[P]) applyDelta(rel string, delta *data.Relation[P]) error {
	rd, ok := m.q.Rel(rel)
	if !ok {
		return fmt.Errorf("ivm: unknown relation %q", rel)
	}
	if !delta.Schema().SameSet(rd.Schema) {
		return fmt.Errorf("ivm: delta schema %v does not match %v", delta.Schema(), rd.Schema)
	}
	dq := evalTreeSubst(m.root, m.q, m.ring, m.lift, m.bases, rel, delta)
	if m.result == nil {
		m.result = data.NewRelation(m.ring, m.root.Keys)
	}
	m.result.MergeAll(dq)

	base := m.bases[rel]
	if base == nil {
		base = data.NewRelation(m.ring, rd.Schema)
		m.bases[rel] = base
	}
	if base.Schema().Equal(delta.Schema()) {
		base.MergeAll(delta)
	} else {
		base.MergeAll(data.Project(delta, base.Schema()))
	}
	return nil
}

// Result returns the maintained query result as a live handle; see the
// Maintainer contract — concurrent readers must go through Snapshot.
func (m *FirstOrder[P]) Result() *data.Relation[P] {
	if m.result == nil {
		return data.NewRelation(m.ring, m.root.Keys)
	}
	return m.result
}

// ViewCount reports the stored relations plus the result.
func (m *FirstOrder[P]) ViewCount() int { return len(m.bases) + 1 }

// MemoryBytes estimates the footprint of the stored relations and result.
func (m *FirstOrder[P]) MemoryBytes() int {
	total := 0
	for _, b := range m.bases {
		total += b.MemoryBytes()
	}
	if m.result != nil {
		total += m.result.MemoryBytes()
	}
	return total
}
