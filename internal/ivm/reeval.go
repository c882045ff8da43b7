package ivm

import (
	"fmt"

	"fivm/internal/data"
	"fivm/internal/query"
	"fivm/internal/ring"
	"fivm/internal/viewtree"
	"fivm/internal/vorder"
)

// ReEval is the re-evaluation baseline (F-RE in the paper's Appendix C
// table): it stores only the input relations and recomputes the query
// result from scratch on every update, using the same factorized evaluation
// over the view tree as F-IVM (so the comparison isolates incrementality,
// not evaluation quality).
type ReEval[P any] struct {
	q      query.Query
	ring   ring.Ring[P]
	lift   data.LiftFunc[P]
	root   *viewtree.Node
	bases  map[string]*data.Relation[P]
	result *data.Relation[P]
	pub    publisher[P]
}

// NewReEval builds a re-evaluation maintainer over the given variable order.
func NewReEval[P any](q query.Query, o *vorder.Order, r ring.Ring[P], lift data.LiftFunc[P]) (*ReEval[P], error) {
	root, err := buildTree(q, o, true)
	if err != nil {
		return nil, err
	}
	return &ReEval[P]{q: q, ring: r, lift: lift, root: root, bases: make(map[string]*data.Relation[P])}, nil
}

// Load installs the initial contents of a relation.
func (m *ReEval[P]) Load(rel string, r *data.Relation[P]) error {
	if _, ok := m.q.Rel(rel); !ok {
		return fmt.Errorf("ivm: unknown relation %q", rel)
	}
	m.bases[rel] = r.Clone()
	return nil
}

// Init computes the initial result.
func (m *ReEval[P]) Init() error {
	m.result = evalTree(m.root, m.q, m.ring, m.lift, m.bases)
	return nil
}

// absorb merges an update into the stored base relation.
func (m *ReEval[P]) absorb(rel string, delta *data.Relation[P]) error {
	rd, ok := m.q.Rel(rel)
	if !ok {
		return fmt.Errorf("ivm: unknown relation %q", rel)
	}
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

// ApplyDelta merges the update into the base relation and recomputes the
// result from scratch.
func (m *ReEval[P]) ApplyDelta(rel string, delta *data.Relation[P]) error {
	if err := m.absorb(rel, delta); err != nil {
		return err
	}
	m.result = evalTree(m.root, m.q, m.ring, m.lift, m.bases)
	m.maybePublish()
	return nil
}

// Result returns the last computed query result as a live handle; see the
// Maintainer contract — concurrent readers must go through Snapshot.
func (m *ReEval[P]) Result() *data.Relation[P] {
	if m.result == nil {
		return data.NewRelation(m.ring, m.root.Keys)
	}
	return m.result
}

// ViewCount reports the stored relations plus the result.
func (m *ReEval[P]) ViewCount() int { return len(m.bases) + 1 }

// MemoryBytes estimates the footprint of the stored relations and result.
func (m *ReEval[P]) MemoryBytes() int {
	total := 0
	for _, b := range m.bases {
		total += b.MemoryBytes()
	}
	if m.result != nil {
		total += m.result.MemoryBytes()
	}
	return total
}
