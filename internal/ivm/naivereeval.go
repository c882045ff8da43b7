package ivm

import (
	"fmt"

	"fivm/internal/data"
	"fivm/internal/query"
	"fivm/internal/ring"
)

// NaiveReEval is unfactorized re-evaluation (the paper's DBT-RE competitor
// in the Appendix C table): on every update it joins all base relations into
// the full listing result and only then aggregates, without pushing
// marginalization past joins. Against ReEval (factorized re-evaluation) it
// isolates the benefit of factorized computation alone.
type NaiveReEval[P any] struct {
	q      query.Query
	ring   ring.Ring[P]
	lift   data.LiftFunc[P]
	bases  map[string]*data.Relation[P]
	result *data.Relation[P]
	pub    publisher[P]
}

// NewNaiveReEval builds the naive re-evaluation maintainer.
func NewNaiveReEval[P any](q query.Query, r ring.Ring[P], lift data.LiftFunc[P]) *NaiveReEval[P] {
	return &NaiveReEval[P]{q: q, ring: r, lift: lift, bases: make(map[string]*data.Relation[P])}
}

// Load installs the initial contents of a relation.
func (m *NaiveReEval[P]) Load(rel string, r *data.Relation[P]) error {
	if _, ok := m.q.Rel(rel); !ok {
		return fmt.Errorf("ivm: unknown relation %q", rel)
	}
	m.bases[rel] = r.Clone()
	return nil
}

// Init computes the initial result.
func (m *NaiveReEval[P]) Init() error {
	m.result = m.recompute()
	return nil
}

func (m *NaiveReEval[P]) recompute() *data.Relation[P] {
	rels := make([]*data.Relation[P], 0, len(m.q.Rels))
	for _, rd := range m.q.Rels {
		b := m.bases[rd.Name]
		if b == nil {
			b = data.NewRelation(m.ring, rd.Schema)
		}
		rels = append(rels, b)
	}
	joined := data.JoinAll(rels...)
	agg := data.MarginalizeVars(joined, joined.Schema().Minus(m.q.Free), m.lift)
	return data.Project(agg, m.q.Free)
}

// absorb merges an update into the stored base relation.
func (m *NaiveReEval[P]) absorb(rel string, delta *data.Relation[P]) error {
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

// ApplyDelta merges the update and recomputes the result from the full join.
func (m *NaiveReEval[P]) ApplyDelta(rel string, delta *data.Relation[P]) error {
	if err := m.absorb(rel, delta); err != nil {
		return err
	}
	m.result = m.recompute()
	m.maybePublish()
	return nil
}

// Result returns the last computed result as a live handle; see the
// Maintainer contract — concurrent readers must go through Snapshot.
func (m *NaiveReEval[P]) Result() *data.Relation[P] {
	if m.result == nil {
		return data.NewRelation(m.ring, m.q.Free)
	}
	return m.result
}

// ViewCount reports the stored relations plus the result.
func (m *NaiveReEval[P]) ViewCount() int { return len(m.bases) + 1 }

// MemoryBytes estimates the footprint of bases and result.
func (m *NaiveReEval[P]) MemoryBytes() int {
	total := 0
	for _, b := range m.bases {
		total += b.MemoryBytes()
	}
	if m.result != nil {
		total += m.result.MemoryBytes()
	}
	return total
}
