package ivm

import (
	"fmt"

	"fivm/internal/data"
	"fivm/internal/query"
	"fivm/internal/ring"
	"fivm/internal/viewtree"
	"fivm/internal/vorder"
)

// AggSpec describes one scalar regression aggregate as a product of
// variable powers: SUM(∏ X^deg). The count aggregate has no degrees, a
// linear aggregate has one variable at degree 1, a quadratic one either two
// variables at degree 1 or one at degree 2.
type AggSpec struct {
	Degrees map[string]int
}

// Lift returns the scalar lifting function of the aggregate: x^deg(X).
func (s AggSpec) Lift(variable string, v data.Value) float64 {
	d := s.Degrees[variable]
	x := 1.0
	f := v.AsFloat()
	for i := 0; i < d; i++ {
		x *= f
	}
	return x
}

// CofactorAggSpecs enumerates the scalar aggregates of the cofactor
// computation over the given variables: SUM(1), SUM(X_i) for every i, and
// SUM(X_i*X_j) for every i <= j — the 1 + m + m(m+1)/2 aggregates that the
// scalar-payload competitors (paper's DBT and 1-IVM) each maintain with a
// separate query.
func CofactorAggSpecs(vars data.Schema) []AggSpec {
	specs := []AggSpec{{Degrees: map[string]int{}}}
	for _, v := range vars {
		specs = append(specs, AggSpec{Degrees: map[string]int{v: 1}})
	}
	for i, v := range vars {
		for j := i; j < len(vars); j++ {
			w := vars[j]
			d := map[string]int{v: 1}
			d[w]++
			specs = append(specs, AggSpec{Degrees: d})
		}
	}
	return specs
}

// MultiFirstOrder is first-order IVM with scalar payloads and no sharing
// across aggregates: one delta query per aggregate per update, over a
// single shared copy of the base relations. It models the paper's 1-IVM
// competitor for cofactor matrices (995 views for 990 aggregates on
// Retailer).
type MultiFirstOrder struct {
	q       query.Query
	root    *viewtree.Node
	specs   []AggSpec
	bases   map[string]*data.Relation[float64]
	results []*data.Relation[float64]
	pub     publisher[float64]
}

// NewMultiFirstOrder builds a per-aggregate first-order maintainer.
func NewMultiFirstOrder(q query.Query, o *vorder.Order, specs []AggSpec) (*MultiFirstOrder, error) {
	root, err := buildTree(q, o, true)
	if err != nil {
		return nil, err
	}
	return &MultiFirstOrder{
		q:     q,
		root:  root,
		specs: specs,
		bases: make(map[string]*data.Relation[float64]),
	}, nil
}

// Load installs the initial contents of a relation (payloads are tuple
// multiplicities).
func (m *MultiFirstOrder) Load(rel string, r *data.Relation[float64]) error {
	if _, ok := m.q.Rel(rel); !ok {
		return fmt.Errorf("ivm: unknown relation %q", rel)
	}
	m.bases[rel] = r.Clone()
	return nil
}

// Init computes every aggregate's initial result.
func (m *MultiFirstOrder) Init() error {
	m.results = make([]*data.Relation[float64], len(m.specs))
	for i, s := range m.specs {
		m.results[i] = evalTree(m.root, m.q, ring.Float{}, s.Lift, m.bases)
	}
	return nil
}

// ApplyDelta recomputes one delta query per aggregate and merges each into
// its result, then updates the shared base copy.
func (m *MultiFirstOrder) ApplyDelta(rel string, delta *data.Relation[float64]) error {
	if err := m.applyDelta(rel, delta); err != nil {
		return err
	}
	m.maybePublish()
	return nil
}

// applyDelta is ApplyDelta without the per-batch snapshot publication.
func (m *MultiFirstOrder) applyDelta(rel string, delta *data.Relation[float64]) error {
	rd, ok := m.q.Rel(rel)
	if !ok {
		return fmt.Errorf("ivm: unknown relation %q", rel)
	}
	for i, s := range m.specs {
		dq := evalTreeSubst(m.root, m.q, ring.Float{}, s.Lift, m.bases, rel, delta)
		m.results[i].MergeAll(dq)
	}
	base := m.bases[rel]
	if base == nil {
		base = data.NewRelation(ring.Float{}, rd.Schema)
		m.bases[rel] = base
	}
	if base.Schema().Equal(delta.Schema()) {
		base.MergeAll(delta)
	} else {
		base.MergeAll(data.Project(delta, base.Schema()))
	}
	return nil
}

// Result returns the first aggregate's result (the count); use Results for
// all of them.
func (m *MultiFirstOrder) Result() *data.Relation[float64] {
	if len(m.results) == 0 {
		return data.NewRelation(ring.Float{}, m.root.Keys)
	}
	return m.results[0]
}

// Results returns every aggregate's result, indexed like the specs.
func (m *MultiFirstOrder) Results() []*data.Relation[float64] { return m.results }

// ViewCount reports base relations plus one result view per aggregate.
func (m *MultiFirstOrder) ViewCount() int { return len(m.bases) + len(m.specs) }

// MemoryBytes estimates the footprint of bases and results.
func (m *MultiFirstOrder) MemoryBytes() int {
	total := 0
	for _, b := range m.bases {
		total += b.MemoryBytes()
	}
	for _, r := range m.results {
		total += r.MemoryBytes()
	}
	return total
}

// MultiRecursive is fully recursive IVM with scalar payloads and no sharing
// across aggregates: one independent DBToaster-style view hierarchy per
// aggregate. It models the paper's DBT competitor for cofactor matrices
// (3814 views for 990 aggregates on Retailer). Real DBToaster shares some
// identical auxiliary views across aggregates; this simulation does not, so
// its view count is an upper bound with the same growth behaviour.
type MultiRecursive struct {
	q         query.Query
	instances []*Recursive[float64]
	pub       publisher[float64]
}

// NewMultiRecursive builds one recursive hierarchy per aggregate.
func NewMultiRecursive(q query.Query, specs []AggSpec, updatable []string) (*MultiRecursive, error) {
	m := &MultiRecursive{q: q}
	for _, s := range specs {
		inst, err := NewRecursive[float64](q, ring.Float{}, s.Lift, updatable)
		if err != nil {
			return nil, err
		}
		m.instances = append(m.instances, inst)
	}
	return m, nil
}

// Load installs the initial contents of a relation in every instance.
func (m *MultiRecursive) Load(rel string, r *data.Relation[float64]) error {
	for _, inst := range m.instances {
		if err := inst.Load(rel, r); err != nil {
			return err
		}
	}
	return nil
}

// Init initializes every instance.
func (m *MultiRecursive) Init() error {
	for _, inst := range m.instances {
		if err := inst.Init(); err != nil {
			return err
		}
	}
	return nil
}

// ApplyDelta maintains every per-aggregate hierarchy.
func (m *MultiRecursive) ApplyDelta(rel string, delta *data.Relation[float64]) error {
	for _, inst := range m.instances {
		if err := inst.ApplyDelta(rel, delta); err != nil {
			return err
		}
	}
	m.maybePublish()
	return nil
}

// Result returns the first aggregate's result; use Results for all.
func (m *MultiRecursive) Result() *data.Relation[float64] { return m.instances[0].Result() }

// Results returns every aggregate's result.
func (m *MultiRecursive) Results() []*data.Relation[float64] {
	out := make([]*data.Relation[float64], len(m.instances))
	for i, inst := range m.instances {
		out[i] = inst.Result()
	}
	return out
}

// ViewCount sums the views of all hierarchies.
func (m *MultiRecursive) ViewCount() int {
	n := 0
	for _, inst := range m.instances {
		n += inst.ViewCount()
	}
	return n
}

// MemoryBytes sums the footprints of all hierarchies.
func (m *MultiRecursive) MemoryBytes() int {
	n := 0
	for _, inst := range m.instances {
		n += inst.MemoryBytes()
	}
	return n
}
