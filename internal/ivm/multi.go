package ivm

import (
	"fivm/internal/data"
	"fivm/internal/query"
	"fivm/internal/ring"
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

// MultiRecursive is fully recursive IVM with scalar payloads and no sharing
// across aggregates: one independent DBToaster-style view hierarchy per
// aggregate. It models the paper's DBT competitor for cofactor matrices: the
// paper counts 3 814 views for the 990 aggregates on Retailer, this one 12 870
// (990 hierarchies of 13 views each, DBT-RING's count). Real DBToaster shares
// some identical auxiliary views across aggregates; this simulation does not,
// so its view count is an upper bound with the same growth behaviour.
type MultiRecursive struct {
	driver[float64] // one batch for all hierarchies

	instances []*Recursive[float64]
}

// NewMultiRecursive builds one recursive hierarchy per aggregate, each over
// the scalar ring r (ring.Float{}, or a wrapper that counts its work).
func NewMultiRecursive(q query.Query, r ring.Ring[float64], specs []AggSpec, updatable []string) (*MultiRecursive, error) {
	m := &MultiRecursive{}
	m.driver = driver[float64]{
		// Every hierarchy is over the same query: the first one's verdict is all of theirs.
		check: func(rel string, d *data.Relation[float64]) error { return m.instances[0].check(rel, d) },
		apply: m.applyDelta,
	}
	for _, s := range specs {
		inst, err := NewRecursive(q, r, s.Lift, updatable)
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

// applyDelta is the update rule: every per-aggregate hierarchy applies its
// own.
func (m *MultiRecursive) applyDelta(rel string, delta *data.Relation[float64]) error {
	for _, inst := range m.instances {
		if err := inst.applyDelta(rel, delta); err != nil {
			return err
		}
	}
	return nil
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
