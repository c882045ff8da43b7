package ivm

import (
	"fmt"

	"fivm/internal/data"
	"fivm/internal/query"
	"fivm/internal/ring"
	"fivm/internal/vorder"
)

// Baseline is every competitor of the paper that stores the input relations
// themselves and no auxiliary view: first-order IVM (1-IVM), factorized and
// naive re-evaluation, and 1-IVM over k scalar aggregates. All of them keep
// one copy of the base relations and k results; they differ in two functions.
// They are the figures' comparators and the tests' oracles, and publish
// nothing.
type Baseline[P any] struct {
	driver[P] // ApplyDelta, ApplyDeltas over check, apply and seal

	q       query.Query
	bases   map[string]*data.Relation[P]
	results []*data.Relation[P]
	// eval computes result i from the bases. delta, when set, is the
	// first-order delta query: the change of result i under update d to rel,
	// evaluated before d reaches the bases and merged into the result in
	// place. A nil delta is re-evaluation: updates only reach the bases, and
	// every result is recomputed once per batch.
	eval  func(i int) *data.Relation[P]
	delta func(i int, rel string, d *data.Relation[P]) *data.Relation[P]
}

// newBaseline returns a maintainer of every relation of q, empty, and k empty
// results over keys; the caller sets eval and delta, which close over its
// bases.
func newBaseline[P any](q query.Query, r ring.Ring[P], keys data.Schema, k int) *Baseline[P] {
	m := &Baseline[P]{q: q, bases: make(map[string]*data.Relation[P])}
	for _, rd := range q.Rels {
		m.bases[rd.Name] = data.NewRelation(r, rd.Schema)
	}
	for i := 0; i < k; i++ {
		m.results = append(m.results, data.NewRelation(r, keys))
	}
	m.driver = driver[P]{check: m.check, apply: m.apply, end: m.seal}
	return m
}

// newTreeBaseline evaluates over the view tree of the given variable order
// (nil: chosen structurally), aggregates pushed past joins as in F-IVM, one
// result per lifting; firstOrder adds the delta queries: the same evaluation
// with the updated relation replaced by the delta.
func newTreeBaseline[P any](q query.Query, o *vorder.Order, r ring.Ring[P], lifts []data.LiftFunc[P], firstOrder bool) (*Baseline[P], error) {
	root, err := buildTree(q, o, true)
	if err != nil {
		return nil, err
	}
	m := newBaseline(q, r, root.Keys, len(lifts))
	base := func(rel string) *data.Relation[P] { return m.bases[rel] }
	m.eval = func(i int) *data.Relation[P] { return newEvaluator(r, lifts[i], base).eval(root) }
	if firstOrder {
		m.delta = func(i int, rel string, d *data.Relation[P]) *data.Relation[P] {
			return newEvaluator(r, lifts[i], func(x string) *data.Relation[P] {
				if x == rel {
					return d
				}
				return m.bases[x]
			}).eval(root)
		}
	}
	return m, nil
}

// NewFirstOrder builds classical first-order IVM (1-IVM): it materializes
// only the input relations and the result, and each update recomputes the
// delta query on the fly over the stored relations — as DBToaster does for
// delta queries with disconnected components — so updates cost at least
// linear time in general.
func NewFirstOrder[P any](q query.Query, o *vorder.Order, r ring.Ring[P], lift data.LiftFunc[P]) (*Baseline[P], error) {
	return newTreeBaseline(q, o, r, []data.LiftFunc[P]{lift}, true)
}

// NewReEval builds the re-evaluation baseline (F-RE in the paper's Appendix C
// table): it recomputes the result from scratch with the same factorized
// evaluation as F-IVM, so the comparison isolates incrementality, not
// evaluation quality.
func NewReEval[P any](q query.Query, o *vorder.Order, r ring.Ring[P], lift data.LiftFunc[P]) (*Baseline[P], error) {
	return newTreeBaseline(q, o, r, []data.LiftFunc[P]{lift}, false)
}

// NewMultiFirstOrder builds first-order IVM with scalar payloads and no
// sharing across aggregates: one delta query per aggregate per update, over
// a single shared copy of the base relations. It models the paper's 1-IVM
// competitor for cofactor matrices (995 views for 990 aggregates on
// Retailer). Result is the first aggregate (the count), Results all of them.
// r is the scalar ring: ring.Float{}, or a wrapper that counts its work.
func NewMultiFirstOrder(q query.Query, o *vorder.Order, r ring.Ring[float64], specs []AggSpec) (*Baseline[float64], error) {
	lifts := make([]data.LiftFunc[float64], len(specs))
	for i, s := range specs {
		lifts[i] = s.Lift
	}
	return newTreeBaseline(q, o, r, lifts, true)
}

// NewNaiveReEval builds unfactorized re-evaluation (the paper's DBT-RE): it
// joins all base relations into the full listing result and only then
// aggregates, without pushing marginalization past joins. Against NewReEval
// it isolates the benefit of factorized computation alone.
func NewNaiveReEval[P any](q query.Query, r ring.Ring[P], lift data.LiftFunc[P]) *Baseline[P] {
	m := newBaseline(q, r, q.Free, 1)
	m.eval = func(int) *data.Relation[P] {
		rels := make([]*data.Relation[P], 0, len(q.Rels))
		for _, rd := range q.Rels {
			rels = append(rels, m.bases[rd.Name])
		}
		joined := data.JoinAll(rels...)
		out := data.NewRelation(r, q.Free)
		data.MarginalizeInto(out, joined, joined.Schema().Minus(q.Free), lift)
		return out
	}
	return m
}

// checkRel resolves rel in q and checks that r covers exactly its variables:
// the name first, so an unknown relation is an error whatever came with it.
func checkRel[P any](q query.Query, rel string, r *data.Relation[P]) (query.RelDef, error) {
	rd, ok := q.Rel(rel)
	if !ok {
		return rd, fmt.Errorf("ivm: unknown relation %q", rel)
	}
	if !r.Schema().SameSet(rd.Schema) {
		return rd, fmt.Errorf("ivm: relation %q: schema %v does not match %v", rel, r.Schema(), rd.Schema)
	}
	return rd, nil
}

// checkUpdate is the admission rule of the strategies that take deltas only
// once initialized and only for an updatable set: checkRel, plus those two.
func checkUpdate[P any](ready bool, q query.Query, updatable map[string]bool, rel string, d *data.Relation[P]) error {
	if !ready {
		return fmt.Errorf("ivm: ApplyDelta before Init")
	}
	if _, err := checkRel(q, rel, d); err != nil {
		return err
	}
	if !updatable[rel] {
		return fmt.Errorf("ivm: relation %q is not updatable", rel)
	}
	return nil
}

// Load installs the initial contents of a relation (a copy).
func (m *Baseline[P]) Load(rel string, r *data.Relation[P]) error {
	if _, err := checkRel(m.q, rel, r); err != nil {
		return err
	}
	m.bases[rel] = r.Clone()
	return nil
}

// Init computes every result from the stored relations.
func (m *Baseline[P]) Init() error {
	m.reeval()
	return nil
}

func (m *Baseline[P]) reeval() {
	for i := range m.results {
		m.results[i] = m.eval(i)
	}
}

// check is the admission rule: a relation of the query, over its variables.
func (m *Baseline[P]) check(rel string, d *data.Relation[P]) error {
	_, err := checkRel(m.q, rel, d)
	return err
}

// apply is the update rule: merge each delta query into its result, then the
// update into the stored relation.
func (m *Baseline[P]) apply(rel string, d *data.Relation[P]) error {
	if m.delta != nil {
		for i, res := range m.results {
			res.MergeAll(m.delta(i, rel, d))
		}
	}
	base := m.bases[rel]
	if !base.Schema().Equal(d.Schema()) {
		d = data.Project(d, base.Schema())
	}
	base.MergeAll(d)
	return nil
}

// seal re-evaluates at the end of a batch when there is no delta query to
// have kept the results current.
func (m *Baseline[P]) seal() error {
	if m.delta == nil {
		m.reeval()
	}
	return nil
}

// Result returns the (first) maintained result: the relation apply and seal
// keep current, not safe to read while a batch is applied.
func (m *Baseline[P]) Result() *data.Relation[P] { return m.results[0] }

// ViewCount reports the stored relations plus one view per result.
func (m *Baseline[P]) ViewCount() int { return len(m.bases) + len(m.results) }

// MemoryBytes estimates the footprint of the stored relations and results.
func (m *Baseline[P]) MemoryBytes() int {
	total := 0
	for _, b := range m.bases {
		total += b.MemoryBytes()
	}
	for _, r := range m.results {
		total += r.MemoryBytes()
	}
	return total
}
