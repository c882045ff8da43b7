package ivm

import (
	"fmt"
	"sort"
	"strings"

	"fivm/internal/data"
	"fivm/internal/query"
	"fivm/internal/ring"
)

// Recursive is a fully recursive higher-order IVM maintainer in the style
// of DBToaster (the paper's DBT and DBT-RING competitors): for every
// materialized view V and every updatable relation R in V, the delta query
// δ_R V decomposes into connected components once R's variables are fixed
// by the update tuple; each component is materialized as its own view, and
// the construction recurses. The result is one materialization hierarchy
// per relation — typically many more views than F-IVM's single view tree,
// which is the space/time gap the paper measures.
type Recursive[P any] struct {
	driver[P] // ApplyDelta, ApplyDeltas over check and applyDelta

	q         query.Query
	ring      ring.Ring[P]
	lift      data.LiftFunc[P]
	updatable map[string]bool

	views    map[string]*recView[P]
	order    []*recView[P] // creation order (children before parents)
	affected map[string][]*recView[P]
	root     *recView[P]

	bases map[string]*data.Relation[P]
	ready bool
}

type recView[P any] struct {
	sig  string
	rels []string // sorted relation names
	free data.Schema
	rel  *data.IndexedRelation[P]
	// deltas holds δ_R V per updatable relation R of the view: the δ-join of
	// an update to R with the views of the components the rest of V falls
	// into once R's variables are fixed (none, for a single-relation view).
	deltas map[string]*joinStep[P]
}

// NewRecursive builds the recursive view hierarchy for a query. The
// updatable set bounds which hierarchies are constructed; empty means all
// relations.
func NewRecursive[P any](q query.Query, r ring.Ring[P], lift data.LiftFunc[P], updatable []string) (*Recursive[P], error) {
	m := &Recursive[P]{
		q:         q,
		ring:      r,
		lift:      lift,
		updatable: make(map[string]bool),
		views:     make(map[string]*recView[P]),
		affected:  make(map[string][]*recView[P]),
		bases:     make(map[string]*data.Relation[P]),
	}
	m.driver = driver[P]{check: m.check, apply: m.applyDelta}
	if len(updatable) == 0 {
		updatable = q.RelNames()
	}
	for _, name := range updatable {
		if _, ok := q.Rel(name); !ok {
			return nil, fmt.Errorf("ivm: updatable relation %q not in query", name)
		}
		m.updatable[name] = true
	}
	rels := append([]string(nil), q.RelNames()...)
	sort.Strings(rels)
	m.root = m.getView(rels, q.Free)
	return m, nil
}

func viewSig(rels []string, free data.Schema) string {
	fs := append([]string(nil), free...)
	sort.Strings(fs)
	return strings.Join(rels, ",") + "|" + strings.Join(fs, ",")
}

// getView returns (building and memoizing if needed) the view over the
// given sorted relation subset with the given free variables.
func (m *Recursive[P]) getView(rels []string, free data.Schema) *recView[P] {
	sig := viewSig(rels, free)
	if v, ok := m.views[sig]; ok {
		return v
	}
	v := &recView[P]{
		sig:    sig,
		rels:   rels,
		free:   free.Clone(),
		rel:    data.NewIndexedRelation(data.NewRelation(m.ring, free.Clone())),
		deltas: make(map[string]*joinStep[P]),
	}
	m.views[sig] = v

	for _, rname := range rels {
		if !m.updatable[rname] {
			continue
		}
		m.affected[rname] = append(m.affected[rname], v)
		rd, _ := m.q.Rel(rname)

		// Split the remaining relations into components connected through
		// variables not fixed by the update tuple (those outside sch(R)).
		var others []query.RelDef
		for _, n := range rels {
			if n != rname {
				od, _ := m.q.Rel(n)
				others = append(others, od)
			}
		}
		d := &joinStep[P]{ring: m.ring, lift: m.lift, keys: v.free}
		for _, comp := range connectedComponents(others, rd.Schema) {
			var compVars data.Schema
			compNames := make([]string, 0, len(comp))
			for _, c := range comp {
				compVars = compVars.Union(c.Schema)
				compNames = append(compNames, c.Name)
			}
			sort.Strings(compNames)
			cv := m.getView(compNames, compVars.Intersect(rd.Schema.Union(free)))
			d.siblings = append(d.siblings, &joinSibling[P]{
				name: cv.sig, keys: cv.free,
				stored: func() *data.IndexedRelation[P] { return cv.rel },
			})
		}
		// Every variable of R or of a component's free set is in the join,
		// so a compile error is a bug in the construction above.
		if err := d.compile(rd.Schema, rd.Schema.Minus(free)); err != nil {
			panic(fmt.Sprintf("ivm: δ_%s of view %s: %v", rname, sig, err))
		}
		v.deltas[rname] = d
	}
	m.order = append(m.order, v)
	return v
}

// connectedComponents groups relations connected by variables outside
// fixed.
func connectedComponents(rels []query.RelDef, fixed data.Schema) [][]query.RelDef {
	parent := make([]int, len(rels))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	byVar := make(map[string]int)
	for i, r := range rels {
		for _, v := range r.Schema {
			if fixed.Contains(v) {
				continue
			}
			if j, ok := byVar[v]; ok {
				parent[find(i)] = find(j)
			} else {
				byVar[v] = i
			}
		}
	}
	groups := make(map[int][]query.RelDef)
	var roots []int
	for i, r := range rels {
		root := find(i)
		if _, ok := groups[root]; !ok {
			roots = append(roots, root)
		}
		groups[root] = append(groups[root], r)
	}
	out := make([][]query.RelDef, 0, len(roots))
	for _, r := range roots {
		out = append(out, groups[r])
	}
	return out
}

// Load installs the initial contents of a relation.
func (m *Recursive[P]) Load(rel string, r *data.Relation[P]) error {
	if _, err := checkRel(m.q, rel, r); err != nil {
		return err
	}
	m.bases[rel] = r
	return nil
}

// Init evaluates every view of the hierarchy from the loaded relations and
// registers probe indexes.
func (m *Recursive[P]) Init() error {
	for _, v := range m.order {
		var inputs []*data.Relation[P]
		var vars data.Schema
		for _, name := range v.rels {
			rd, _ := m.q.Rel(name)
			vars = vars.Union(rd.Schema)
			base := m.bases[name]
			if base == nil {
				base = data.NewRelation(m.ring, rd.Schema)
			} else if !base.Schema().Equal(rd.Schema) {
				base = data.Project(base, rd.Schema)
			}
			inputs = append(inputs, base)
		}
		joined := data.JoinAll(inputs...)
		// Straight into the view: no index exists before bind.
		data.MarginalizeInto(v.rel.Relation, joined, vars.Minus(v.free), m.lift)
	}
	for _, v := range m.order {
		for _, d := range v.deltas {
			d.bind()
		}
	}
	m.bases = nil
	m.ready = true
	return nil
}

// check is the admission rule (checkUpdate).
func (m *Recursive[P]) check(rel string, delta *data.Relation[P]) error {
	return checkUpdate(m.ready, m.q, m.updatable, rel, delta)
}

// applyDelta is the update rule: it maintains every view whose relation set
// contains the updated relation. Component views never contain the updated
// relation, so each affected view's delta can be computed and merged
// independently.
func (m *Recursive[P]) applyDelta(rel string, delta *data.Relation[P]) error {
	if rd, _ := m.q.Rel(rel); !delta.Schema().Equal(rd.Schema) {
		delta = data.Project(delta, rd.Schema)
	}
	for _, v := range m.affected[rel] {
		v.rel.MergeAllIndexed(v.deltas[rel].exec(delta))
	}
	return nil
}

// ViewCount reports the number of materialized views in the hierarchy.
func (m *Recursive[P]) ViewCount() int { return len(m.views) }

// MemoryBytes estimates the footprint of all materialized views.
func (m *Recursive[P]) MemoryBytes() int {
	total := 0
	for _, v := range m.order {
		total += v.rel.MemoryBytes()
	}
	return total
}
