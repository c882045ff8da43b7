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
	driver[P] // ApplyDelta, ApplyDeltas, Snapshot over applyDelta

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

	// Reusable scratch for viewDelta (single-threaded per maintainer).
	items, spare []workItem[P]
	prods        prodBuf[P]
	keyBuf       []byte
}

type recView[P any] struct {
	sig    string
	rels   []string // sorted relation names
	free   data.Schema
	rel    *data.IndexedRelation[P]
	deltas map[string]*recDelta[P]
}

type recDelta[P any] struct {
	comps   []recComp[P]
	acc     data.Schema
	marg    []margVar
	outProj data.Projector
}

type recComp[P any] struct {
	view      *recView[P]
	common    data.Schema
	probeProj data.Projector
	full      bool
	extra     data.Schema
	extraProj data.Projector
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
	m.driver = driver[P]{apply: m.applyDelta, epoch: func() *ViewSnapshot[P] { return liveEpoch(m.Result()) }}
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
		deltas: make(map[string]*recDelta[P]),
	}
	m.views[sig] = v

	for _, rname := range rels {
		if !m.updatable[rname] {
			continue
		}
		m.affected[rname] = append(m.affected[rname], v)
		if len(rels) == 1 {
			continue // single-relation views aggregate the delta directly
		}
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
		comps := connectedComponents(others, rd.Schema)

		d := &recDelta[P]{acc: rd.Schema.Clone()}
		for _, comp := range comps {
			var compVars data.Schema
			compNames := make([]string, 0, len(comp))
			for _, c := range comp {
				compVars = compVars.Union(c.Schema)
				compNames = append(compNames, c.Name)
			}
			sort.Strings(compNames)
			freeC := compVars.Intersect(rd.Schema.Union(free))
			d.comps = append(d.comps, recComp[P]{view: m.getView(compNames, freeC)})
		}

		// Order components greedily by overlap with the accumulated schema
		// and precompute probe/extension projections.
		acc := rd.Schema.Clone()
		pending := d.comps
		d.comps = nil
		for len(pending) > 0 {
			best, bestOverlap := 0, -1
			for i, c := range pending {
				if ov := len(c.view.free.Intersect(acc)); ov > bestOverlap {
					best, bestOverlap = i, ov
				}
			}
			c := pending[best]
			pending = append(pending[:best], pending[best+1:]...)
			c.common = c.view.free.Intersect(acc)
			c.probeProj = data.MustProjector(acc, c.common)
			c.full = c.common.SameSet(c.view.free)
			c.extra = c.view.free.Minus(c.common)
			c.extraProj = data.MustProjector(c.view.free, c.extra)
			d.comps = append(d.comps, c)
			acc = acc.Union(c.extra)
		}
		d.acc = acc
		for _, x := range rd.Schema.Minus(free) {
			d.marg = append(d.marg, margVar{name: x, idx: acc.IndexOf(x)})
		}
		d.outProj = data.MustProjector(acc, free)
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
		agg := data.MarginalizeVars(joined, vars.Minus(v.free), m.lift)
		v.rel.MergeAllIndexed(data.Project(agg, v.free))
	}
	for _, v := range m.order {
		for _, d := range v.deltas {
			for _, c := range d.comps {
				if !c.full {
					c.view.rel.EnsureIndex(c.common)
				}
			}
		}
	}
	m.bases = nil
	m.ready = true
	return nil
}

// applyDelta is the update rule: it maintains every view whose relation set
// contains the updated relation. Component views never contain the updated
// relation, so each affected view's delta can be computed and merged
// independently.
func (m *Recursive[P]) applyDelta(rel string, delta *data.Relation[P]) error {
	if !m.ready {
		return fmt.Errorf("ivm: ApplyDelta before Init")
	}
	rd, err := checkRel(m.q, rel, delta)
	if err != nil {
		return err
	}
	if !m.updatable[rel] {
		return fmt.Errorf("ivm: relation %q is not updatable", rel)
	}
	if !delta.Schema().Equal(rd.Schema) {
		delta = data.Project(delta, rd.Schema)
	}
	for _, v := range m.affected[rel] {
		dv := m.viewDelta(v, rel, rd, delta)
		v.rel.MergeAllIndexed(dv)
	}
	return nil
}

// viewDelta computes δ_rel V for one view.
func (m *Recursive[P]) viewDelta(v *recView[P], rel string, rd query.RelDef, delta *data.Relation[P]) *data.Relation[P] {
	if len(v.rels) == 1 {
		agg := data.MarginalizeVars(delta, rd.Schema.Minus(v.free), m.lift)
		return data.Project(agg, v.free)
	}
	d := v.deltas[rel]
	items := m.items[:0]
	delta.IterateEntries(func(en *data.Entry[P]) bool {
		items = append(items, workItem[P]{t: en.Tuple, p: &en.Payload})
		return true
	})
	spare := m.spare
	if m.prods.r == nil {
		m.prods = newProdBuf[P](m.ring)
	}
	m.prods.reset()
	for _, c := range d.comps {
		if len(items) == 0 {
			break
		}
		next := spare[:0]
		if c.full {
			for _, it := range items {
				if en := c.view.rel.LookupProjected(c.probeProj, it.t); en != nil {
					next = append(next, workItem[P]{t: it.t, p: m.prods.product(it.p, &en.Payload)})
				}
			}
		} else {
			ix := c.view.rel.EnsureIndex(c.common)
			extraLen := c.extraProj.Len()
			for _, it := range items {
				m.keyBuf = c.probeProj.AppendKey(m.keyBuf[:0], it.t)
				for en := range ix.ProbeBytes(m.keyBuf).All() {
					tt := make(data.Tuple, 0, len(it.t)+extraLen)
					tt = append(tt, it.t...)
					tt = c.extraProj.AppendTo(tt, en.Tuple)
					next = append(next, workItem[P]{t: tt, p: m.prods.product(it.p, &en.Payload)})
				}
			}
		}
		items, spare = next, items
	}
	m.items, m.spare = items, spare
	out := data.NewRelation(m.ring, v.free)
	out.Reserve(len(items))
	for _, it := range items {
		if len(d.marg) > 0 {
			lp := m.lift(d.marg[0].name, it.t[d.marg[0].idx])
			for _, mv := range d.marg[1:] {
				lp = m.ring.Mul(lp, m.lift(mv.name, it.t[mv.idx]))
			}
			out.MergeMulProjected(d.outProj, it.t, it.p, &lp)
		} else {
			out.MergeProjected(d.outProj, it.t, *it.p)
		}
	}
	return out
}

// Result returns the root view as a live handle; see the Maintainer
// contract — concurrent readers must go through Snapshot.
func (m *Recursive[P]) Result() *data.Relation[P] { return m.root.rel.Relation }

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
