package viewtree

import (
	"fivm/internal/data"
	"fivm/internal/query"
	"fivm/internal/vorder"
)

// AddIndicators implements algorithm I(τ) from paper Figure 10: it walks
// the view tree and extends each inner view with indicator projections
// ∃_pk R of relations R that (a) are not among the view's own relations,
// (b) share variables pk with the view's keys, and (c) form a cycle with the
// view's children (detected by the GYO reduction). Indicator projections do
// not change the query result but constrain cyclic views — for the triangle
// query they shrink the O(N²) intermediate view to O(N).
//
// It returns the relations for which indicator leaves were added (a relation
// can feed several indicator leaves at different views).
func AddIndicators(root *Node, q query.Query) []*Node {
	var added []*Node
	var rec func(n *Node)
	rec = func(n *Node) {
		for _, c := range n.Children {
			rec(c)
		}
		if n.IsLeaf() {
			return
		}
		in := make(map[string]bool, len(n.Rels))
		for _, r := range n.Rels {
			in[r] = true
		}
		// Candidate indicators: outside relations overlapping our keys.
		var cands []query.RelDef
		for _, r := range q.Rels {
			if in[r.Name] {
				continue
			}
			pk := r.Schema.Intersect(n.Keys)
			if len(pk) > 0 {
				cands = append(cands, query.RelDef{Name: r.Name, Schema: pk})
			}
		}
		if len(cands) == 0 {
			return
		}
		// Build the hypergraph of child view schemas plus candidates; the
		// GYO residue identifies the edges participating in a cycle.
		var edges []vorder.Hyperedge
		for _, c := range n.Children {
			edges = append(edges, vorder.Hyperedge{Name: "child:" + c.Name(), Vars: c.Keys})
		}
		for _, cd := range cands {
			edges = append(edges, vorder.Hyperedge{Name: "ind:" + cd.Name, Vars: cd.Schema})
		}
		core := vorder.GYO(edges)
		inCore := make(map[string]bool, len(core))
		for _, e := range core {
			inCore[e.Name] = true
		}
		for _, cd := range cands {
			if !inCore["ind:"+cd.Name] {
				continue
			}
			leaf := &Node{
				Rel:       cd.Name,
				Indicator: true,
				Keys:      cd.Schema.Clone(),
				Rels:      nil, // indicators do not count as covered relations
				parent:    n,
			}
			n.Children = append(n.Children, leaf)
			added = append(added, leaf)
		}
	}
	rec(root)
	return added
}

// IndicatorTracker maintains one indicator projection ∃_A R incrementally.
// It counts, per projected key, how many base tuples with non-zero payload
// project onto it (paper Example B.2); the indicator's delta is non-empty
// only when a count crosses zero, so |δ(∃_A R)| ≤ |δR|.
type IndicatorTracker struct {
	proj   data.Projector
	counts map[string]int64
	tuples map[string]data.Tuple
}

// NewIndicatorTracker creates a tracker projecting relation tuples over
// relSchema onto the indicator keys.
func NewIndicatorTracker(relSchema, keys data.Schema) *IndicatorTracker {
	return &IndicatorTracker{
		proj:   data.MustProjector(relSchema, keys),
		counts: make(map[string]int64),
		tuples: make(map[string]data.Tuple),
	}
}

// Update records that the base tuple t appeared (delta +1) or disappeared
// (delta -1) and returns the indicator delta payload: +1 when the projected
// key becomes live, -1 when it dies, 0 otherwise.
func (tr *IndicatorTracker) Update(t data.Tuple, delta int64) (data.Tuple, int64) {
	key := tr.proj.Key(t)
	old := tr.counts[key]
	now := old + delta
	pt, ok := tr.tuples[key]
	if !ok {
		pt = tr.proj.Apply(t)
	}
	switch {
	case now == 0:
		delete(tr.counts, key)
		delete(tr.tuples, key)
	default:
		tr.counts[key] = now
		tr.tuples[key] = pt
	}
	switch {
	case old == 0 && now != 0:
		return pt, 1
	case old != 0 && now == 0:
		return pt, -1
	default:
		return pt, 0
	}
}
