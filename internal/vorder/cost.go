package vorder

import (
	"fmt"
	"slices"

	"fivm/internal/data"
	"fivm/internal/query"
)

// Default estimates used for relations and variables with no collected
// statistics. Their absolute values barely matter — candidate orders are
// compared against each other under the same defaults, so with no stats the
// cost model degenerates to a structural ranking that generalizes Width
// (smaller view key schemas and shorter shared paths win).
const (
	defaultCard     = 1024
	defaultDistinct = 32
	minStreamLen    = 1024
)

// CostModel estimates view sizes and per-update maintenance costs for
// candidate variable orders from collected statistics (data.Stats). It
// replaces the width-only ranking of Order.Width: where width bounds every
// view by |D|^k, the model estimates each view's actual size from
// per-variable distinct counts and per-relation cardinalities, and weights
// each updatable relation's leaf-to-root delta path by its observed share of
// the update stream.
type CostModel struct {
	q     query.Query
	stats *data.Stats

	card map[string]float64 // per relation
	dist map[string]float64 // per variable: min across containing relations
	rate map[string]float64 // per relation: share of update traffic (0 if not updatable)
	memW float64            // amortized cost of one stored view entry, in update-ops
}

// NewCostModel builds a cost model for the query from collected statistics
// (st may be nil: structural defaults apply) and the set of updatable
// relations (nil or empty means all).
func NewCostModel(q query.Query, st *data.Stats, updatable []string) *CostModel {
	m := &CostModel{
		q:     q,
		stats: st,
		card:  make(map[string]float64, len(q.Rels)),
		dist:  make(map[string]float64),
		rate:  make(map[string]float64, len(q.Rels)),
	}

	for _, rd := range q.Rels {
		c := float64(0)
		if rs := st.Lookup(rd.Name); rs != nil {
			c = rs.Card()
		}
		if c <= 0 {
			c = defaultCard
		}
		m.card[rd.Name] = c
	}

	// Distinct counts: the join binds each variable at least as tightly as
	// its most selective relation, so take the min across containing
	// relations, clamped to [1, card].
	for _, v := range q.Vars() {
		best := 0.0
		for _, rd := range q.Rels {
			if !rd.Schema.Contains(v) {
				continue
			}
			d := 0.0
			if rs := st.Lookup(rd.Name); rs != nil {
				d = rs.Distinct(v)
			}
			if d <= 0 {
				d = defaultDistinct
			}
			if c := m.card[rd.Name]; d > c {
				d = c
			}
			if best == 0 || d < best {
				best = d
			}
		}
		if best < 1 {
			best = 1
		}
		m.dist[v] = best
	}

	// Update-rate shares: observed delta traffic with a cardinality-
	// proportional prior (round-robin streams feed relations until they
	// exhaust, so larger relations see more updates). Non-updatable
	// relations get rate 0 — their paths are never exercised.
	upd := make(map[string]bool, len(updatable))
	for _, r := range updatable {
		upd[r] = true
	}
	totalCard := 0.0
	for _, rd := range q.Rels {
		if len(upd) == 0 || upd[rd.Name] {
			totalCard += m.card[rd.Name]
		}
	}
	var totalDeltas float64
	for _, rd := range q.Rels {
		if rs := st.Lookup(rd.Name); rs != nil {
			totalDeltas += float64(rs.DeltaTuples)
		}
	}
	const priorWeight = 1024
	for _, rd := range q.Rels {
		if len(upd) > 0 && !upd[rd.Name] {
			continue
		}
		observed := 0.0
		if rs := st.Lookup(rd.Name); rs != nil {
			observed = float64(rs.DeltaTuples)
		}
		prior := 0.0
		if totalCard > 0 {
			prior = m.card[rd.Name] / totalCard
		}
		m.rate[rd.Name] = (observed + priorWeight*prior) / (totalDeltas + priorWeight)
	}

	// One stored entry costs one merge to build; amortized over the expected
	// stream length it becomes the per-update price of materialized state.
	horizon := totalCard
	if st != nil {
		if d := float64(st.TotalDeltaTuples()); d > horizon {
			horizon = d
		}
	}
	if horizon < minStreamLen {
		horizon = minStreamLen
	}
	m.memW = 1 / horizon
	return m
}

// Distinct returns the estimated distinct count of a variable in the join.
func (m *CostModel) Distinct(v string) float64 {
	if d, ok := m.dist[v]; ok {
		return d
	}
	return defaultDistinct
}

// RelCard returns the estimated cardinality of a relation.
func (m *CostModel) RelCard(name string) float64 {
	if c, ok := m.card[name]; ok {
		return c
	}
	return defaultCard
}

// Rate returns a relation's estimated share of the update stream (0 for
// non-updatable relations).
func (m *CostModel) Rate(name string) float64 { return m.rate[name] }

// ViewSizeOver estimates the cardinality of a view with the given key
// schema, defined over the named relations: the product of the keys'
// distinct counts, capped by any single participating relation whose schema
// covers all the keys (a view cannot have more keys than a relation it
// joins in and projects from). rels == nil means all query relations.
func (m *CostModel) ViewSizeOver(keys data.Schema, rels []string) float64 {
	size := 1.0
	for _, v := range keys {
		size *= m.Distinct(v)
	}
	for _, rd := range m.q.Rels {
		if rels != nil && !slices.Contains(rels, rd.Name) {
			continue
		}
		if rd.Schema.ContainsAll(keys) {
			if c := m.RelCard(rd.Name); c < size {
				size = c
			}
		}
	}
	if size < 1 {
		size = 1
	}
	return size
}

// ViewSize is ViewSizeOver across all query relations.
func (m *CostModel) ViewSize(keys data.Schema) float64 { return m.ViewSizeOver(keys, nil) }

// varFanout estimates how many values of v join with one already-bound
// tuple: the per-tuple degree of v's most selective relation, capped by v's
// distinct count.
func (m *CostModel) varFanout(v string) float64 {
	f := m.Distinct(v)
	for _, rd := range m.q.Rels {
		if !rd.Schema.Contains(v) {
			continue
		}
		co := 1.0
		for _, w := range rd.Schema {
			if w != v {
				co *= m.Distinct(w)
			}
		}
		deg := m.RelCard(rd.Name) / co
		if deg < 1 {
			deg = 1
		}
		if deg < f {
			f = deg
		}
	}
	return f
}

// DeltaSizeOver estimates the number of entries in the delta of a view with
// the given keys, defined over the named relations (nil: all), caused by a
// single-tuple update to a relation with schema relSchema: one entry per
// combination of key variables the update does not bind, each weighted by
// its join fanout, capped by the view size over rels, so the cap is not
// polluted by unrelated covering relations. This is the quantity the paper's
// O(1)-vs-O(N) update-cost distinction measures — orders that keep an
// updatable relation's variables covering its path have a delta size of 1 all
// the way to the root.
func (m *CostModel) DeltaSizeOver(keys, relSchema data.Schema, rels []string) float64 {
	size := 1.0
	for _, v := range keys {
		if !relSchema.Contains(v) {
			size *= m.varFanout(v)
		}
	}
	if vs := m.ViewSizeOver(keys, rels); vs < size {
		size = vs
	}
	if size < 1 {
		size = 1
	}
	return size
}

// DeltaSizeFor is DeltaSizeOver for a named relation of the model's query.
func (m *CostModel) DeltaSizeFor(keys data.Schema, rel string, over []string) float64 {
	rd, ok := m.q.Rel(rel)
	if !ok {
		return 1
	}
	return m.DeltaSizeOver(keys, rd.Schema, over)
}

// Amortized converts a stored-entry count into per-update cost units.
func (m *CostModel) Amortized(entries float64) float64 { return entries * m.memW }

// JoinFanout estimates the work of joining one tuple with the bound
// variables against views with the given key schemas in sequence (the cost
// of computing a probed view inline from its children instead of storing
// it): probes is the total number of index probes issued, fanout the number
// of output tuples. Each probe's expansion is the ratio of the probed view's
// size to the bound portion of its key — the average bucket size of the
// probe index.
func (m *CostModel) JoinFanout(bound data.Schema, others []data.Schema) (probes, fanout float64) {
	acc := bound.Clone()
	work := 1.0
	probes = 0
	for _, keys := range others {
		probes += work
		boundPart := 1.0
		for _, v := range keys {
			if acc.Contains(v) {
				boundPart *= m.Distinct(v)
			}
		}
		f := m.ViewSize(keys) / boundPart
		if f < 1 {
			f = 1
		}
		work *= f
		acc = acc.Union(keys)
	}
	return probes, work
}

// OrderCost is the estimated cost breakdown of one prepared variable order.
type OrderCost struct {
	// Update is the expected number of join/merge operations per update
	// tuple, summed over the updatable relations' delta paths weighted by
	// their rates.
	Update float64
	// ViewEntries is the estimated total number of stored view entries.
	ViewEntries float64
	// Memory is ViewEntries amortized over the expected stream length, in
	// the same per-update units as Update.
	Memory float64
}

// Total is the scalar the optimizer minimizes.
func (c OrderCost) Total() float64 { return c.Update + c.Memory }

func (c OrderCost) String() string {
	return fmt.Sprintf("total %.3f (update %.3f + mem %.3f, ~%.0f view entries)",
		c.Total(), c.Update, c.Memory, c.ViewEntries)
}

// Cost estimates the cost of a prepared variable order for the model's
// query: for every view the order induces, an amortized storage term plus,
// for each updatable relation anchored below it, the estimated delta size at
// that view weighted by the relation's update rate. The order must have been
// prepared (or built by Build/Choose) for the same query.
func (m *CostModel) Cost(o *Order) OrderCost {
	free := m.q.Free
	var cost OrderCost

	// viewKeys mirrors the viewtree key rule: dep(X) plus retained free
	// variables from below, plus X itself when free.
	var keysOf func(n *Node) data.Schema
	keyMemo := make(map[*Node]data.Schema)
	keysOf = func(n *Node) data.Schema {
		if k, ok := keyMemo[n]; ok {
			return k
		}
		keys := n.Dep.Clone()
		for _, c := range n.Children {
			keys = keys.Union(free.Intersect(keysOf(c)))
		}
		for _, rel := range n.Rels {
			if rd, ok := m.q.Rel(rel); ok {
				keys = keys.Union(free.Intersect(rd.Schema))
			}
		}
		if free.Contains(n.Var) {
			keys = keys.Union(data.Schema{n.Var})
		} else {
			keys = keys.Minus(data.Schema{n.Var})
		}
		keyMemo[n] = keys
		return keys
	}

	// relsBelow accumulates, per node, the relations anchored in its subtree
	// (the relations whose delta paths pass through the node's view).
	var walk func(n *Node) []string
	walk = func(n *Node) []string {
		rels := append([]string(nil), n.Rels...)
		for _, c := range n.Children {
			rels = append(rels, walk(c)...)
		}
		keys := keysOf(n)
		size := m.ViewSizeOver(keys, rels)
		cost.ViewEntries += size
		cost.Memory += m.memW * size
		for _, rel := range rels {
			r := m.rate[rel]
			if r == 0 {
				continue
			}
			rd, _ := m.q.Rel(rel)
			cost.Update += r * m.DeltaSizeOver(keys, rd.Schema, rels)
		}
		return rels
	}
	for _, root := range o.Roots {
		walk(root)
	}
	return cost
}
