package vorder

import (
	"errors"
	"sort"
	"strings"

	"fivm/internal/data"
	"fivm/internal/query"
)

// chooseBudget caps the number of distinct subproblems Choose's enumerator
// expands; on exhaustion it falls back to the greedy Build heuristic.
// Realistic queries have a handful of join variables and use a tiny fraction
// of it.
const chooseBudget = 20000

var errBudget = errors.New("vorder: enumeration budget exhausted")

// Choose selects a variable order for the query by enumerating canonical
// candidates and ranking them with the cost model — the system's replacement
// for caller-supplied handpicked orders.
//
// The enumeration is GYO-guided: variables occurring in two or more
// hyperedges (the ones GYO's ear removal cannot immediately eliminate) are
// the only branch candidates, enumerated top-down over the connected
// components of the join hypergraph exactly as Build decomposes it; a
// relation's private variables — GYO ears — are placed as a canonical chain
// below the relation's anchor, where every candidate order would put them
// anyway. Free variables are placed above bound ones, as group-by queries
// require. Subproblems are memoized on the residual hypergraph (component
// costs are context-independent: a view's key schema is determined by the
// variables already removed from its component's relations), so shared
// sub-orders are solved once and reused across candidates.
//
// Candidates are ranked by m; nil means the structural model,
// NewCostModel(q, nil, nil). The returned order is prepared for q. Choose
// never returns an order that the model ranks worse than the greedy Build
// heuristic.
func Choose(q query.Query, m *CostModel) (*Order, error) { return choose(q, m, chooseBudget) }

// choose is Choose with budget as its enumeration budget.
func choose(q query.Query, m *CostModel, budget int) (*Order, error) {
	if m == nil {
		m = NewCostModel(q, nil, nil)
	}
	greedy, gerr := Build(q)
	if len(q.Rels) == 0 {
		return greedy, gerr
	}

	en := &enumerator{
		m:      m,
		free:   q.Free,
		budget: budget,
		memo:   make(map[string]memoEntry),
	}

	edges := make([]hedge, 0, len(q.Rels))
	for _, rd := range q.Rels {
		edges = append(edges, hedge{name: rd.Name, orig: rd.Schema, rem: rd.Schema})
	}

	var builders []func() *Node
	for _, comp := range splitHedges(edges) {
		entry, err := en.solve(comp)
		if err != nil {
			return greedy, gerr // budget exhausted: greedy fallback
		}
		builders = append(builders, entry.build)
	}
	roots := make([]*Node, 0, len(builders))
	for _, b := range builders {
		roots = append(roots, b())
	}
	chosen, err := New(roots...)
	if err != nil {
		return greedy, gerr
	}
	if err := chosen.Prepare(q); err != nil {
		return greedy, gerr
	}
	// Safety net: if the exact walk over the assembled order disagrees with
	// the additive DP estimate and ranks the greedy order lower, prefer it.
	if gerr == nil && m.Cost(greedy).Total() < m.Cost(chosen).Total() {
		return greedy, nil
	}
	return chosen, nil
}

// hedge is a relation during enumeration: its original schema and the
// variables not yet consumed by ancestors.
type hedge struct {
	name string
	orig data.Schema
	rem  data.Schema
}

type memoEntry struct {
	cost float64
	// build constructs a fresh subtree (nodes carry parent pointers, so a
	// memoized result must be re-instantiated at every use site).
	build func() *Node
}

type enumerator struct {
	m          *CostModel
	free       data.Schema
	memo       map[string]memoEntry
	budget     int
	expansions int
}

// key canonicalizes a component for memoization.
func componentKey(es []hedge) string {
	names := make([]string, len(es))
	for i, e := range es {
		names[i] = e.name + ":" + strings.Join(e.rem, ",")
	}
	sort.Strings(names)
	return strings.Join(names, "|")
}

// splitHedges partitions edges into connected components by shared remaining
// variables, preserving first-edge order; edges with no remaining variables
// are dropped (they are anchored above).
func splitHedges(es []hedge) [][]hedge {
	parent := make([]int, len(es))
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
	for i, e := range es {
		for _, v := range e.rem {
			if j, ok := byVar[v]; ok {
				parent[find(i)] = find(j)
			} else {
				byVar[v] = i
			}
		}
	}
	groups := make(map[int][]hedge)
	var order []int
	for i, e := range es {
		if len(e.rem) == 0 {
			continue
		}
		r := find(i)
		if _, ok := groups[r]; !ok {
			order = append(order, r)
		}
		groups[r] = append(groups[r], e)
	}
	out := make([][]hedge, 0, len(order))
	for _, r := range order {
		out = append(out, groups[r])
	}
	return out
}

// nodeCost estimates the cost contribution of the view at variable v rooted
// over component es (v must still be remaining): an amortized storage term
// plus the rate-weighted delta sizes of the component's updatable relations.
// It also returns the view's estimated key schema.
func (en *enumerator) nodeCost(es []hedge, v string) (float64, data.Schema) {
	var removed, remaining data.Schema
	for _, e := range es {
		removed = removed.Union(e.orig.Minus(e.rem))
		remaining = remaining.Union(e.rem)
	}
	keys := removed.Union(en.free.Intersect(remaining))
	if !en.free.Contains(v) {
		keys = keys.Minus(data.Schema{v})
	}
	rels := make([]string, len(es))
	for i, e := range es {
		rels[i] = e.name
	}
	size := en.m.ViewSizeOver(keys, rels)
	cost := en.m.memW * size
	for _, e := range es {
		if r := en.m.Rate(e.name); r > 0 {
			cost += r * en.m.DeltaSizeOver(keys, e.orig, rels)
		}
	}
	return cost, keys
}

// solve returns the cheapest subtree for a connected component.
func (en *enumerator) solve(es []hedge) (memoEntry, error) {
	key := componentKey(es)
	if entry, ok := en.memo[key]; ok {
		return entry, nil
	}
	en.expansions++
	if en.expansions > en.budget {
		return memoEntry{}, errBudget
	}

	// Candidate roots: free variables first (they must sit above bound
	// ones), then the join variables — those in >= 2 edges, which GYO's ear
	// removal cannot eliminate. A component with neither is a single
	// relation's private chain.
	count := make(map[string]int)
	var varOrder data.Schema
	for _, e := range es {
		for _, v := range e.rem {
			if count[v] == 0 {
				varOrder = append(varOrder, v)
			}
			count[v]++
		}
	}
	var cands []string
	for _, v := range varOrder {
		if en.free.Contains(v) {
			cands = append(cands, v)
		}
	}
	if len(cands) == 0 {
		for _, v := range varOrder {
			if count[v] >= 2 {
				cands = append(cands, v)
			}
		}
	}
	if len(cands) == 0 {
		entry := en.chain(es[0])
		en.memo[key] = entry
		return entry, nil
	}
	// Deterministic exploration: prefer higher coverage, then name.
	sort.Slice(cands, func(i, j int) bool {
		if count[cands[i]] != count[cands[j]] {
			return count[cands[i]] > count[cands[j]]
		}
		return cands[i] < cands[j]
	})

	best := memoEntry{cost: -1}
	for _, v := range cands {
		cost, _ := en.nodeCost(es, v)
		next := make([]hedge, len(es))
		for i, e := range es {
			next[i] = hedge{name: e.name, orig: e.orig, rem: e.rem.Minus(data.Schema{v})}
		}
		var childBuilders []func() *Node
		ok := true
		for _, comp := range splitHedges(next) {
			entry, err := en.solve(comp)
			if err != nil {
				return memoEntry{}, err
			}
			cost += entry.cost
			childBuilders = append(childBuilders, entry.build)
			if best.cost >= 0 && cost >= best.cost {
				ok = false
				break
			}
		}
		if !ok || (best.cost >= 0 && cost >= best.cost) {
			continue
		}
		v := v
		builders := childBuilders
		best = memoEntry{cost: cost, build: func() *Node {
			n := V(v)
			for _, b := range builders {
				n.Children = append(n.Children, b())
			}
			return n
		}}
	}
	en.memo[key] = best
	return best, nil
}

// chain places a single relation's private variables as a canonical
// root-to-leaf chain (free variables first, otherwise schema order) and
// sums the per-node costs.
func (en *enumerator) chain(e hedge) memoEntry {
	var vars data.Schema
	for _, v := range e.rem {
		if en.free.Contains(v) {
			vars = append(vars, v)
		}
	}
	for _, v := range e.rem {
		if !en.free.Contains(v) {
			vars = append(vars, v)
		}
	}
	cost := 0.0
	cur := e
	for _, v := range vars {
		c, _ := en.nodeCost([]hedge{cur}, v)
		cost += c
		cur = hedge{name: cur.name, orig: cur.orig, rem: cur.rem.Minus(data.Schema{v})}
	}
	chainVars := vars
	return memoEntry{cost: cost, build: func() *Node { return Chain(chainVars...) }}
}
