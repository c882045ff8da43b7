// Package vorder implements variable orders (paper Definition 3.1): rooted
// forests with one node per query variable, plus the dependency sets dep(X)
// that determine view schemas. Variable orders play the role of query plans
// in F-IVM — they dictate the order in which join variables are solved and
// which marginalizations are pushed past joins.
package vorder

import (
	"fmt"
	"sort"
	"strings"

	"fivm/internal/data"
	"fivm/internal/query"
)

// Node is one variable in a variable order.
type Node struct {
	// Var is the variable name.
	Var string
	// Children are the variables directly below this one.
	Children []*Node
	// Dep is dep(Var): the ancestors on which the variables in the subtree
	// rooted here depend (they co-occur in some relation with a subtree
	// variable). Populated by ComputeDeps / Build.
	Dep data.Schema
	// Rels names the relations anchored at this node: those whose lowest
	// variable in the order is Var. Populated by anchorRels / Build.
	Rels []string

	parent *Node
}

// Order is a variable order: a rooted forest over the query variables.
type Order struct {
	Roots []*Node

	nodes map[string]*Node
}

// New assembles an order from its roots, wiring parent pointers and
// checking that variable names are unique.
func New(roots ...*Node) (*Order, error) {
	o := &Order{Roots: roots, nodes: make(map[string]*Node)}
	var walk func(n, parent *Node) error
	walk = func(n, parent *Node) error {
		if _, dup := o.nodes[n.Var]; dup {
			return fmt.Errorf("vorder: duplicate variable %q", n.Var)
		}
		o.nodes[n.Var] = n
		n.parent = parent
		for _, c := range n.Children {
			if err := walk(c, n); err != nil {
				return err
			}
		}
		return nil
	}
	for _, r := range roots {
		if err := walk(r, nil); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// MustNew is New that panics on error.
func MustNew(roots ...*Node) *Order {
	o, err := New(roots...)
	if err != nil {
		panic(err)
	}
	return o
}

// V builds a node with children, a convenience for literal orders:
// V("A", V("B"), V("C", V("D"))).
func V(name string, children ...*Node) *Node {
	return &Node{Var: name, Children: children}
}

// Chain builds a single-path order node: Chain("A","B","C") is A-B-C.
func Chain(vars ...string) *Node {
	if len(vars) == 0 {
		return nil
	}
	root := V(vars[0])
	cur := root
	for _, v := range vars[1:] {
		c := V(v)
		cur.Children = append(cur.Children, c)
		cur = c
	}
	return root
}

// Walk visits every node in depth-first preorder.
func (o *Order) Walk(f func(n *Node)) {
	var rec func(n *Node)
	rec = func(n *Node) {
		f(n)
		for _, c := range n.Children {
			rec(c)
		}
	}
	for _, r := range o.Roots {
		rec(r)
	}
}

// Ancestors returns the variables strictly above n, nearest first.
func (o *Order) Ancestors(n *Node) data.Schema {
	var out data.Schema
	for p := n.parent; p != nil; p = p.parent {
		out = append(out, p.Var)
	}
	return out
}

// subtreeVars collects the variables of the subtree rooted at n.
func subtreeVars(n *Node, out map[string]bool) {
	out[n.Var] = true
	for _, c := range n.Children {
		subtreeVars(c, out)
	}
}

// Prepare validates the order against the query, anchors relations at their
// lowest variables, and computes all dependency sets. It must be called (or
// the order built via Build) before constructing view trees.
func (o *Order) Prepare(q query.Query) error {
	if err := o.Validate(q); err != nil {
		return err
	}
	o.anchorRels(q)
	o.computeDeps(q)
	return nil
}

// Validate checks Definition 3.1: for each relation, its variables must lie
// along a single root-to-leaf path, and every query variable must appear in
// the order exactly once.
func (o *Order) Validate(q query.Query) error {
	for _, v := range q.Vars() {
		if o.nodes[v] == nil {
			return fmt.Errorf("vorder: query variable %q missing from order", v)
		}
	}
	if extra := len(o.nodes) - len(q.Vars()); extra != 0 {
		for v := range o.nodes {
			if !q.Vars().Contains(v) {
				return fmt.Errorf("vorder: variable %q not in query", v)
			}
		}
	}
	for _, r := range q.Rels {
		// All of r's variables lie on one path iff the deepest of them has
		// every other one among its ancestors (or itself).
		deepest := o.deepestOf(r.Schema)
		anc := map[string]bool{deepest.Var: true}
		for p := deepest.parent; p != nil; p = p.parent {
			anc[p.Var] = true
		}
		for _, v := range r.Schema {
			if !anc[v] {
				return fmt.Errorf("vorder: relation %s: variables %v not on one root-to-leaf path", r.Name, r.Schema)
			}
		}
	}
	return nil
}

func (o *Order) depth(n *Node) int {
	d := 0
	for p := n.parent; p != nil; p = p.parent {
		d++
	}
	return d
}

func (o *Order) deepestOf(vars data.Schema) *Node {
	var best *Node
	bestDepth := -1
	for _, v := range vars {
		if n := o.nodes[v]; n != nil {
			if d := o.depth(n); d > bestDepth {
				best, bestDepth = n, d
			}
		}
	}
	return best
}

// anchorRels assigns each relation to the node of its deepest variable.
func (o *Order) anchorRels(q query.Query) {
	o.Walk(func(n *Node) { n.Rels = nil })
	for _, r := range q.Rels {
		n := o.deepestOf(r.Schema)
		n.Rels = append(n.Rels, r.Name)
	}
}

// computeDeps fills in dep(X) for every node: the ancestors of X that
// co-occur in some relation with a variable in X's subtree.
func (o *Order) computeDeps(q query.Query) {
	o.Walk(func(n *Node) {
		sub := make(map[string]bool)
		subtreeVars(n, sub)
		anc := o.Ancestors(n)
		var dep data.Schema
		for _, a := range anc {
			co := false
			for _, r := range q.Rels {
				if !r.Schema.Contains(a) {
					continue
				}
				for _, v := range r.Schema {
					if sub[v] {
						co = true
						break
					}
				}
				if co {
					break
				}
			}
			if co {
				dep = append(dep, a)
			}
		}
		// Keep dep in root-to-node order for readable view schemas.
		for i, j := 0, len(dep)-1; i < j; i, j = i+1, j-1 {
			dep[i], dep[j] = dep[j], dep[i]
		}
		n.Dep = dep
	})
}

// Build constructs an order for query q using a greedy decomposition
// heuristic: choose the variable occurring in the most relations as the
// root, remove it, split the remaining relations into connected components,
// and recurse per component. Free variables are preferred at each step so
// they sit above bound variables, which the paper requires for group-by
// queries. The result satisfies Definition 3.1 for any query, cyclic or not.
func Build(q query.Query) (*Order, error) {
	var edges []edge
	for _, r := range q.Rels {
		vs := make(map[string]bool, len(r.Schema))
		for _, v := range r.Schema {
			vs[v] = true
		}
		edges = append(edges, edge{name: r.Name, vars: vs})
	}

	free := make(map[string]bool, len(q.Free))
	for _, v := range q.Free {
		free[v] = true
	}

	var decompose func(es []edge) []*Node
	decompose = func(es []edge) []*Node {
		// Gather remaining variables and their relation counts.
		count := make(map[string]int)
		for _, e := range es {
			for v := range e.vars {
				count[v]++
			}
		}
		if len(count) == 0 {
			return nil
		}
		// Pick the best variable: free before bound, then by descending
		// relation count, then by name for determinism.
		vars := make([]string, 0, len(count))
		for v := range count {
			vars = append(vars, v)
		}
		sort.Slice(vars, func(i, j int) bool {
			vi, vj := vars[i], vars[j]
			if free[vi] != free[vj] {
				return free[vi]
			}
			if count[vi] != count[vj] {
				return count[vi] > count[vj]
			}
			return vi < vj
		})
		pick := vars[0]

		// Remove the picked variable from all edges.
		next := make([]edge, 0, len(es))
		for _, e := range es {
			vs := make(map[string]bool, len(e.vars))
			for v := range e.vars {
				if v != pick {
					vs[v] = true
				}
			}
			next = append(next, edge{name: e.name, vars: vs})
		}

		// Split into connected components by shared variables.
		comps := components(next)
		node := V(pick)
		for _, comp := range comps {
			node.Children = append(node.Children, decompose(comp)...)
		}
		return []*Node{node}
	}

	roots := decompose(edges)
	o, err := New(roots...)
	if err != nil {
		return nil, err
	}
	if err := o.Prepare(q); err != nil {
		return nil, err
	}
	return o, nil
}

// edge is a relation viewed as a hypergraph edge during Build.
type edge struct {
	name string
	vars map[string]bool
}

// components splits edges into connected components; edges with no
// remaining variables are dropped (their relations are fully anchored).
func components(es []edge) [][]edge {
	// Union-find over edge indices connected through shared variables.
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
	union := func(a, b int) { parent[find(a)] = find(b) }

	byVar := make(map[string]int)
	for i, e := range es {
		for v := range e.vars {
			if j, ok := byVar[v]; ok {
				union(i, j)
			} else {
				byVar[v] = i
			}
		}
	}
	groups := make(map[int][]edge)
	var order []int
	for i, e := range es {
		if len(e.vars) == 0 {
			continue
		}
		r := find(i)
		if _, ok := groups[r]; !ok {
			order = append(order, r)
		}
		groups[r] = append(groups[r], e)
	}
	out := make([][]edge, 0, len(order))
	for _, r := range order {
		out = append(out, groups[r])
	}
	return out
}

// Width returns the width of the prepared order: the largest view key size
// the order induces, max over variables of |dep(X) ∪ free-vars-below|. For
// queries without free variables this is the factorization width that
// bounds view sizes as |D|^width (paper Section 3, citing the size bounds
// of factorized representations); smaller widths mean smaller views and
// cheaper maintenance, so Width is the natural cost to compare candidate
// orders with.
func (o *Order) Width(q query.Query) int {
	free := make(map[string]bool, len(q.Free))
	for _, v := range q.Free {
		free[v] = true
	}
	width := 0
	o.Walk(func(n *Node) {
		keys := len(n.Dep)
		if free[n.Var] {
			keys++ // the variable itself is retained
		}
		if keys > width {
			width = keys
		}
	})
	return width
}

// String renders the order as nested parentheses for debugging.
func (o *Order) String() string {
	var b strings.Builder
	var rec func(n *Node)
	rec = func(n *Node) {
		b.WriteString(n.Var)
		if len(n.Rels) > 0 {
			fmt.Fprintf(&b, "{%s}", strings.Join(n.Rels, ","))
		}
		if len(n.Children) > 0 {
			b.WriteString("(")
			for i, c := range n.Children {
				if i > 0 {
					b.WriteString(" ")
				}
				rec(c)
			}
			b.WriteString(")")
		}
	}
	for i, r := range o.Roots {
		if i > 0 {
			b.WriteString(" ")
		}
		rec(r)
	}
	return b.String()
}
