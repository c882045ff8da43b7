// Package viewtree constructs the view trees at the core of F-IVM.
//
// A view tree (paper Figure 3) is built over a variable order: each
// variable's node defines a view joining its children's views, and — when
// the variable is bound — marginalizing it with a lifting function. The view
// at the root is the query result. The package also implements the
// materialization decision µ(τ, U) (Figure 5), chain composition for wide
// relations and indicator projections for cyclic queries (Figure 10). The
// delta plans the IVM engine executes for updates (Figure 4) are compiled
// from these trees in internal/ivm.
package viewtree

import (
	"fmt"
	"strings"

	"fivm/internal/data"
	"fivm/internal/query"
	"fivm/internal/vorder"
)

// Node is one view in a view tree. Exactly one of Var/Rel is set: inner
// nodes are views at a variable, leaves are input relations (or indicator
// projections of input relations).
type Node struct {
	// Var is the variable this view sits at; "" for leaves.
	Var string
	// Rel is the input relation name for leaves; "" for inner nodes.
	Rel string
	// Indicator marks a leaf that is an indicator projection ∃_Keys Rel
	// rather than the relation itself.
	Indicator bool
	// Keys is the view's key schema.
	Keys data.Schema
	// Marg lists the bound variables marginalized at this node (empty for
	// free variables and leaves). More than one variable appears here when
	// chains are composed.
	Marg data.Schema
	// Rels names the input relations this view is defined over.
	Rels []string
	// Children are the argument views.
	Children []*Node

	parent *Node
}

// Parent returns the node's parent view, or nil at the root.
func (n *Node) Parent() *Node { return n.parent }

// IsLeaf reports whether the node is an input relation or indicator leaf.
func (n *Node) IsLeaf() bool { return n.Rel != "" }

// Name returns a stable human-readable identifier such as V@C[A,B] or R.
func (n *Node) Name() string {
	if n.IsLeaf() {
		if n.Indicator {
			return "Ind(" + n.Rel + ")" + n.Keys.String()
		}
		return n.Rel
	}
	return "V@" + n.Var + n.Keys.String()
}

// Walk visits the subtree in depth-first preorder.
func (n *Node) Walk(f func(*Node)) {
	f(n)
	for _, c := range n.Children {
		c.Walk(f)
	}
}

// Leaves returns the leaves of the subtree in depth-first order.
func (n *Node) Leaves() []*Node {
	var out []*Node
	n.Walk(func(m *Node) {
		if m.IsLeaf() {
			out = append(out, m)
		}
	})
	return out
}

// LeafOf returns the (non-indicator) leaf of relation name, or nil.
func (n *Node) LeafOf(name string) *Node {
	var found *Node
	n.Walk(func(m *Node) {
		if m.IsLeaf() && !m.Indicator && m.Rel == name {
			found = m
		}
	})
	return found
}

// String renders the subtree one view per line, indented by depth.
func (n *Node) String() string {
	var b strings.Builder
	var rec func(m *Node, depth int)
	rec = func(m *Node, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(m.Name())
		if len(m.Marg) > 0 {
			fmt.Fprintf(&b, " marg%v", m.Marg)
		}
		b.WriteString("\n")
		for _, c := range m.Children {
			rec(c, depth+1)
		}
	}
	rec(n, 0)
	return b.String()
}

// Build constructs the view tree τ(ω, F) of Figure 3 for a prepared
// variable order and the query's free variables. Relations are placed as
// leaf children of the node where the order anchored them. For a variable
// order forest (disconnected query), a synthetic root joins the component
// views.
func Build(o *vorder.Order, q query.Query) (*Node, error) {
	if err := o.Validate(q); err != nil {
		return nil, err
	}
	free := q.Free

	var build func(vn *vorder.Node) *Node
	build = func(vn *vorder.Node) *Node {
		n := &Node{Var: vn.Var}
		// Child views from the variable order, then relation leaves.
		for _, c := range vn.Children {
			cn := build(c)
			cn.parent = n
			n.Children = append(n.Children, cn)
		}
		for _, relName := range vn.Rels {
			rd, ok := q.Rel(relName)
			if !ok {
				panic(fmt.Sprintf("viewtree: unknown relation %q", relName))
			}
			leaf := &Node{Rel: relName, Keys: rd.Schema.Clone(), Rels: []string{relName}, parent: n}
			n.Children = append(n.Children, leaf)
		}
		// keys = dep(X) ∪ (F ∩ ⋃ child keys); rels = ⋃ child rels.
		keys := vn.Dep.Clone()
		for _, c := range n.Children {
			keys = keys.Union(free.Intersect(c.Keys))
			n.Rels = append(n.Rels, c.Rels...)
		}
		n.Rels = dedup(n.Rels)
		if free.Contains(vn.Var) {
			// Free variable: retained in the schema, no marginalization.
			if !keys.Contains(vn.Var) {
				keys = keys.Union(data.Schema{vn.Var})
			}
			n.Keys = keys
		} else {
			n.Keys = keys.Minus(data.Schema{vn.Var})
			n.Marg = data.Schema{vn.Var}
		}
		return n
	}

	roots := make([]*Node, 0, len(o.Roots))
	for _, r := range o.Roots {
		roots = append(roots, build(r))
	}
	if len(roots) == 1 {
		return roots[0], nil
	}
	// Disconnected query: a synthetic root joins the component views.
	top := &Node{Var: ""}
	var keys data.Schema
	for _, r := range roots {
		r.parent = top
		top.Children = append(top.Children, r)
		top.Rels = append(top.Rels, r.Rels...)
		keys = keys.Union(r.Keys)
	}
	top.Rels = dedup(top.Rels)
	top.Keys = keys
	return top, nil
}

// ComposeChains collapses chains of single-child bound marginalizations
// into one view that marginalizes several variables at a time — the paper's
// practical optimization for wide relations, whose local variables would
// otherwise each get their own view. The transformation preserves the root
// view's contents.
func ComposeChains(root *Node) *Node {
	var rec func(n *Node)
	rec = func(n *Node) {
		// Collapse repeatedly: n absorbs single inner children that
		// marginalize bound variables, as long as both views cover the same
		// relations (automatic with a single child).
		for len(n.Children) == 1 && !n.Children[0].IsLeaf() && len(n.Marg) > 0 && len(n.Children[0].Marg) > 0 {
			c := n.Children[0]
			// n = ⊕_{n.Marg} c and c = ⊕_{c.Marg} (join of c's children):
			// compose to n = ⊕_{c.Marg ∪ n.Marg} (join of c's children).
			n.Marg = append(c.Marg.Clone(), n.Marg...)
			n.Children = c.Children
			for _, gc := range n.Children {
				gc.parent = n
			}
			if n.Var == "" {
				n.Var = c.Var
			}
		}
		for _, c := range n.Children {
			rec(c)
		}
	}
	rec(root)
	return root
}

// CollapseIdentical removes inner nodes whose view is identical to their
// single child (free variables whose keys match the child's keys), keeping
// only the top view of each identical group as the paper prescribes.
func CollapseIdentical(root *Node) *Node {
	var rec func(n *Node) *Node
	rec = func(n *Node) *Node {
		for i, c := range n.Children {
			n.Children[i] = rec(c)
			n.Children[i].parent = n
		}
		if !n.IsLeaf() && len(n.Children) == 1 && len(n.Marg) == 0 &&
			!n.Children[0].IsLeaf() && n.Keys.SameSet(n.Children[0].Keys) {
			c := n.Children[0]
			c.parent = n.parent
			return c
		}
		return n
	}
	out := rec(root)
	out.parent = nil
	return out
}

func dedup(ss []string) []string {
	seen := make(map[string]bool, len(ss))
	out := ss[:0]
	for _, s := range ss {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}
