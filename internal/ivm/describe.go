package ivm

import (
	"fmt"
	"sort"
	"strings"

	"fivm/internal/viewtree"
)

// Describe renders the engine's maintenance schema: the view tree with
// materialization marks, and for each updatable relation the compiled
// leaf-to-root delta plan (which sibling views each step probes and which
// variables it marginalizes) — the textual form of the paper's Figure 4
// delta trees.
func (e *Engine[P]) Describe() string {
	var b strings.Builder
	b.WriteString("view tree:\n")
	var rec func(n *viewtree.Node, depth int)
	rec = func(n *viewtree.Node, depth int) {
		mark := " "
		if e.mat[n] {
			mark = "*"
		}
		fmt.Fprintf(&b, "  %s%s%s", strings.Repeat("  ", depth), mark, n.Name())
		if len(n.Marg) > 0 {
			fmt.Fprintf(&b, " ⊕%v", n.Marg)
		}
		b.WriteString("\n")
		for _, c := range n.Children {
			rec(c, depth+1)
		}
	}
	rec(e.root, 0)
	b.WriteString("  (* = materialized)\n")
	return e.describePlans(&b)
}

// Explain renders the optimizer's view of the engine: the chosen variable
// order and its width, the estimated cost breakdown, and — per view — the
// estimated versus actual size and the materialization decision. Call after
// Init (actual sizes come from the materialized state).
func (e *Engine[P]) Explain() string {
	var b strings.Builder
	if e.root == nil {
		return "explain: engine not planned yet (self-planning happens at Init)\n"
	}
	m := e.costModel()
	fmt.Fprintf(&b, "order: %s\n", e.order.String())
	fmt.Fprintf(&b, "width: %d\n", e.order.Width(e.q))
	fmt.Fprintf(&b, "estimated cost: %s\n", m.Cost(e.order))
	b.WriteString("views (* = materialized, est -> actual entries):\n")
	var rec func(n *viewtree.Node, depth int)
	rec = func(n *viewtree.Node, depth int) {
		mark := " "
		if e.mat[n] {
			mark = "*"
		}
		actual := "-"
		if v, ok := e.views[n]; ok {
			actual = fmt.Sprintf("%d", v.Len())
		}
		fmt.Fprintf(&b, "  %s%s%s  est %.0f -> %s", strings.Repeat("  ", depth), mark, n.Name(),
			m.ViewSizeOver(n.Keys, n.Rels), actual)
		if len(n.Marg) > 0 {
			fmt.Fprintf(&b, "  ⊕%v", n.Marg)
		}
		b.WriteString("\n")
		for _, c := range n.Children {
			rec(c, depth+1)
		}
	}
	rec(e.root, 0)
	return b.String()
}

// describePlans renders the compiled delta plans (shared by Describe).
func (e *Engine[P]) describePlans(b *strings.Builder) string {

	var leaves []*viewtree.Node
	for leaf := range e.plans {
		leaves = append(leaves, leaf)
	}
	sort.Slice(leaves, func(i, j int) bool { return leaves[i].Name() < leaves[j].Name() })
	for _, leaf := range leaves {
		plan := e.plans[leaf]
		fmt.Fprintf(b, "delta plan for %s:\n", leaf.Name())
		for _, st := range plan.steps {
			fmt.Fprintf(b, "  δ%s :=", st.node.Name())
			for _, sib := range st.siblings {
				op := "probe"
				if sib.full {
					op = "lookup"
				}
				fmt.Fprintf(b, " %s %s on %v;", op, sib.name, sib.common)
			}
			if len(st.margVars) > 0 {
				names := make([]string, len(st.margVars))
				for i, mv := range st.margVars {
					names[i] = mv.name
				}
				fmt.Fprintf(b, " ⊕[%s]", strings.Join(names, ","))
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}
