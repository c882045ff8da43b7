package viewtree

import (
	"fivm/internal/data"
	"fivm/internal/vorder"
)

// Materialize implements µ(τ, U) from paper Figure 5: it decides which
// views of the tree must be materialized to support updates to the
// relations in updatable. The root is always materialized (it is the query
// result); any other view V is materialized exactly when it is needed to
// compute the delta of its parent for updates to a relation V is not
// defined over: (rels(parent) \ rels(V)) ∩ U ≠ ∅.
//
// µ is purely structural. CostMaterialize refines it with statistics: a
// probed view may be cheaper to compute inline from its children than to
// keep stored.
func Materialize(root *Node, updatable []string) map[*Node]bool {
	u := make(map[string]bool, len(updatable))
	for _, r := range updatable {
		u[r] = true
	}
	out := make(map[*Node]bool)
	root.Walk(func(n *Node) {
		if n.parent == nil {
			out[n] = true
			return
		}
		in := make(map[string]bool, len(n.Rels))
		for _, r := range n.Rels {
			in[r] = true
		}
		need := false
		for _, r := range n.parent.Rels {
			if !in[r] && u[r] {
				need = true
				break
			}
		}
		out[n] = need
	})
	return out
}

// CostMaterialize turns the structural µ decision into a cost-based one: it
// starts from the required set (the views updates actually probe, as
// computed by the engine's sibling-emits rule or Materialize) and demotes a
// probed inner view to inline computation whenever the estimated saving of
// not maintaining it — the merge traffic it would absorb plus its amortized
// footprint — exceeds the extra join work of probing its children directly.
// Demoting a view makes its children probed, so they are promoted to
// required and themselves become demotion candidates (the decision reaches a
// fixpoint down the tree). Leaves and the root are never demoted: a leaf has
// no children to expand, and the root is the query result.
//
// The canonical beneficiary is a quadratic pairwise join view probed by a
// third relation (the triangle's S⋈T): storing it costs O(N²) memory and
// O(delta·degree) merges per update, while inlining costs the probing
// relation an extra index probe per joined tuple.
//
// updatable is the set of delta-receiving relations; m estimates sizes,
// rates, and fanouts. With a nil model the required set is returned
// unchanged — cost decisions need statistics.
func CostMaterialize(root *Node, required map[*Node]bool, updatable map[string]bool, m *vorder.CostModel) map[*Node]bool {
	out := make(map[*Node]bool, len(required))
	for n, v := range required {
		out[n] = v
	}
	if m == nil {
		return out
	}

	// Parents are considered before children, since demoting a parent
	// promotes its children to probed. Below a demoted view no further
	// demotion is attempted: its children's probe traffic now includes the
	// demoted parent's probers, which demoteWins does not model, so cascading
	// would under-count the inline cost.
	var consider func(n *Node, demotable bool)
	consider = func(n *Node, demotable bool) {
		demoted := false
		if demotable && out[n] && n.Parent() != nil && !n.IsLeaf() && !n.Indicator &&
			demoteWins(n, updatable, m) {
			out[n] = false
			demoted = true
			for _, c := range n.Children {
				out[c] = true
			}
		}
		for _, c := range n.Children {
			consider(c, demotable && !demoted)
		}
	}
	consider(root, true)
	return out
}

// demoteWins compares the per-update cost of storing view n against probing
// its children inline.
func demoteWins(n *Node, updatable map[string]bool, m *vorder.CostModel) bool {
	// Rate of updates that probe n: deltas arriving at the parent through
	// relations outside n's subtree.
	inN := make(map[string]bool, len(n.Rels))
	for _, rel := range n.Rels {
		inN[rel] = true
	}
	probers := 0.0
	for _, rel := range n.Parent().Rels {
		if !inN[rel] && updatable[rel] {
			probers += m.Rate(rel)
		}
	}
	if probers == 0 {
		// Nothing probes it through a delta path; the structural rule wanted
		// it stored for another reason (MaterializeAll, indicator backing).
		return false
	}

	// Storing: every update to one of n's own relations merges its delta
	// into the stored view, plus the view's amortized footprint.
	mergeTraffic := 0.0
	for _, rel := range n.Rels {
		if updatable[rel] {
			mergeTraffic += m.Rate(rel) * m.DeltaSizeFor(n.Keys, rel, n.Rels)
		}
	}
	footprint := m.Amortized(m.ViewSizeOver(n.Keys, n.Rels))
	storeCost := mergeTraffic + footprint

	// Inlining: each probing delta tuple joins n's children in sequence —
	// index probes plus lift-and-marginalize work on the joined tuples —
	// instead of one stored-view lookup; only the surplus counts.
	others := make([]data.Schema, len(n.Children))
	for i, c := range n.Children {
		others[i] = c.Keys
	}
	probes, fanout := m.JoinFanout(n.Keys, others)
	inlineExtra := probers * (probes + fanout - 1)

	// The footprint floor guards against demoting small views on estimation
	// noise: inline expansion only pays off against genuinely large views.
	return inlineExtra < storeCost && footprint > demoteMinFootprint
}

// demoteMinFootprint is the minimum amortized footprint (in per-update ops)
// a view must carry before demotion is considered.
const demoteMinFootprint = 0.05
