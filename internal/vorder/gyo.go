package vorder

import (
	"sort"

	"fivm/internal/data"
)

// Hyperedge is a named set of variables, one per relation (or per child view
// schema) in a hypergraph.
type Hyperedge struct {
	Name string
	Vars data.Schema
}

// GYO runs the GYO (Graham / Yu–Özsoyoğlu) reduction, Fagin et al. variant,
// on the hypergraph: it repeatedly removes ear vertices (variables occurring
// in exactly one edge) and edges contained in other edges. It returns the
// residual edges — the cyclic core. An empty residue means the hypergraph is
// α-acyclic. The paper's indicator-projection algorithm (Figure 10) uses the
// residue to decide which relations participate in a cycle at a view; the
// order enumerator uses the same ear/join-variable distinction to pick its
// branch candidates.
//
// Edge cases, pinned by tests:
//
//   - Duplicate variables within one hyperedge are deduplicated before the
//     reduction (a set semantics; data.Schema invariants normally rule them
//     out, but hand-built edges may carry them). Without deduplication a
//     variable repeated inside a single edge would count as "shared" and
//     incorrectly survive ear removal.
//   - A single-edge hypergraph is always α-acyclic: every variable is an
//     ear, the emptied edge is then removed, and the residue is empty.
//   - A fully cyclic core (triangle, chordless cycles) has no ears at all:
//     the reduction leaves every edge untouched and returns them all,
//     sorted by name.
func GYO(edges []Hyperedge) []Hyperedge {
	// Work on deduplicated copies so callers' edges are untouched and
	// within-edge duplicates cannot masquerade as shared variables.
	work := make([]Hyperedge, len(edges))
	for i, e := range edges {
		var vars data.Schema
		for _, v := range e.Vars {
			if !vars.Contains(v) {
				vars = append(vars, v)
			}
		}
		work[i] = Hyperedge{Name: e.Name, Vars: vars}
	}
	alive := make([]bool, len(work))
	for i := range alive {
		alive[i] = true
	}

	changed := true
	for changed {
		changed = false

		// Count occurrences of each variable among live edges.
		count := make(map[string]int)
		for i, e := range work {
			if !alive[i] {
				continue
			}
			for _, v := range e.Vars {
				count[v]++
			}
		}

		// Remove ear vertices: variables occurring in exactly one edge.
		for i := range work {
			if !alive[i] {
				continue
			}
			var kept data.Schema
			for _, v := range work[i].Vars {
				if count[v] > 1 {
					kept = append(kept, v)
				}
			}
			if len(kept) != len(work[i].Vars) {
				work[i].Vars = kept
				changed = true
			}
		}

		// Remove edges whose variable set is contained in another live edge
		// (including empty edges).
		for i := range work {
			if !alive[i] {
				continue
			}
			if len(work[i].Vars) == 0 {
				alive[i] = false
				changed = true
				continue
			}
			for j := range work {
				if i == j || !alive[j] {
					continue
				}
				if work[j].Vars.ContainsAll(work[i].Vars) &&
					(len(work[j].Vars) > len(work[i].Vars) || j < i) {
					alive[i] = false
					changed = true
					break
				}
			}
		}
	}

	var out []Hyperedge
	for i, e := range edges {
		if alive[i] {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
