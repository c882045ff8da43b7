// Package factorized maintains conjunctive query results under updates in
// the three representations the paper compares in Section 6.3 and Figure 8:
//
//   - ListKeys: the result is a relation keyed by the output tuples with
//     integer multiplicities (the classical listing representation in keys).
//   - ListPayloads: all variables are marginalized; the relational data ring
//     F[Z] carries the entire listing result in the root payload.
//   - FactPayloads: like ListPayloads, but every view projects its payload
//     onto its own marginalized variable, so the result is a factorized
//     representation distributed over the view tree's payloads, linked by
//     the view keys (paper Example 6.6). It supports constant-delay
//     enumeration of the distinct result tuples.
//
// All three modes maintain the same query over the same variable order; they
// differ only in ring and payload handling — the paper's point that payload
// rings factor out representation choices.
package factorized

import (
	"fmt"

	"fivm/internal/data"
	"fivm/internal/ivm"
	"fivm/internal/query"
	"fivm/internal/ring"
	"fivm/internal/viewtree"
	"fivm/internal/vorder"
)

// Mode selects the result representation.
type Mode int

// The three representations of Figure 8.
const (
	ListKeys Mode = iota
	ListPayloads
	FactPayloads
)

// String names the mode as in the paper's legends.
func (m Mode) String() string {
	switch m {
	case ListKeys:
		return "List keys"
	case ListPayloads:
		return "List payloads"
	case FactPayloads:
		return "Fact payloads"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Result maintains a conjunctive query result in one of the three
// representations. Updates are expressed as multiplicity deltas.
type Result struct {
	Mode Mode
	// Output lists the conjunctive query's head (free) variables.
	Output data.Schema

	q       query.Query
	keysEng *ivm.Engine[int64]
	relEng  *ivm.Engine[*data.Multiset]
}

// New builds a maintained result. q.Free must name the conjunctive query's
// output variables; for the payload modes they are moved into payloads (the
// engine query marginalizes everything). The variable order must have the
// output variables above the bound ones for FactPayloads enumeration.
//
// Updates must keep base multiplicities non-negative (deletions only remove
// existing tuples). The factorized representation stores per-value
// derivation counts; over-deletion can cancel a projected count to zero
// while derivations remain, which loses information — the same caveat
// applies to the paper's multiplicity-annotated factorizations.
func New(mode Mode, q query.Query, o *vorder.Order, updatable []string) (*Result, error) {
	r := &Result{Mode: mode, Output: q.Free.Clone(), q: q}
	switch mode {
	case ListKeys:
		eng, err := ivm.New[int64](q, o, ring.Int{}, func(string, data.Value) int64 { return 1 },
			ivm.Options[int64]{Updatable: updatable, ComposeChains: true})
		if err != nil {
			return nil, err
		}
		r.keysEng = eng
		return r, nil

	case ListPayloads, FactPayloads:
		free := q.Free
		// The engine query marginalizes every variable; the output
		// variables are lifted into relational payloads.
		allBound := query.MustNew(q.Name, nil, q.Rels...)
		lift := func(v string, x data.Value) *data.Multiset {
			if free.Contains(v) {
				return data.SingletonMultiset(v, x)
			}
			return data.UnitMultiset()
		}
		// Chain composition keeps one view per wide relation instead of one
		// per local variable — for the factorized representation this means
		// payloads over each relation's composed variables, which is both
		// valid and far more compact (the paper's wide-relation treatment).
		opts := ivm.Options[*data.Multiset]{Updatable: updatable, ComposeChains: true}
		if mode == FactPayloads {
			// The factorized representation is distributed over every view,
			// so every inner view must be materialized regardless of the
			// update workload.
			opts.MaterializeAll = true
			opts.PayloadTransform = func(n *viewtree.Node, p *data.Multiset) *data.Multiset {
				return p.ProjectOnto(data.Schema(n.Marg).Intersect(free))
			}
		}
		eng, err := ivm.New[*data.Multiset](allBound, o, data.RelRing{}, lift, opts)
		if err != nil {
			return nil, err
		}
		r.relEng = eng
		return r, nil
	}
	return nil, fmt.Errorf("factorized: unknown mode %v", mode)
}

// multDelta converts a multiplicity delta into a relational-ring delta: a
// key with multiplicity m maps to the payload {() -> m}.
func multDelta(d *data.Relation[int64]) *data.Relation[*data.Multiset] {
	out := data.NewRelation[*data.Multiset](data.RelRing{}, d.Schema())
	d.Iterate(func(t data.Tuple, m int64) bool {
		out.Merge(t, data.UnitMultisetTimes(m))
		return true
	})
	return out
}

// Load installs initial relation contents as a multiplicity relation.
func (r *Result) Load(rel string, d *data.Relation[int64]) error {
	if r.keysEng != nil {
		return r.keysEng.Load(rel, d)
	}
	return r.relEng.Load(rel, multDelta(d))
}

// Init evaluates the initial views.
func (r *Result) Init() error {
	if r.keysEng != nil {
		return r.keysEng.Init()
	}
	return r.relEng.Init()
}

// ApplyDelta maintains the result under a multiplicity delta.
func (r *Result) ApplyDelta(rel string, d *data.Relation[int64]) error {
	if r.keysEng != nil {
		return r.keysEng.ApplyDelta(rel, d)
	}
	return r.relEng.ApplyDelta(rel, multDelta(d))
}

// DistinctCount returns the number of distinct result tuples. For
// FactPayloads it enumerates the factorization.
func (r *Result) DistinctCount() int64 {
	switch {
	case r.keysEng != nil:
		return int64(r.keysEng.Result().Len())
	case r.Mode == ListPayloads:
		var n int64
		r.relEng.Result().Iterate(func(_ data.Tuple, p *data.Multiset) bool {
			n += int64(p.Len())
			return true
		})
		return n
	default:
		var n int64
		r.Enumerate(func(data.Tuple) bool {
			n++
			return true
		})
		return n
	}
}

// MemoryBytes estimates the footprint of all materialized state.
func (r *Result) MemoryBytes() int {
	if r.keysEng != nil {
		return r.keysEng.MemoryBytes()
	}
	return r.relEng.MemoryBytes()
}

// SizeValues returns the representation size as a count of stored values:
// for listing keys, result tuples × arity; for listing payloads, payload
// tuples × arity; for factorized payloads, the total number of values
// stored across all view payloads — the paper's factorization size metric
// (e.g. Housing's root view stores 25,000 join-variable values regardless
// of scale).
func (r *Result) SizeValues() int64 {
	if r.keysEng != nil {
		return int64(r.keysEng.Result().Len()) * int64(len(r.Output))
	}
	var n int64
	if r.Mode == ListPayloads {
		r.relEng.Result().Iterate(func(_ data.Tuple, p *data.Multiset) bool {
			n += int64(p.Len()) * int64(len(p.Schema()))
			return true
		})
		return n
	}
	r.relEng.Tree().Walk(func(node *viewtree.Node) {
		v := r.relEng.ViewOf(node)
		if v == nil {
			return
		}
		v.Iterate(func(_ data.Tuple, p *data.Multiset) bool {
			n += int64(p.Len()) * int64(max(1, len(p.Schema())))
			return true
		})
	})
	return n
}

// ViewCount reports the number of materialized views.
func (r *Result) ViewCount() int {
	if r.keysEng != nil {
		return r.keysEng.ViewCount()
	}
	return r.relEng.ViewCount()
}

// Enumerate visits every distinct result tuple (over Output, in Output
// order) until the callback returns false. For ListKeys and ListPayloads it
// scans the listing; for FactPayloads it walks the factorization with
// constant delay per tuple, multiplying out unions along the view tree.
//
// Enumerate reads the engines' live views and therefore must not race
// ApplyDelta; concurrent enumeration pins an epoch first via Snapshot.
func (r *Result) Enumerate(cb func(t data.Tuple) bool) {
	switch {
	case r.keysEng != nil:
		proj := data.MustProjector(r.keysEng.Result().Schema(), r.Output)
		r.keysEng.Result().Iterate(func(t data.Tuple, _ int64) bool {
			return cb(proj.Apply(t))
		})
	case r.Mode == ListPayloads:
		r.relEng.Result().Iterate(func(_ data.Tuple, p *data.Multiset) bool {
			keep := true
			proj := data.MustProjector(p.Schema(), r.Output)
			p.Iterate(func(t data.Tuple, _ int64) bool {
				keep = cb(proj.Apply(t))
				return keep
			})
			return keep
		})
	default:
		enumerateFactorized(r.relEng.Tree(), r.Output, func(n *viewtree.Node, key data.Tuple) (*data.Multiset, bool) {
			view := r.relEng.ViewOf(n)
			if view == nil {
				return nil, false
			}
			return view.Get(key)
		}, cb)
	}
}

// enumerateFactorized walks the view tree: at each view whose marginalized
// variables include output variables, the payload under the current key
// supplies their values; children are then visited with the extended
// context. Views marginalizing only bound variables contribute nothing to
// tuples and are skipped. The view accessor abstracts over live views and
// pinned snapshots.
func enumerateFactorized(root *viewtree.Node, free data.Schema, view func(n *viewtree.Node, key data.Tuple) (*data.Multiset, bool), cb func(t data.Tuple) bool) {

	// Collect, per node, whether its subtree contributes output variables.
	contributes := make(map[*viewtree.Node]bool)
	var mark func(n *viewtree.Node) bool
	mark = func(n *viewtree.Node) bool {
		c := len(data.Schema(n.Marg).Intersect(free)) > 0
		for _, ch := range n.Children {
			if mark(ch) {
				c = true
			}
		}
		contributes[n] = c
		return c
	}
	mark(root)

	ctx := make(map[string]data.Value)
	stop := false

	// rec visits node n under the current context, extending assignments.
	var rec func(nodes []*viewtree.Node, emit func())
	rec = func(nodes []*viewtree.Node, emit func()) {
		if stop {
			return
		}
		// Find the next contributing inner node.
		for len(nodes) > 0 && (nodes[0].IsLeaf() || !contributes[nodes[0]]) {
			nodes = nodes[1:]
		}
		if len(nodes) == 0 {
			emit()
			return
		}
		n := nodes[0]
		rest := nodes[1:]
		key := make(data.Tuple, len(n.Keys))
		for i, v := range n.Keys {
			key[i] = ctx[v]
		}
		payload, ok := view(n, key)
		if !ok {
			return
		}
		ownFree := data.Schema(n.Marg).Intersect(free)
		if len(ownFree) == 0 {
			// Pure connector: descend into children under the same context.
			rec(append(append([]*viewtree.Node(nil), n.Children...), rest...), emit)
			return
		}
		proj := data.MustProjector(payload.Schema(), ownFree)
		payload.Iterate(func(t data.Tuple, _ int64) bool {
			vals := proj.Apply(t)
			for i, v := range ownFree {
				ctx[v] = vals[i]
			}
			rec(append(append([]*viewtree.Node(nil), n.Children...), rest...), emit)
			for _, v := range ownFree {
				delete(ctx, v)
			}
			return !stop
		})
	}

	rec([]*viewtree.Node{root}, func() {
		out := make(data.Tuple, len(free))
		for i, v := range free {
			out[i] = ctx[v]
		}
		if !cb(out) {
			stop = true
		}
	})
}

// --- epoch-pinned snapshots ---------------------------------------------------

// ResultSnapshot is an immutable, epoch-pinned view of a maintained
// conjunctive query result: all counting and enumeration — including
// constant-delay factorized enumeration for FactPayloads — runs against one
// consistent published epoch, so it is safe from any goroutine while
// maintenance keeps streaming.
type ResultSnapshot struct {
	// Mode and Output mirror the Result this snapshot was pinned from.
	Mode   Mode
	Output data.Schema

	tree *viewtree.Node
	keys *ivm.ViewSnapshot[int64]
	rel  *ivm.ViewSnapshot[*data.Multiset]
}

// Snapshot pins the engine's current published epoch. The first call
// enables snapshot publication and must come from the maintenance
// goroutine (typically right after Init); afterwards Snapshot may be called
// from any goroutine. FactPayloads is the one representation that lives in
// the views below the root, so it asks the engine for its view catalogue.
// The snapshot is a lease on that epoch: Release it when done (optional; a
// forgotten one is left to the garbage collector, see ivm.ViewSnapshot).
func (r *Result) Snapshot() *ResultSnapshot {
	s := &ResultSnapshot{Mode: r.Mode, Output: r.Output}
	switch {
	case r.keysEng != nil:
		s.keys = r.keysEng.Snapshot()
	case r.Mode == FactPayloads:
		s.tree = r.relEng.Tree()
		s.rel = r.relEng.Catalog()
	default:
		s.rel = r.relEng.Snapshot()
	}
	return s
}

// Release gives the pinned epoch back; the snapshot must not be read after.
func (s *ResultSnapshot) Release() {
	s.keys.Release()
	s.rel.Release()
}

// Count returns the total number of result tuples, with multiplicities, in
// the pinned epoch.
func (s *ResultSnapshot) Count() int64 {
	var n int64
	if s.keys != nil {
		s.keys.Result().Iterate(func(_ data.Tuple, m int64) bool {
			n += m
			return true
		})
		return n
	}
	s.rel.Result().Iterate(func(_ data.Tuple, p *data.Multiset) bool {
		n += p.TotalMult()
		return true
	})
	return n
}

// DistinctCount returns the number of distinct result tuples in the pinned
// epoch; for FactPayloads it enumerates the factorization.
func (s *ResultSnapshot) DistinctCount() int64 {
	switch {
	case s.keys != nil:
		return int64(s.keys.Result().Len())
	case s.Mode == ListPayloads:
		var n int64
		s.rel.Result().Iterate(func(_ data.Tuple, p *data.Multiset) bool {
			n += int64(p.Len())
			return true
		})
		return n
	default:
		var n int64
		s.Enumerate(func(data.Tuple) bool {
			n++
			return true
		})
		return n
	}
}

// Enumerate visits every distinct result tuple of the pinned epoch (over
// Output, in Output order) until the callback returns false; for
// FactPayloads it walks the factorization distributed over the pinned view
// snapshots with constant delay per tuple.
func (s *ResultSnapshot) Enumerate(cb func(t data.Tuple) bool) {
	switch {
	case s.keys != nil:
		res := s.keys.Result()
		proj := data.MustProjector(res.Schema(), s.Output)
		res.Iterate(func(t data.Tuple, _ int64) bool {
			return cb(proj.Apply(t))
		})
	case s.Mode == ListPayloads:
		s.rel.Result().Iterate(func(_ data.Tuple, p *data.Multiset) bool {
			keep := true
			proj := data.MustProjector(p.Schema(), s.Output)
			p.Iterate(func(t data.Tuple, _ int64) bool {
				keep = cb(proj.Apply(t))
				return keep
			})
			return keep
		})
	default:
		enumerateFactorized(s.tree, s.Output, func(n *viewtree.Node, key data.Tuple) (*data.Multiset, bool) {
			view := s.rel.ViewOf(n)
			if view == nil {
				return nil, false
			}
			return view.Get(key)
		}, cb)
	}
}
