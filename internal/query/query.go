// Package query represents the class of queries F-IVM maintains: natural
// joins with group-by aggregates,
//
//	Q[X1,...,Xf] = ⊕_{Xf+1} ... ⊕_{Xm}  ⊗_{i in [n]} Ri[Si],
//
// where the group-by (free) variables are retained in keys and the bound
// variables are marginalized with task-specific lifting functions. The
// payload ring and the lifting functions are supplied separately when an
// engine is instantiated, so the same Query drives COUNT/SUM aggregates,
// cofactor matrices, and relational payloads alike.
package query

import (
	"fmt"

	"fivm/internal/data"
)

// RelDef names an input relation and its key schema.
type RelDef struct {
	Name   string
	Schema data.Schema
}

// Query is a natural join of relations with a set of free (group-by)
// variables. Bound variables are all variables not listed in Free.
type Query struct {
	Name string
	Rels []RelDef
	Free data.Schema
}

// New builds a query and validates it: relation names must be distinct and
// free variables must occur in some relation.
func New(name string, free data.Schema, rels ...RelDef) (Query, error) {
	q := Query{Name: name, Rels: rels, Free: free}
	seen := make(map[string]bool, len(rels))
	for _, r := range rels {
		if seen[r.Name] {
			return Query{}, fmt.Errorf("query %s: duplicate relation %q", name, r.Name)
		}
		seen[r.Name] = true
	}
	vars := q.Vars()
	for _, v := range free {
		if !vars.Contains(v) {
			return Query{}, fmt.Errorf("query %s: free variable %q not in any relation", name, v)
		}
	}
	return q, nil
}

// MustNew is New that panics on error, for statically known queries.
func MustNew(name string, free data.Schema, rels ...RelDef) Query {
	q, err := New(name, free, rels...)
	if err != nil {
		panic(err)
	}
	return q
}

// Rename returns a copy of the query under a new name (queries are values;
// relation definitions are shared).
func (q Query) Rename(name string) Query {
	q.Name = name
	return q
}

// Vars returns the union of all relation schemas in first-occurrence order.
func (q Query) Vars() data.Schema {
	var out data.Schema
	for _, r := range q.Rels {
		out = out.Union(r.Schema)
	}
	return out
}

// Rel returns the definition of the named relation.
func (q Query) Rel(name string) (RelDef, bool) {
	for _, r := range q.Rels {
		if r.Name == name {
			return r, true
		}
	}
	return RelDef{}, false
}

// RelNames returns the relation names in definition order.
func (q Query) RelNames() []string {
	out := make([]string, len(q.Rels))
	for i, r := range q.Rels {
		out[i] = r.Name
	}
	return out
}

// RelsWith returns the names of relations whose schema contains variable v.
func (q Query) RelsWith(v string) []string {
	var out []string
	for _, r := range q.Rels {
		if r.Schema.Contains(v) {
			out = append(out, r.Name)
		}
	}
	return out
}
