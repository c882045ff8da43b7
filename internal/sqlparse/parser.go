package sqlparse

import (
	"fmt"
	"strings"

	"fivm/internal/data"
	"fivm/internal/query"
)

// Catalog supplies the schema of each relation named in a query.
type Catalog map[string]data.Schema

// ParseError is a parse failure with its position: the byte offset into the
// input and the token the parser was looking at. Every error returned by
// ParseStatement and the lexer is (or wraps) one, so callers can point at
// the offending spot.
type ParseError struct {
	// Msg describes the failure.
	Msg string
	// Pos is the byte offset of the offending token in the input.
	Pos int
	// Token is the offending token's text ("" at end of input).
	Token string
}

func (e *ParseError) Error() string {
	near := "end of input"
	if e.Token != "" {
		near = fmt.Sprintf("%q", e.Token)
	}
	return fmt.Sprintf("sqlparse: %s at offset %d near %s", e.Msg, e.Pos, near)
}

// errAt builds a ParseError anchored at a token.
func errAt(t token, format string, args ...any) error {
	return &ParseError{Msg: fmt.Sprintf(format, args...), Pos: t.pos, Token: t.text}
}

// Parsed is a parsed query: the internal join-aggregate representation plus
// the aggregate's structure.
type Parsed struct {
	// Query is the natural join with the GROUP BY variables as Free.
	Query query.Query
	// SumVars lists the variables multiplied inside SUM(...); empty for
	// SUM(1) / COUNT(*).
	SumVars []string
	// Constant is the literal factor inside SUM (1 unless written
	// otherwise, e.g. SUM(2*B)).
	Constant float64
}

// LiftFloat returns the R-ring lifting realizing the aggregate.
func (p Parsed) LiftFloat() data.LiftFunc[float64] {
	in := make(map[string]bool, len(p.SumVars))
	for _, v := range p.SumVars {
		in[v] = true
	}
	first := ""
	if len(p.SumVars) > 0 {
		first = p.SumVars[0]
	}
	return func(v string, x data.Value) float64 {
		out := 1.0
		if in[v] {
			out = x.AsFloat()
		}
		// The constant factor applies once per joined tuple; the first
		// summed variable is lifted exactly once, so it carries it.
		if v == first && first != "" {
			out *= p.Constant
		}
		return out
	}
}

type parser struct {
	toks []token
	pos  int
	cat  Catalog
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) expect(kind tokenKind, what string) (token, error) {
	t := p.next()
	if t.kind != kind {
		return t, errAt(t, "expected %s, got %s", what, t)
	}
	return t, nil
}

func (p *parser) expectKeyword(kw string) error {
	t := p.next()
	if !isKeyword(t, kw) {
		return errAt(t, "expected %s, got %s", strings.ToUpper(kw), t)
	}
	return nil
}

// column parses [rel.]var and returns the variable name with the token that
// names it; the qualifier is validated against the catalog when present.
func (p *parser) column() (string, token, error) {
	t, err := p.expect(tokIdent, "column name")
	if err != nil {
		return "", t, err
	}
	name := t.text
	if p.peek().kind == tokDot {
		p.next()
		v, err := p.expect(tokIdent, "column name after qualifier")
		if err != nil {
			return "", v, err
		}
		schema, ok := p.cat[name]
		if !ok {
			return "", t, errAt(t, "unknown relation %q qualifying %q", name, v.text)
		}
		if !schema.Contains(v.text) {
			return "", v, errAt(v, "relation %q has no column %q", name, v.text)
		}
		return v.text, v, nil
	}
	return name, t, nil
}

// end consumes an optional semicolon and requires end of input.
func (p *parser) end() error {
	if p.peek().kind == tokSemicolon {
		p.next()
	}
	if t := p.peek(); t.kind != tokEOF {
		return errAt(t, "trailing input %s", t)
	}
	return nil
}

// parseSelect parses SELECT ... [GROUP BY ...] from the current position,
// leaving the parser on the first token after the query body. The resulting
// query carries the given name.
func (p *parser) parseSelect(name string) (Parsed, error) {
	if err := p.expectKeyword("select"); err != nil {
		return Parsed{}, err
	}

	// Select list: group-by columns then at most one SUM(...) or COUNT(*).
	type selCol struct {
		name string
		tok  token
	}
	var selectCols []selCol
	out := Parsed{Constant: 1}
	var sumVarToks []token
	sawAgg := false
	for {
		t := p.peek()
		switch {
		case isKeyword(t, "sum"):
			if sawAgg {
				return Parsed{}, errAt(t, "multiple aggregates")
			}
			sawAgg = true
			p.next()
			if _, err := p.expect(tokLParen, "("); err != nil {
				return Parsed{}, err
			}
			// Product of terms: numbers and columns separated by '*'.
			for {
				tt := p.peek()
				switch tt.kind {
				case tokNumber:
					p.next()
					var c float64
					if _, err := fmt.Sscanf(tt.text, "%g", &c); err != nil {
						return Parsed{}, errAt(tt, "bad number %q", tt.text)
					}
					out.Constant *= c
				case tokIdent:
					v, vt, err := p.column()
					if err != nil {
						return Parsed{}, err
					}
					out.SumVars = append(out.SumVars, v)
					sumVarToks = append(sumVarToks, vt)
				default:
					return Parsed{}, errAt(tt, "expected SUM term, got %s", tt)
				}
				if p.peek().kind == tokStar {
					p.next()
					continue
				}
				break
			}
			if _, err := p.expect(tokRParen, ")"); err != nil {
				return Parsed{}, err
			}
		case isKeyword(t, "count"):
			if sawAgg {
				return Parsed{}, errAt(t, "multiple aggregates")
			}
			sawAgg = true
			p.next()
			if _, err := p.expect(tokLParen, "("); err != nil {
				return Parsed{}, err
			}
			if p.peek().kind == tokStar {
				p.next()
			}
			if _, err := p.expect(tokRParen, ")"); err != nil {
				return Parsed{}, err
			}
		case t.kind == tokIdent:
			v, vt, err := p.column()
			if err != nil {
				return Parsed{}, err
			}
			selectCols = append(selectCols, selCol{name: v, tok: vt})
		default:
			return Parsed{}, errAt(t, "unexpected %s in select list", t)
		}
		if p.peek().kind == tokComma {
			p.next()
			continue
		}
		break
	}
	if !sawAgg {
		return Parsed{}, errAt(p.peek(), "the select list needs a SUM(...) or COUNT(*) aggregate")
	}

	if err := p.expectKeyword("from"); err != nil {
		return Parsed{}, err
	}
	var rels []query.RelDef
	seenRel := make(map[string]bool)
	for {
		t, err := p.expect(tokIdent, "relation name")
		if err != nil {
			return Parsed{}, err
		}
		schema, ok := p.cat[t.text]
		if !ok {
			return Parsed{}, errAt(t, "unknown relation %q (not in catalog)", t.text)
		}
		if seenRel[t.text] {
			return Parsed{}, errAt(t, "duplicate relation %q in FROM", t.text)
		}
		seenRel[t.text] = true
		rels = append(rels, query.RelDef{Name: t.text, Schema: schema})

		if isKeyword(p.peek(), "natural") {
			p.next()
			if err := p.expectKeyword("join"); err != nil {
				return Parsed{}, err
			}
			continue
		}
		break
	}

	// Optional GROUP BY, which must repeat the plain select columns.
	var free data.Schema
	groupToks := make(map[string]token)
	if isKeyword(p.peek(), "group") {
		p.next()
		if err := p.expectKeyword("by"); err != nil {
			return Parsed{}, err
		}
		for {
			v, vt, err := p.column()
			if err != nil {
				return Parsed{}, err
			}
			free = free.Union(data.Schema{v})
			groupToks[v] = vt
			if p.peek().kind == tokComma {
				p.next()
				continue
			}
			break
		}
	}

	// The plain select columns must match the GROUP BY set, both ways.
	sel := data.Schema(nil)
	for _, c := range selectCols {
		if !free.Contains(c.name) {
			return Parsed{}, errAt(c.tok, "select column %q missing from GROUP BY", c.name)
		}
		sel = sel.Union(data.Schema{c.name})
	}
	for _, v := range free {
		if !sel.Contains(v) {
			return Parsed{}, errAt(groupToks[v], "GROUP BY column %q missing from the select list", v)
		}
	}

	// Summed and grouping variables must occur in the join.
	var vars data.Schema
	for _, rd := range rels {
		vars = vars.Union(rd.Schema)
	}
	for i, v := range out.SumVars {
		if !vars.Contains(v) {
			return Parsed{}, errAt(sumVarToks[i], "SUM variable %q not in any relation", v)
		}
		if free.Contains(v) {
			return Parsed{}, errAt(sumVarToks[i], "SUM variable %q is a GROUP BY column", v)
		}
	}
	for _, v := range free {
		if !vars.Contains(v) {
			return Parsed{}, errAt(groupToks[v], "GROUP BY column %q not in any relation", v)
		}
	}
	q, err := query.New(name, free, rels...)
	if err != nil {
		return Parsed{}, err
	}
	if len(out.SumVars) == 0 && out.Constant != 1 {
		return Parsed{}, errAt(p.peek(), "SUM of a bare constant other than 1 is not supported; use SUM(1)")
	}
	out.Query = q
	return out, nil
}
