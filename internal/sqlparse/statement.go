package sqlparse

// StmtKind discriminates the statement forms of the dialect.
type StmtKind int

const (
	// StmtSelect is a bare SELECT query.
	StmtSelect StmtKind = iota
	// StmtCreateView is CREATE VIEW <name> AS SELECT ...
	StmtCreateView
	// StmtDropView is DROP VIEW <name>.
	StmtDropView
)

func (k StmtKind) String() string {
	switch k {
	case StmtSelect:
		return "SELECT"
	case StmtCreateView:
		return "CREATE VIEW"
	case StmtDropView:
		return "DROP VIEW"
	}
	return "unknown"
}

// Statement is one parsed statement: a query, or a view-lifecycle DDL
// command driving the same maintenance path (db.CreateView / db.DropView).
type Statement struct {
	Kind StmtKind
	// ViewName is the view's name for CREATE VIEW and DROP VIEW.
	ViewName string
	// Select is the parsed query body for StmtSelect and StmtCreateView.
	Select Parsed
}

// ParseStatement parses one statement of the dialect: a SELECT query,
// CREATE VIEW <name> AS SELECT ..., or DROP VIEW <name>. SELECT bodies are
// validated against the catalog; view names share the identifier syntax of
// relation names.
func ParseStatement(sql string, cat Catalog) (Statement, error) {
	toks, err := lex(sql)
	if err != nil {
		return Statement{}, err
	}
	p := &parser{toks: toks, cat: cat}

	switch {
	case isKeyword(p.peek(), "create"):
		p.next()
		if err := p.expectKeyword("view"); err != nil {
			return Statement{}, err
		}
		name, err := p.expect(tokIdent, "view name")
		if err != nil {
			return Statement{}, err
		}
		if isKeyword(name, "as") || isKeyword(name, "select") {
			return Statement{}, errAt(name, "expected view name, got %s", name)
		}
		if err := p.expectKeyword("as"); err != nil {
			return Statement{}, err
		}
		sel, err := p.parseSelect(name.text)
		if err != nil {
			return Statement{}, err
		}
		if err := p.end(); err != nil {
			return Statement{}, err
		}
		return Statement{Kind: StmtCreateView, ViewName: name.text, Select: sel}, nil

	case isKeyword(p.peek(), "drop"):
		p.next()
		if err := p.expectKeyword("view"); err != nil {
			return Statement{}, err
		}
		name, err := p.expect(tokIdent, "view name")
		if err != nil {
			return Statement{}, err
		}
		if err := p.end(); err != nil {
			return Statement{}, err
		}
		return Statement{Kind: StmtDropView, ViewName: name.text}, nil

	default:
		sel, err := p.parseSelect("sql")
		if err != nil {
			return Statement{}, err
		}
		if err := p.end(); err != nil {
			return Statement{}, err
		}
		return Statement{Kind: StmtSelect, Select: sel}, nil
	}
}
