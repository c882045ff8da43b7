package db

import (
	"fmt"

	"fivm/internal/ring"
	"fivm/internal/sqlparse"
)

// CreateViewSQL registers a view from SQL text — either a full
// "CREATE VIEW <name> AS SELECT ..." statement or a bare SELECT (the name
// argument then supplies the view name; for CREATE VIEW text, name must be
// empty or agree with the statement). The view is maintained in the R ring
// (float64 payloads) with the lifting the aggregate requires, and behaves
// exactly like a CreateView-registered view: backfilled, epoch-published,
// droppable.
func CreateViewSQL(d *DB, name, sql string, opts ViewOptions) (*View[float64], error) {
	if err := d.writable(); err != nil {
		return nil, err
	}
	return createViewSQL(d, name, sql, opts, true)
}

// createViewSQL is CreateViewSQL below the follower guard (applyRecord and
// recovery replay through it); logIt logs the creation on a durable DB.
func createViewSQL(d *DB, name, sql string, opts ViewOptions, logIt bool) (*View[float64], error) {
	st, err := sqlparse.ParseStatement(sql, d.catalog())
	if err != nil {
		return nil, err
	}
	switch st.Kind {
	case sqlparse.StmtCreateView:
		if name != "" && name != st.ViewName {
			return nil, fmt.Errorf("db: view name %q conflicts with CREATE VIEW %s", name, st.ViewName)
		}
		name = st.ViewName
	case sqlparse.StmtSelect:
		if name == "" {
			return nil, fmt.Errorf("db: a bare SELECT needs an explicit view name")
		}
		st.Select.Query.Name = name
	default:
		return nil, fmt.Errorf("db: %s is not a view definition", st.Kind)
	}
	v, err := createView[float64](d, name, st.Select.Query, ring.Float{}, st.Select.LiftFloat(), opts)
	if err != nil {
		return nil, err
	}
	if d.log != nil {
		def := viewDefOf(name, sql, opts)
		if logIt {
			// Log the creation; if the append fails the view cannot be made
			// durable, so undo it rather than let memory and log diverge.
			if err := d.log.AppendCreateView(def); err != nil {
				_ = d.dropView(name, false)
				return nil, fmt.Errorf("db: wal append: %w", err)
			}
		}
		d.sqlViews[name] = def
	}
	return v, nil
}

// Exec executes one DDL statement — CREATE VIEW ... AS SELECT ... or
// DROP VIEW ... — against the DB and returns a short status line. Bare
// SELECTs are rejected (they carry no view name); use CreateViewSQL.
// SQL-created views use default ViewOptions; register via CreateView /
// CreateViewSQL directly to configure the variable order or the optimizer
// flags.
func (d *DB) Exec(sql string) (string, error) {
	st, err := sqlparse.ParseStatement(sql, d.catalog())
	if err != nil {
		return "", err
	}
	switch st.Kind {
	case sqlparse.StmtCreateView:
		// Route through CreateViewSQL so the view is persisted in the WAL
		// catalog exactly like any other SQL-defined view.
		if _, err := CreateViewSQL(d, st.ViewName, sql, ViewOptions{}); err != nil {
			return "", err
		}
		return fmt.Sprintf("created view %s", st.ViewName), nil
	case sqlparse.StmtDropView:
		if err := d.DropView(st.ViewName); err != nil {
			return "", err
		}
		return fmt.Sprintf("dropped view %s", st.ViewName), nil
	default:
		return "", fmt.Errorf("db: bare SELECT has no view name; use CREATE VIEW <name> AS SELECT ...")
	}
}

// catalog rebuilds the SQL catalog view of the base store.
func (d *DB) catalog() Catalog {
	cat := make(Catalog, len(d.store.Relations()))
	for _, rel := range d.store.Relations() {
		sch, _ := d.store.Schema(rel)
		cat[rel] = sch
	}
	return cat
}
