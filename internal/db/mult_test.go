package db

import (
	"strings"
	"testing"

	"fivm/internal/data"
	"fivm/internal/wal"
)

// countSQL reads a group's base multiplicity: SUM(1) counts a row of R once
// per unit of its multiplicity, so a row left at -1 reads -1.
const countSQL = "SELECT A, SUM(1) FROM R GROUP BY A"

// groupCount is the count countSQL's view holds for group a (0 when absent).
func groupCount(t *testing.T, d *DB, view string, a int64) float64 {
	t.Helper()
	e := d.Epoch()
	defer e.Release()
	s := SnapshotOf[float64](e, view)
	if s == nil {
		t.Fatalf("no snapshot for %s", view)
	}
	p, _ := s.Result().Get(tup(a))
	return p
}

// TestApplyRefusesNegativeMultiplicity: on the primary, a batch that would
// leave a stored row below zero — a delete of an absent row, or a delete
// counted against the batch's own earlier updates — is refused whole before
// the WAL append, naming the relation and the row; the log, the applied
// count and the views are as they were.
func TestApplyRefusesNegativeMultiplicity(t *testing.T) {
	d, err := Open(testCatalog(), Options{Durability: durOpts(wal.NewMemFS())})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := CreateViewSQL(d, "cnt", countSQL, ViewOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := d.Apply([]Update{Insert("R", tup(1, 2), tup(3, 3))}); err != nil {
		t.Fatal(err)
	}
	lsn, applied := d.WAL().LSN(), d.Applied()
	for _, batch := range [][]Update{
		{Insert("S", tup(1, 1)), Delete("R", tup(5, 5))},
		{Delete("R", tup(1, 2), tup(1, 2))},
		{Insert("R", tup(7, 7)), Delete("R", tup(7, 7)), Delete("R", tup(7, 7))},
		{{Rel: "R", Tuples: []data.Tuple{tup(1, 2)}, Mult: -2}},
	} {
		err := d.Apply(batch)
		if err == nil || !strings.Contains(err.Error(), `"R"`) || !strings.Contains(err.Error(), "multiplicity -1") {
			t.Fatalf("batch %v: %v, want a refusal naming R and the row", batch, err)
		}
	}
	if d.WAL().LSN() != lsn || d.Applied() != applied {
		t.Fatalf("a refused batch moved the log to %d (from %d) or the applied count to %d (from %d)", d.WAL().LSN(), lsn, d.Applied(), applied)
	}
	if n := groupCount(t, d, "cnt", 5); n != 0 {
		t.Fatalf("SUM(1) of an absent row's group reads %v", n)
	}
	// A delete of a stored row, and one of a row the batch inserted first, pass.
	if err := d.Apply([]Update{Delete("R", tup(1, 2)), Insert("R", tup(9, 9)), Delete("R", tup(9, 9))}); err != nil {
		t.Fatal(err)
	}
	if n, m := groupCount(t, d, "cnt", 1), groupCount(t, d, "cnt", 3); n != 0 || m != 1 {
		t.Fatalf("SUM(1) after the deletes: group 1 %v, group 3 %v", n, m)
	}
}

// negativeBatch deletes a row R never held: Apply refuses it, so a test logs
// it through the WAL directly, as a log written before the rule may hold it.
var negativeBatch = []data.BaseUpdate{{Rel: "R", Tuples: []data.Tuple{tup(5, 5)}, Mult: -1}}

// TestRecoveryReplaysNegativeMultiplicity: recovery applies a logged batch as
// it was logged, a delete of an absent row included: the row is left at -1.
func TestRecoveryReplaysNegativeMultiplicity(t *testing.T) {
	fs := wal.NewMemFS()
	d, err := Open(testCatalog(), Options{Durability: durOpts(fs)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CreateViewSQL(d, "cnt", countSQL, ViewOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := d.WAL().AppendBatch(d.Applied()+1, negativeBatch); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d, err = Open(testCatalog(), Options{Durability: durOpts(fs)})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if n := groupCount(t, d, "cnt", 5); n != -1 || d.Recovery().ReplayedBatches != 1 {
		t.Fatalf("recovered SUM(1) of the deleted row's group %v after %d batches, want -1 after 1", n, d.Recovery().ReplayedBatches)
	}
}

// TestFollowerReplaysNegativeMultiplicity: a follower applies a shipped batch
// as it was logged, a delete of an absent row included.
func TestFollowerReplaysNegativeMultiplicity(t *testing.T) {
	p, pfs, f := followerPair(t)
	if _, err := p.Exec("CREATE VIEW cnt AS " + countSQL); err != nil {
		t.Fatal(err)
	}
	if err := p.WAL().AppendBatch(p.Applied()+1, negativeBatch); err != nil {
		t.Fatal(err)
	}
	shipAll(t, pfs, f)
	if n := groupCount(t, f, "cnt", 5); n != -1 || f.Applied() != 1 {
		t.Fatalf("follower SUM(1) of the deleted row's group %v after %d batches, want -1 after 1", n, f.Applied())
	}
}
