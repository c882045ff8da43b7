// Recovery semantics at the serving layer: readers pinned on a DB that
// crashes keep their epoch (immutable snapshots), and readers over the
// recovered DB serve exactly the pre-crash acknowledged state. This lives in
// an external test package so it can drive the full db + wal stack without
// an import cycle (db imports serve).
package serve_test

import (
	"testing"

	"fivm/internal/data"
	"fivm/internal/db"
	"fivm/internal/serve"
	"fivm/internal/wal"
)

func recCatalog() db.Catalog {
	return db.Catalog{
		"R": data.NewSchema("A", "B"),
		"S": data.NewSchema("A", "C"),
	}
}

func recTup(vals ...int64) data.Tuple {
	t := make(data.Tuple, len(vals))
	for i, v := range vals {
		t[i] = data.Int(v)
	}
	return t
}

const recSQL = "SELECT A, COUNT(*) FROM R NATURAL JOIN S GROUP BY A"

func TestReaderOverRecoveredDB(t *testing.T) {
	fs := wal.NewMemFS()
	dopts := db.Options{Durability: &db.DurabilityOptions{
		Dir: "wal", FS: fs, Fsync: wal.FsyncAlways,
	}}
	d, err := db.Open(recCatalog(), dopts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateViewSQL(d, "cnt", recSQL, db.ViewOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := d.Apply([]db.Update{
		db.Insert("R", recTup(1, 10), recTup(1, 11), recTup(2, 20)),
		db.Insert("S", recTup(1, 100), recTup(2, 200)),
	}); err != nil {
		t.Fatal(err)
	}
	if err := d.Apply([]db.Update{db.Delete("R", recTup(1, 11))}); err != nil {
		t.Fatal(err)
	}

	r1, err := db.ReaderFor[float64](d, "cnt")
	if err != nil {
		t.Fatal(err)
	}
	want1, ok1 := r1.Lookup(recTup(1))
	want2, ok2 := r1.Lookup(recTup(2))
	if !ok1 || !ok2 {
		t.Fatalf("pre-crash lookups missing: %v %v", ok1, ok2)
	}
	preEpoch := r1.Snapshot().Epoch

	// Crash. The pinned reader keeps serving its immutable snapshot.
	fs.Crash()
	if got, ok := r1.Lookup(recTup(1)); !ok || got != want1 {
		t.Fatalf("pinned reader lost its snapshot after crash: %v %v", got, ok)
	}
	if r1.Snapshot().Epoch != preEpoch {
		t.Fatal("pinned reader's epoch moved")
	}

	// Recover and serve: a fresh reader over the recovered DB returns the
	// exact acknowledged state.
	d2, err := db.Open(recCatalog(), dopts)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	var r2 *serve.Reader[float64]
	r2, err = db.ReaderFor[float64](d2, "cnt")
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := r2.Lookup(recTup(1)); !ok || got != want1 {
		t.Fatalf("recovered lookup(1) = %v,%v want %v", got, ok, want1)
	}
	if got, ok := r2.Lookup(recTup(2)); !ok || got != want2 {
		t.Fatalf("recovered lookup(2) = %v,%v want %v", got, ok, want2)
	}

	// The recovered DB publishes onward; Refresh picks the new epochs up.
	if err := d2.Apply([]db.Update{db.Insert("R", recTup(2, 21))}); err != nil {
		t.Fatal(err)
	}
	// A reader constructed before the batch sees it only after Refresh.
	if !r2.Refresh() {
		t.Fatal("Refresh did not advance after a post-recovery batch")
	}
	if got, ok := r2.Lookup(recTup(2)); !ok || got != want2+1 {
		t.Fatalf("post-recovery lookup(2) = %v,%v want %v", got, ok, want2+1)
	}

	// Scan consistency on the recovered epoch.
	n := 0
	r2.Scan(nil, func(tp data.Tuple, p float64) bool { n++; return true })
	if n != r2.Result().Len() {
		t.Fatalf("scan visited %d of %d entries", n, r2.Result().Len())
	}
}
