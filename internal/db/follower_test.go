package db

import (
	"errors"
	"testing"

	"fivm/internal/data"
	"fivm/internal/ring"
	"fivm/internal/wal"
)

// followerCatalog matches testCatalog so primary records replay cleanly.
func followerPair(t *testing.T) (primary *DB, primaryFS *wal.MemVFS, follower *DB) {
	t.Helper()
	primaryFS = wal.NewMemFS()
	p, err := Open(testCatalog(), Options{Durability: &DurabilityOptions{Dir: "p", FS: primaryFS}})
	if err != nil {
		t.Fatal(err)
	}
	f, err := Open(testCatalog(), Options{Follower: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close(); f.Close() })
	return p, primaryFS, f
}

// shipAll scans the primary's WAL from the follower's position and applies
// every record — an in-process stand-in for the network transport, which
// decodes each frame into one arena and rewinds it once the record is applied.
func shipAll(t *testing.T, primaryFS *wal.MemVFS, f *DB) {
	t.Helper()
	var arena data.BatchArena
	_, gap, err := wal.ScanFramesAfter(primaryFS, "p", f.ReplLSN(), func(lsn uint64, frame []byte) error {
		defer arena.Rewind()
		rec, _, err := wal.DecodeFrameInto(frame, &arena)
		if err != nil {
			return err
		}
		return f.ApplyReplicated(rec)
	})
	if err != nil || gap {
		t.Fatalf("ship: err=%v gap=%v", err, gap)
	}
}

func TestFollowerRejectsDirectWrites(t *testing.T) {
	f, err := Open(testCatalog(), Options{Follower: true})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Apply([]Update{Insert("R", tup(1, 2))}); !errors.Is(err, ErrFollower) {
		t.Fatalf("Apply on follower: %v", err)
	}
	if _, err := f.Exec("CREATE VIEW v AS SELECT A, SUM(B) FROM R GROUP BY A"); !errors.Is(err, ErrFollower) {
		t.Fatalf("Exec on follower: %v", err)
	}
	if err := f.DropView("v"); !errors.Is(err, ErrFollower) {
		t.Fatalf("DropView on follower: %v", err)
	}
}

// A follower fed the primary's WAL records — batches, CREATE VIEW, DROP VIEW
// — converges to byte-identical view contents at the same applied count. A
// typed view the primary creates and drops is in none of them; a drop of one
// that an older primary logged is skipped.
func TestFollowerMirrorsPrimary(t *testing.T) {
	p, pfs, f := followerPair(t)

	if err := p.Apply([]Update{Insert("R", tup(1, 2), tup(2, 3)), Insert("S", tup(2, 4))}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Exec("CREATE VIEW sums AS SELECT A, SUM(B * C) FROM R NATURAL JOIN S GROUP BY A"); err != nil {
		t.Fatal(err)
	}
	if _, err := CreateView[int64](p, "cnt", testQuery("cnt", "A"), ring.Int{}, countLift, ViewOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := p.Apply([]Update{Insert("S", tup(3, 5)), Delete("R", tup(1, 2))}); err != nil {
		t.Fatal(err)
	}
	if err := p.DropView("cnt"); err != nil {
		t.Fatal(err)
	}
	if err := p.WAL().AppendDropView("typed"); err != nil { // as an older primary logged a typed view's drop
		t.Fatal(err)
	}
	if err := p.Apply([]Update{Insert("R", tup(3, 1))}); err != nil {
		t.Fatal(err)
	}

	shipAll(t, pfs, f)

	pe, fe := p.Epoch(), f.Epoch()
	if pe.Applied != fe.Applied {
		t.Fatalf("applied: primary %d, follower %d", pe.Applied, fe.Applied)
	}
	ps := SnapshotOf[float64](pe, "sums")
	fs := SnapshotOf[float64](fe, "sums")
	if ps == nil || fs == nil {
		t.Fatal("sums missing on a side")
	}
	if got, want := fpEntries(fs.Result().SortedEntries()), fpEntries(ps.Result().SortedEntries()); got != want {
		t.Fatalf("follower state %q != primary %q", got, want)
	}
	if f.ReplLSN() != p.WAL().LSN() {
		t.Fatalf("replLSN %d != primary LSN %d", f.ReplLSN(), p.WAL().LSN())
	}

	// DROP VIEW replicates too.
	if _, err := p.Exec("DROP VIEW sums"); err != nil {
		t.Fatal(err)
	}
	shipAll(t, pfs, f)
	if f.HasView("sums") {
		t.Fatal("dropped view survives on follower")
	}
}

// Duplicate records are skipped; a gap is an error.
func TestFollowerDupAndGap(t *testing.T) {
	p, pfs, f := followerPair(t)
	for i := 0; i < 3; i++ {
		if err := p.Apply([]Update{Insert("R", tup(int64(i), int64(i)))}); err != nil {
			t.Fatal(err)
		}
	}
	var recs []wal.Record
	_, _, err := wal.ScanFramesAfter(pfs, "p", 0, func(_ uint64, frame []byte) error {
		rec, _, err := wal.DecodeFrame(frame)
		recs = append(recs, rec)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.ApplyReplicated(recs[0]); err != nil {
		t.Fatal(err)
	}
	// Duplicate: silently skipped, state unchanged.
	if err := f.ApplyReplicated(recs[0]); err != nil {
		t.Fatalf("dup: %v", err)
	}
	if f.Applied() != 1 || f.ReplLSN() != 1 {
		t.Fatalf("after dup: applied=%d lsn=%d", f.Applied(), f.ReplLSN())
	}
	// Gap: LSN 3 after 1.
	if err := f.ApplyReplicated(recs[2]); err == nil {
		t.Fatal("gap not detected")
	}
}

// An in-memory follower bootstraps from a transferred checkpoint, then
// resumes the stream at the checkpoint's LSN.
func TestFollowerBootstrapFromCheckpoint(t *testing.T) {
	p, pfs, _ := followerPair(t)
	if err := p.Apply([]Update{Insert("R", tup(1, 2)), Insert("S", tup(2, 7))}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Exec("CREATE VIEW sums AS SELECT A, SUM(B * C) FROM R NATURAL JOIN S GROUP BY A"); err != nil {
		t.Fatal(err)
	}
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := p.Apply([]Update{Insert("R", tup(2, 4))}); err != nil {
		t.Fatal(err)
	}

	raw, ck, err := wal.LatestCheckpointBytes(pfs, "p")
	if err != nil || ck == nil {
		t.Fatalf("checkpoint: %v %v", ck, err)
	}
	ck2, err := wal.DecodeCheckpointBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	f, err := Open(testCatalog(), Options{Follower: true, Bootstrap: ck2})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.ReplLSN() != ck.LSN {
		t.Fatalf("bootstrap lsn %d, want %d", f.ReplLSN(), ck.LSN)
	}
	shipAll(t, pfs, f)

	ps := SnapshotOf[float64](p.Epoch(), "sums")
	fs := SnapshotOf[float64](f.Epoch(), "sums")
	if got, want := fpEntries(fs.Result().SortedEntries()), fpEntries(ps.Result().SortedEntries()); got != want {
		t.Fatalf("bootstrapped follower %q != primary %q", got, want)
	}
	if f.Applied() != p.Applied() {
		t.Fatalf("applied %d != %d", f.Applied(), p.Applied())
	}

	// Bootstrap without Follower mode is rejected; so is durable+Bootstrap.
	if _, err := Open(testCatalog(), Options{Bootstrap: ck2}); err == nil {
		t.Fatal("Bootstrap without Follower accepted")
	}
	if _, err := Open(testCatalog(), Options{
		Follower:   true,
		Bootstrap:  ck2,
		Durability: &DurabilityOptions{Dir: "x", FS: wal.NewMemFS()},
	}); err == nil {
		t.Fatal("durable Bootstrap accepted")
	}
}

// A durable follower re-logs shipped records under the primary's LSNs — a
// drop of a view it does not hold included — so a restart recovers locally
// and resumes exactly where it stopped.
func TestFollowerDurableRestartResumes(t *testing.T) {
	p, pfs, _ := followerPair(t)
	ffs := wal.NewMemFS()
	fopts := Options{Follower: true, Durability: &DurabilityOptions{Dir: "f", FS: ffs}}
	f, err := Open(testCatalog(), fopts)
	if err != nil {
		t.Fatal(err)
	}

	if err := p.Apply([]Update{Insert("R", tup(1, 2)), Insert("S", tup(2, 3))}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Exec("CREATE VIEW sums AS SELECT A, SUM(B * C) FROM R NATURAL JOIN S GROUP BY A"); err != nil {
		t.Fatal(err)
	}
	if err := p.WAL().AppendDropView("typed"); err != nil { // as an older primary logged a typed view's drop
		t.Fatal(err)
	}
	shipAll(t, pfs, f)
	lsnBefore := f.ReplLSN()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// More primary traffic while the follower is down.
	if err := p.Apply([]Update{Insert("R", tup(3, 4))}); err != nil {
		t.Fatal(err)
	}

	f2, err := Open(testCatalog(), fopts)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if f2.ReplLSN() != lsnBefore {
		t.Fatalf("restarted follower at lsn %d, want %d", f2.ReplLSN(), lsnBefore)
	}
	if !f2.HasView("sums") {
		t.Fatal("view lost across restart")
	}
	shipAll(t, pfs, f2)

	ps := SnapshotOf[float64](p.Epoch(), "sums")
	fs := SnapshotOf[float64](f2.Epoch(), "sums")
	if got, want := fpEntries(fs.Result().SortedEntries()), fpEntries(ps.Result().SortedEntries()); got != want {
		t.Fatalf("restarted follower %q != primary %q", got, want)
	}
}
