package db

import (
	"runtime"
	"testing"
	"time"

	"fivm/internal/data"
	"fivm/internal/wal"
)

// checkpointDB is a durable DB over the real file system (whose writes, unlike
// MemFS's, allocate nothing per byte) holding n rows of R and one SQL view.
func checkpointDB(t *testing.T, n int) *DB {
	t.Helper()
	d, err := Open(Catalog{"R": data.NewSchema("A", "B", "C")},
		Options{Durability: &DurabilityOptions{Dir: t.TempDir(), Fsync: wal.FsyncNever}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CreateViewSQL(d, "g", "SELECT A, SUM(C) FROM R GROUP BY A", ViewOptions{}); err != nil {
		t.Fatal(err)
	}
	rows := make([]data.Tuple, n)
	for i := range rows {
		rows[i] = tup(int64(i%100), int64(i), int64(i%13))
	}
	if err := d.Apply([]Update{Insert("R", rows...)}); err != nil {
		t.Fatal(err)
	}
	return d
}

// checkpointBytes is what one d.Checkpoint allocates, in bytes.
func checkpointBytes(t *testing.T, d *DB) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC() // two collections empty os.ReadDir's buffer pool, whatever ran before
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestAllocGuardCheckpointStore: a checkpoint sorts the base store's rows in
// the store's own entry table, so over 30 000 rows it allocates no more than
// over 3 000 — the first checkpoint of a DB included, which used to buy an
// 8-byte pointer per row. A checkpoint reads the WAL directory, and
// os.ReadDir's buffer comes from a pool that a collection empties, so every
// checkpoint is measured after two; TotalAlloc is process-wide, so each
// figure is the least of five: of five fresh DBs for the first checkpoint, of
// five more checkpoints of one DB for the later ones.
func TestAllocGuardCheckpointStore(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc guards run in the non-race pass")
	}
	measure := func(n int) (first, later uint64) {
		first, later = ^uint64(0), ^uint64(0)
		for range 5 {
			d := checkpointDB(t, n)
			first = min(first, checkpointBytes(t, d))
			d.Close()
		}
		d := checkpointDB(t, n)
		defer d.Close()
		checkpointBytes(t, d)
		for range 5 {
			later = min(later, checkpointBytes(t, d))
		}
		return first, later
	}
	small1, small := measure(3_000)
	large1, large := measure(30_000)
	t.Logf("bytes per checkpoint: first %d over 3 000 rows, %d over 30 000; later %d and %d", small1, large1, small, large)
	if large1 > small1+1<<10 || large > small+1<<10 {
		t.Errorf("a checkpoint of 30 000 rows allocated %d bytes (first) and %d (later), more than 3 000 rows' %d and %d plus 1 KiB",
			large1, large, small1, small)
	}
}

// bootstrapSource returns the bytes of a primary's checkpoint over n rows of
// R (ints and floats) and one SQL view grouped into 100 keys.
func bootstrapSource(t *testing.T, n int) []byte {
	t.Helper()
	fs := wal.NewMemFS()
	p, err := Open(Catalog{"R": data.NewSchema("A", "B", "C")}, Options{Durability: durOpts(fs)})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := CreateViewSQL(p, "g", "SELECT A, SUM(C) FROM R GROUP BY A", ViewOptions{}); err != nil {
		t.Fatal(err)
	}
	rows := make([]data.Tuple, n)
	for i := range rows {
		rows[i] = data.Tuple{data.Int(int64(i % 100)), data.Int(int64(i)), data.Float(float64(i%13) / 4)}
	}
	if err := p.Apply([]Update{Insert("R", rows...)}); err != nil {
		t.Fatal(err)
	}
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	raw, ck, err := wal.LatestCheckpointBytes(fs, "wal")
	if err != nil || ck == nil {
		t.Fatalf("no checkpoint: %v", err)
	}
	return raw
}

// bootstrap opens an in-memory follower from checkpoint bytes raw, the way a
// replication follower does, and checks it holds rows rows.
func bootstrap(t *testing.T, raw []byte, rows int) *DB {
	ck, err := wal.DecodeCheckpointBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Open(Catalog{"R": data.NewSchema("A", "B", "C")}, Options{Follower: true, Bootstrap: ck})
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Base("R").Len(); got != rows {
		t.Fatalf("bootstrapped %d rows, want %d", got, rows)
	}
	return d
}

// TestAllocGuardBootstrap: a follower's bootstrap checks the checkpoint's
// rows in place and restores them straight from its bytes, so it allocates
// no more objects over 30 000 rows than over 3 000 — no decoded tuple, no
// string, nothing per row but what the store keeps in bulk.
func TestAllocGuardBootstrap(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc guards run in the non-race pass")
	}
	objects := func(n int) float64 {
		raw := bootstrapSource(t, n)
		return testing.AllocsPerRun(3, func() { bootstrap(t, raw, n).Close() })
	}
	small, large := objects(3_000), objects(30_000)
	t.Logf("objects per bootstrap: %.0f from 3 000 rows, %.0f from 30 000", small, large)
	if large > small+64 {
		t.Errorf("bootstrapping from 30 000 rows allocated %.0f objects, from 3 000 %.0f: more than 64 apart", large, small)
	}
}

// TestFollowerDropsItsBootstrapCheckpoint: once Open has restored a shipped
// checkpoint, neither the decoded checkpoint nor the file bytes it reads from
// is reachable from the follower.
func TestFollowerDropsItsBootstrapCheckpoint(t *testing.T) {
	freed := make(chan string, 2)
	d := openBootstrapped(t, bootstrapSource(t, 2_000), freed)
	defer d.Close()
	deadline := time.Now().Add(10 * time.Second)
	for seen := map[string]bool{}; len(seen) < 2; {
		runtime.GC()
		select {
		case what := <-freed:
			seen[what] = true
		case <-time.After(10 * time.Millisecond):
			if time.Now().After(deadline) {
				t.Fatalf("the follower still holds its bootstrap checkpoint (collected: %v)", seen)
			}
		}
	}
	if got := d.Base("R").Len(); got != 2_000 {
		t.Fatalf("the follower holds %d rows, want 2000", got)
	}
}

// openBootstrapped is bootstrap with a cleanup registered on the decoded
// checkpoint and on its file bytes, each reporting on freed; it keeps no
// reference to either.
//
//go:noinline
func openBootstrapped(t *testing.T, raw []byte, freed chan<- string) *DB {
	ck, err := wal.DecodeCheckpointBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	runtime.AddCleanup(ck, func(string) { freed <- "checkpoint" }, "")
	runtime.AddCleanup(&raw[0], func(string) { freed <- "bytes" }, "")
	d, err := Open(Catalog{"R": data.NewSchema("A", "B", "C")}, Options{Follower: true, Bootstrap: ck})
	if err != nil {
		t.Fatal(err)
	}
	return d
}
