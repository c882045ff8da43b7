package replica

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"fivm/internal/data"
	"fivm/internal/db"
	"fivm/internal/wal"
)

// TestMain runs the package under data's poison hook (data.PoisonReclaimed):
// a read through a released epoch fails the suite loudly.
func TestMain(m *testing.M) {
	data.PoisonReclaimed(true)
	os.Exit(m.Run())
}

func testCatalog() db.Catalog {
	return db.Catalog{
		"R": data.NewSchema("A", "B"),
		"S": data.NewSchema("A", "C"),
	}
}

func tup(vals ...int64) data.Tuple {
	t := make(data.Tuple, len(vals))
	for i, v := range vals {
		t[i] = data.Int(v)
	}
	return t
}

const sumsSQL = "CREATE VIEW sums AS SELECT A, SUM(B * C) FROM R NATURAL JOIN S GROUP BY A"

// newPrimary opens a durable primary on an in-memory FS and starts its
// replication listener on a loopback port.
func newPrimary(t *testing.T, dur *db.DurabilityOptions) (*db.DB, *Primary) {
	t.Helper()
	d, err := db.Open(testCatalog(), db.Options{Durability: dur})
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.Close()
		t.Fatal(err)
	}
	p, err := NewPrimary(d, lis)
	if err != nil {
		d.Close()
		t.Fatal(err)
	}
	go p.Serve()
	t.Cleanup(func() { p.Close(); d.Close() })
	return d, p
}

func startFollower(t *testing.T, cfg FollowerConfig) (*Follower, context.CancelFunc) {
	t.Helper()
	if cfg.Catalog == nil {
		cfg.Catalog = testCatalog()
	}
	if cfg.RedialWait == 0 {
		cfg.RedialWait = 10 * time.Millisecond
	}
	f, err := NewFollower(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); f.Run(ctx) }()
	// The returned stop waits for Run to return: Close must not race the
	// stream goroutine's last record (it closes the follower's WAL).
	stop := func() { cancel(); <-done }
	t.Cleanup(func() { stop(); f.Close() })
	return f, stop
}

// appliedOf reads the batch count of d's current epoch (the race-safe path),
// giving the lease back.
func appliedOf(d *db.DB) uint64 {
	e := d.Epoch()
	defer e.Release()
	return e.Applied
}

// waitConverged polls until the follower reflects the primary's applied
// count (reads via the race-safe Epoch pointer only).
func waitConverged(t *testing.T, p *db.DB, f *Follower) {
	t.Helper()
	want := appliedOf(p)
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if appliedOf(f.DB()) >= want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("follower stuck at applied=%d, want %d", appliedOf(f.DB()), want)
}

// assertNoForgottenLeases forces two collections, replicates one more batch
// so both sides drain what the collector found, and requires that no view on
// either side ever needed the arena's GC backstop: the replication path gives
// back every epoch it takes.
func assertNoForgottenLeases(t *testing.T, p *db.DB, f *Follower) {
	t.Helper()
	runtime.GC()
	runtime.GC()
	if err := p.Apply([]db.Update{db.Insert("R", tup(1, 1)), db.Insert("S", tup(1, 1))}); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, p, f)
	for side, d := range map[string]*db.DB{"primary": p, "follower": f.DB()} {
		e := d.Epoch()
		for _, name := range e.Views() {
			if st, _ := e.Stats(name); st.Arena.BackstopReclaims != 0 || st.Arena.BlocksLive == 0 {
				t.Errorf("%s view %s: arena %+v, want live blocks and no backstop reclaim", side, name, st.Arena)
			}
		}
		e.Release()
	}
}

// viewString renders a view's sorted contents for byte-identity checks.
func viewString(e *db.Epoch, name string) string {
	s := db.SnapshotOf[float64](e, name)
	if s == nil {
		return "<missing>"
	}
	var b strings.Builder
	for _, en := range s.Result().SortedEntries() {
		fmt.Fprintf(&b, "%v->%v;", en.Tuple, en.Payload)
	}
	return b.String()
}

// assertIdentical compares every view of the primary's epoch with the
// follower's at the same applied count.
func assertIdentical(t *testing.T, p *db.DB, f *Follower) {
	t.Helper()
	pe, fe := p.Epoch(), f.DB().Epoch()
	defer pe.Release()
	defer fe.Release()
	if pe.Applied != fe.Applied {
		t.Fatalf("applied: primary %d, follower %d", pe.Applied, fe.Applied)
	}
	pv, fv := pe.Views(), fe.Views()
	if fmt.Sprint(pv) != fmt.Sprint(fv) {
		t.Fatalf("view catalogs differ: primary %v, follower %v", pv, fv)
	}
	for _, name := range pv {
		if got, want := viewString(fe, name), viewString(pe, name); got != want {
			t.Fatalf("view %s: follower %q != primary %q", name, got, want)
		}
	}
}

func TestReplicationConverges(t *testing.T) {
	p, pr := newPrimary(t, &db.DurabilityOptions{Dir: "p", FS: wal.NewMemFS()})
	// OnApply is the every-epoch source lag measurement stands on: it must see
	// each applied batch count once the record is applied, in order.
	var seen []uint64 // the stream goroutine's until stop returns
	f, stop := startFollower(t, FollowerConfig{Primary: pr.Addr().String(),
		OnApply: func(e *db.Epoch) { seen = append(seen, e.Applied) }})

	if err := p.Apply([]db.Update{db.Insert("R", tup(1, 2), tup(2, 3)), db.Insert("S", tup(1, 10))}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Exec(sumsSQL); err != nil {
		t.Fatal(err)
	}
	if err := p.Apply([]db.Update{db.Insert("S", tup(2, 20)), db.Delete("R", tup(1, 2))}); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, p, f)
	assertIdentical(t, p, f)
	if f.DB().ReplLSN() != p.WAL().LSN() {
		t.Fatalf("follower LSN %d != primary %d", f.DB().ReplLSN(), p.WAL().LSN())
	}
	assertNoForgottenLeases(t, p, f)
	stop()
	next := uint64(1)
	for i, a := range seen {
		if i > 0 && a < seen[i-1] {
			t.Fatalf("OnApply saw applied counts out of order: %v", seen)
		}
		if a == next {
			next++
		}
	}
	if want := appliedOf(p); next != want+1 {
		t.Fatalf("OnApply saw applied counts %v, want every one of 1..%d", seen, want)
	}
}

// A follower connecting after the primary pruned its WAL bootstraps from a
// shipped checkpoint, then follows the tail.
func TestCheckpointTransferBootstrap(t *testing.T) {
	p, pr := newPrimary(t, &db.DurabilityOptions{Dir: "p", FS: wal.NewMemFS()})
	if err := p.Apply([]db.Update{db.Insert("R", tup(1, 2)), db.Insert("S", tup(1, 7))}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Exec(sumsSQL); err != nil {
		t.Fatal(err)
	}
	if err := p.Checkpoint(); err != nil { // prunes the segments behind it
		t.Fatal(err)
	}
	if err := p.Apply([]db.Update{db.Insert("R", tup(2, 4))}); err != nil {
		t.Fatal(err)
	}

	f, _ := startFollower(t, FollowerConfig{Primary: pr.Addr().String()})
	waitConverged(t, p, f)
	assertIdentical(t, p, f)
	if !f.DB().HasView("sums") {
		t.Fatal("view missing after checkpoint bootstrap")
	}
}

// A durable follower restarted mid-stream resumes from its local WAL
// without re-applying (LSN parity), picking up what it missed.
func TestDurableFollowerRestartResumes(t *testing.T) {
	p, pr := newPrimary(t, &db.DurabilityOptions{Dir: "p", FS: wal.NewMemFS()})
	ffs := wal.NewMemFS()
	fcfg := FollowerConfig{
		Primary:    pr.Addr().String(),
		Durability: &db.DurabilityOptions{Dir: "f", FS: ffs},
	}

	f, cancel := startFollower(t, fcfg)
	if err := p.Apply([]db.Update{db.Insert("R", tup(1, 2)), db.Insert("S", tup(1, 3))}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Exec(sumsSQL); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, p, f)
	lsn := f.DB().ReplLSN()
	cancel()
	f.Close()

	// Primary keeps going while the follower is down.
	if err := p.Apply([]db.Update{db.Insert("R", tup(2, 5)), db.Insert("S", tup(2, 6))}); err != nil {
		t.Fatal(err)
	}

	f2, _ := startFollower(t, fcfg)
	if got := f2.DB().ReplLSN(); got < lsn {
		t.Fatalf("restarted follower regressed to LSN %d (had %d)", got, lsn)
	}
	waitConverged(t, p, f2)
	assertIdentical(t, p, f2)
}

// A durable follower so far behind that the primary pruned past it is
// rebuilt from a shipped checkpoint — local WAL wiped and reseeded — and
// still resumes durable operation afterwards.
func TestDurableFollowerCheckpointRebootstrap(t *testing.T) {
	p, pr := newPrimary(t, &db.DurabilityOptions{Dir: "p", FS: wal.NewMemFS()})
	ffs := wal.NewMemFS()
	fcfg := FollowerConfig{
		Primary:    pr.Addr().String(),
		Durability: &db.DurabilityOptions{Dir: "f", FS: ffs},
	}
	f, cancel := startFollower(t, fcfg)
	if err := p.Apply([]db.Update{db.Insert("R", tup(1, 2))}); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, p, f)
	cancel()
	f.Close()

	// While down: more batches, a view, and a pruning checkpoint.
	if err := p.Apply([]db.Update{db.Insert("S", tup(1, 4)), db.Insert("R", tup(3, 3))}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Exec(sumsSQL); err != nil {
		t.Fatal(err)
	}
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := p.Apply([]db.Update{db.Insert("S", tup(3, 9))}); err != nil {
		t.Fatal(err)
	}

	f2, _ := startFollower(t, fcfg)
	waitConverged(t, p, f2)
	assertIdentical(t, p, f2)
	if f2.DB().ReplLSN() != p.WAL().LSN() {
		t.Fatalf("LSN parity lost: %d != %d", f2.DB().ReplLSN(), p.WAL().LSN())
	}
}

// Property test: a random insert/delete stream with mid-stream DDL, the
// follower's connection torn down at random points (plus one full durable
// restart), must still converge to byte-identical epochs without gaps.
func TestReplicationRandomStreamWithKills(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	p, pr := newPrimary(t, &db.DurabilityOptions{Dir: "p", FS: wal.NewMemFS()})
	ffs := wal.NewMemFS()
	fcfg := FollowerConfig{
		Primary:    pr.Addr().String(),
		Durability: &db.DurabilityOptions{Dir: "f", FS: ffs},
	}
	f, cancel := startFollower(t, fcfg)

	// Track live tuples so deletes always hit existing ones (full removal
	// keeps payloads non-zero: groups either exist or are annihilated
	// identically on both sides).
	var liveR, liveS []data.Tuple
	views := 0
	rounds := 60
	if testing.Short() {
		rounds = 20
	}
	for i := 0; i < rounds; i++ {
		switch {
		case i == rounds/3 || i == rounds/2:
			name := fmt.Sprintf("v%d", views)
			views++
			sql := fmt.Sprintf("CREATE VIEW %s AS SELECT A, SUM(B * C) FROM R NATURAL JOIN S GROUP BY A", name)
			if _, err := p.Exec(sql); err != nil {
				t.Fatal(err)
			}
		default:
			var batch []db.Update
			n := 1 + rng.Intn(3)
			for j := 0; j < n; j++ {
				a, v := int64(1+rng.Intn(8)), int64(1+rng.Intn(9))
				if rng.Intn(4) == 0 && len(liveR) > 0 {
					k := rng.Intn(len(liveR))
					batch = append(batch, db.Delete("R", liveR[k]))
					liveR = append(liveR[:k], liveR[k+1:]...)
				} else if rng.Intn(2) == 0 {
					tu := tup(a, v)
					liveR = append(liveR, tu)
					batch = append(batch, db.Insert("R", tu))
				} else {
					tu := tup(a, v)
					liveS = append(liveS, tu)
					batch = append(batch, db.Insert("S", tu))
				}
			}
			if err := p.Apply(batch); err != nil {
				t.Fatal(err)
			}
		}
		// Tear the connection down at random points mid-stream.
		if rng.Intn(5) == 0 {
			f.dropConn()
		}
		// Once, kill the whole follower process-style and restart it.
		if i == 2*rounds/3 {
			cancel()
			f.Close()
			f, cancel = startFollower(t, fcfg)
		}
	}
	waitConverged(t, p, f)
	assertIdentical(t, p, f)
	if f.DB().ReplLSN() != p.WAL().LSN() {
		t.Fatalf("LSN parity lost: %d != %d", f.DB().ReplLSN(), p.WAL().LSN())
	}
	assertNoForgottenLeases(t, p, f)
}

// TestAllocGuardApplyReplicated: what the follower does with each shipped
// frame (applyFrame: decode into its arena, apply, rewind) allocates nothing
// per tuple. A window slides over R under two SQL views that join it with a
// dimension (the benchmark's shape: every group exists, so the views adopt no
// key); records of 200 and of 800 tuples must cost the same — the epoch and
// the views' epochs; the relation names are the arena's (BatchArena.Name) —
// where heap decoding costs a 128-byte tuple per row.
func TestAllocGuardApplyReplicated(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc guards run in the non-race pass")
	}
	const warm, measured = 40, 80
	perRecord := func(half int) uint64 {
		pfs := wal.NewMemFS()
		cat := db.Catalog{"R": data.NewSchema("A", "B", "C", "D"), "S": data.NewSchema("A", "E")}
		p, err := db.Open(cat, db.Options{Durability: &db.DurabilityOptions{Dir: "p", FS: pfs, Fsync: wal.FsyncNever}})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		for _, sql := range []string{"CREATE VIEW byA AS SELECT A, SUM(D * E) FROM R NATURAL JOIN S GROUP BY A",
			"CREATE VIEW byE AS SELECT E, SUM(C) FROM R NATURAL JOIN S GROUP BY E"} {
			if _, err := p.Exec(sql); err != nil {
				t.Fatal(err)
			}
		}
		dims := make([]data.Tuple, 50)
		for a := range dims {
			dims[a] = tup(int64(a), int64(a%5))
		}
		if err := p.Apply([]db.Update{db.Insert("S", dims...)}); err != nil {
			t.Fatal(err)
		}
		// Rows repeat every 500, beyond the window; the lifted columns take few
		// values, so the plans' lift caches fill during the warm-up.
		row := func(i int) data.Tuple { return tup(int64(i%50), int64(i/50%10), int64(i%7), int64(i%11)) }
		for b := 0; b < warm+measured; b++ {
			ins, del := make([]data.Tuple, half), make([]data.Tuple, half)
			for i := range ins {
				ins[i], del[i] = row((b+1)*half+i), row(b*half+i)
			}
			ups := []db.Update{db.Insert("R", ins...)}
			if b > 0 {
				ups = append(ups, db.Delete("R", del...))
			}
			if err := p.Apply(ups); err != nil {
				t.Fatal(err)
			}
		}
		var frames [][]byte
		if _, gap, err := wal.ScanFramesAfter(pfs, "p", 0, func(_ uint64, frame []byte) error {
			frames = append(frames, append([]byte(nil), frame...))
			return nil
		}); err != nil || gap {
			t.Fatalf("scan: err=%v gap=%v", err, gap)
		}
		f, err := NewFollower(FollowerConfig{Primary: "unused", Catalog: cat})
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		var before, after runtime.MemStats
		for i, frame := range frames {
			if i == len(frames)-measured {
				runtime.ReadMemStats(&before)
			}
			if err := f.applyFrame(f.DB(), frame); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		pe, fe := p.Epoch(), f.DB().Epoch()
		defer pe.Release()
		defer fe.Release()
		dump := func(e *db.Epoch) (out string) {
			for _, en := range db.SnapshotOf[float64](e, "byA").Result().SortedEntries() {
				out += fmt.Sprintf("%v->%v;", en.Tuple, en.Payload)
			}
			return out
		}
		if got, want := dump(fe), dump(pe); got != want || fe.Applied != pe.Applied {
			t.Fatalf("follower at %d holds %s, primary at %d %s", fe.Applied, got, pe.Applied, want)
		}
		if fe.Ingest.ArenaBytes < 2*half*4*32 {
			t.Fatalf("follower epoch reports an arena of %d bytes for %d tuples", fe.Ingest.ArenaBytes, 2*half)
		}
		return (after.TotalAlloc - before.TotalAlloc) / measured
	}
	small, large := perRecord(100), perRecord(400)
	t.Logf("%d B per record of 200 tuples, %d B per record of 800", small, large)
	if large > small+256 || small > 520+520/3 { // re-measured 520 and 521; heap decoding reads 33 277 and 124 161
		t.Errorf("applying a shipped record allocates %d B at 200 tuples and %d B at 800: something is allocated per tuple", small, large)
	}
}
