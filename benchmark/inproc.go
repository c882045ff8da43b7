package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strings"
	"time"

	"fivm/internal/data"
	"fivm/internal/datasets"
	"fivm/internal/db"
	"fivm/internal/ivm"
	"fivm/internal/query"
	"fivm/internal/ring"
	"fivm/internal/vorder"
	"fivm/internal/wal"
)

// The two in-process workloads: one maintenance goroutine calling db.Apply,
// in cycles of "insert the whole stream, then retract it in the same order".
// A cycle returns the database to empty, so every cycle does the same work.

// viewDef is one view of an in-process workload, either SQL (persisted by a
// durable DB and re-created by recovery) or typed.
type viewDef[P any] struct {
	name    string
	sql     string // SQL views only
	q       query.Query
	lift    data.LiftFunc[P]
	order   func() *vorder.Order
	compose bool
}

type inprocWorkload[P any] struct {
	name     string
	retailer datasets.RetailerConfig
	batch    int
	durable  bool
	ring     ring.Ring[P]
	views    func(st *retailerStream) []viewDef[P]
	// oracle computes a view's expected contents from the base relations.
	oracle func(d *db.DB, st *retailerStream, v viewDef[P]) (map[string]P, error)
	equal  func(a, b P) bool
}

// inprocState is a set-up database with its views registered.
type inprocState[P any] struct {
	st        *retailerStream
	d         *db.DB
	fs        *countingFS
	dir       string
	defs      []viewDef[P]
	liftCalls int64
	createMs  []float64
}

func (w *inprocWorkload[P]) open(st *retailerStream, dir string, fs wal.VFS) (*db.DB, error) {
	var opts db.Options
	if dir != "" {
		opts.Durability = &db.DurabilityOptions{Dir: dir, FS: fs, Fsync: wal.FsyncNever, CheckpointEvery: 2000}
	}
	return db.Open(st.cat, opts)
}

// createViews registers the workload's views on d and returns how long each
// took. SQL views take the default options, as through Exec.
func createViews[P any](d *db.DB, rg ring.Ring[P], defs []viewDef[P], liftCalls *int64) ([]float64, error) {
	var ms []float64
	for i := range defs {
		v := &defs[i]
		start := time.Now()
		if v.sql != "" {
			sv, err := db.CreateViewSQL(d, "", v.sql, db.ViewOptions{})
			if err != nil {
				return nil, fmt.Errorf("create %s: %w", v.name, err)
			}
			v.q = sv.Query() // the SQL front end builds the query; the shadow engines reuse it
		} else {
			lift := v.lift
			if liftCalls != nil {
				lift = countingLift(lift, liftCalls)
			}
			if _, err := db.CreateView[P](d, v.name, v.q, rg, lift,
				db.ViewOptions{Order: v.order, ComposeChains: v.compose, Workers: 1}); err != nil {
				return nil, fmt.Errorf("create %s: %w", v.name, err)
			}
		}
		ms = append(ms, float64(time.Since(start))/1e6)
	}
	return ms, nil
}

func (w *inprocWorkload[P]) setup(p params) (*inprocState[P], error) {
	cfg := scaleDates(w.retailer, p.scale)
	cfg.Seed = p.seed
	st := genRetailerStream(cfg, w.batch)
	s := &inprocState[P]{st: st, defs: w.views(st)}
	if w.durable {
		dir, err := os.MkdirTemp(p.outDir, w.name+"-wal-*")
		if err != nil {
			return nil, err
		}
		s.dir, s.fs = dir, newCountingFS(wal.OSFS{})
	}
	d, err := w.open(st, s.dir, s.fs)
	if err != nil {
		s.teardown()
		return nil, err
	}
	s.d = d
	if s.createMs, err = createViews(d, w.ring, s.defs, &s.liftCalls); err != nil {
		s.teardown()
		return nil, err
	}
	return s, nil
}

func (s *inprocState[P]) teardown() {
	if s.d != nil {
		s.d.Close()
		s.d = nil
	}
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}

// passStats is what one pass over the cycles measured.
type passStats struct {
	// Timed batches only: each db.Apply call on the wall clock and on the
	// maintenance thread's CPU clock, and when it started.
	lat, cpuLat latencies
	starts      []time.Time
	tuples      int64 // in timed batches
	// cpu, procCPU and wall are the timed region on the maintenance thread's
	// CPU clock, in CPU time of the whole process, and on the wall clock.
	cpu, procCPU, wall time.Duration
	heapLive           uint64
	cycles             int // timed, the last one included
	attempted          int64
	failed             int64
	notes              []string

	// Deltas over the timed region up to the top of the last cycle.
	rtTuples            int64
	mallocs, allocBytes uint64
	// What the first allocCycles timed cycles allocated, and their batches:
	// later cycles allocate a few percent more per batch than earlier ones,
	// and how many cycles a run does depends on the box's speed.
	headAlloc              uint64
	headBatches            int
	gcCycles               uint32
	gcCPU, totalCPU        float64
	stateBytes, liveTuples int
	viewsMaterialized      int
	maintain               time.Duration
	maintainWall           time.Duration
	fsDelta                fsCounts
}

type cpuClock struct{ gc, total float64 }

func readCPU() cpuClock {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return cpuClock{gc: s[0].Value.Float64(), total: s[1].Value.Float64()}
}

// allocCycles is how many timed cycles alloc_kib_per_op is taken over: as
// many as the slowest run seen on the reference box still does.
const allocCycles = 3

// applyFunc applies one batch as operation op and returns how long the real
// db.Apply call took on the wall clock and on the thread's CPU clock.
type applyFunc func(op uint32, batch []db.Update) (wall, cpu time.Duration, err error)

// drive runs the schedule: one untimed warm-up cycle, then timed full cycles
// until they have taken seconds (none if seconds is 0), then a timed insert
// half-cycle, at the top of which (database full) top runs untimed. An
// in-memory workload then retracts, timed; a durable one stays full, so that
// recovery has something to recover, and ends its timed region with one Sync.
// How many cycles fit depends on the box, whose speed moves by a factor of
// three (README.md, "Sizing"); every cycle does the same work, so what is
// measured per cycle, per batch or per tuple does not depend on it.
func (w *inprocWorkload[P]) drive(s *inprocState[P], seconds float64, apply applyFunc, top func(*passStats) error) (*passStats, error) {
	st := s.st
	ps := &passStats{}
	// Everything timed runs on this goroutine's own thread, so that its CPU
	// clock sees all of it.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var op uint32
	half := func(batches [][]db.Update, timed bool) error {
		segStart, procStart, wallStart := threadCPU(), processCPU(), time.Now()
		for _, b := range batches {
			start := time.Now()
			wall, cpu, err := apply(op, b)
			op++
			if timed {
				ps.attempted++
			}
			if err != nil {
				ps.failed++
				return err
			}
			if timed {
				ps.lat = append(ps.lat, int64(wall))
				ps.cpuLat = append(ps.cpuLat, int64(cpu))
				ps.starts = append(ps.starts, start)
			}
		}
		if timed {
			ps.cpu += threadCPU() - segStart
			ps.procCPU += processCPU() - procStart
			ps.wall += time.Since(wallStart)
			ps.tuples += int64(st.tuples)
		}
		return nil
	}

	if err := half(st.inserts, false); err != nil {
		return ps, err
	}
	if err := half(st.retracts, false); err != nil {
		return ps, err
	}
	logf("%s: warm-up cycle done", w.name)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := readCPU()
	var fs0 fsCounts
	if s.fs != nil {
		fs0 = s.fs.counts()
	}
	maintain0 := s.maintainTotal()
	for ps.wall.Seconds() < seconds {
		if err := half(st.inserts, true); err != nil {
			return ps, err
		}
		if err := half(st.retracts, true); err != nil {
			return ps, err
		}
		ps.cycles++
		if ps.cycles == allocCycles {
			runtime.ReadMemStats(&m1)
			ps.headAlloc, ps.headBatches = m1.TotalAlloc-m0.TotalAlloc, len(ps.lat)
		}
	}
	if err := half(st.inserts, true); err != nil {
		return ps, err
	}
	ps.cycles++
	runtime.ReadMemStats(&m1)
	c1 := readCPU()
	ps.rtTuples = ps.tuples
	ps.mallocs, ps.allocBytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	if ps.headBatches == 0 { // fewer cycles than allocCycles: a traced pass, a smoke test
		ps.headAlloc, ps.headBatches = ps.allocBytes, len(ps.lat)
	}
	ps.gcCycles = m1.NumGC - m0.NumGC
	ps.gcCPU, ps.totalCPU = c1.gc-c0.gc, c1.total-c0.total
	ps.maintain, ps.maintainWall = s.maintainTotal()-maintain0, ps.wall

	// Top of the last cycle: the database holds the whole stream. Two
	// collections, because snapshot storage released through a runtime
	// cleanup is only freed by the collection after the one that ran it.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m1)
	ps.heapLive = m1.HeapAlloc
	ps.stateBytes, ps.liveTuples = s.d.MemoryBytes(), st.tuples
	for _, name := range s.d.Views() {
		ps.viewsMaterialized += s.d.ViewStatsOf(name).ViewCount
	}
	if top != nil {
		if err := top(ps); err != nil {
			return ps, err
		}
	}

	if w.durable {
		start, procStart, wallStart := threadCPU(), processCPU(), time.Now()
		ps.attempted++
		if err := s.d.Sync(); err != nil {
			ps.failed++
			return ps, err
		}
		ps.cpu += threadCPU() - start
		ps.procCPU += processCPU() - procStart
		ps.wall += time.Since(wallStart)
	} else if err := half(st.retracts, true); err != nil {
		return ps, err
	}
	if s.fs != nil {
		ps.fsDelta = s.fs.counts().minus(fs0)
	}
	return ps, nil
}

func (s *inprocState[P]) maintainTotal() time.Duration {
	var total time.Duration
	for _, name := range s.d.Views() {
		total += s.d.ViewStatsOf(name).Maintain
	}
	return total
}

// contents copies a view's published result out of the DB's current epoch.
func contents[P any](d *db.DB, name string) (map[string]P, error) {
	snap := db.SnapshotOf[P](d.Epoch(), name)
	if snap == nil {
		return nil, fmt.Errorf("view %s is not in the current epoch", name)
	}
	return contentsOf(snap.Result()), nil
}

// contentsOf copies a result snapshot into a map under canonical keys.
func contentsOf[P any](res *data.RelationSnapshot[P]) map[string]P {
	out := make(map[string]P, res.Len())
	mut := ring.MutableOf(res.Ring())
	key := canonicalKey(res.Schema())
	res.Iterate(func(t data.Tuple, p P) bool {
		if mut != nil { // payload storage belongs to the snapshot: copy it out
			var c P
			mut.CopyInto(&c, p)
			p = c
		}
		out[key(t)] = p
		return true
	})
	return out
}

// canonicalKey returns a function encoding a tuple over schema with its
// attributes in name order. A view's result schema follows the variable order
// its planner chose, not the GROUP BY list, so two instances of one view (a
// recovered one, a follower's, an oracle's) may order their keys differently.
func canonicalKey(schema data.Schema) func(data.Tuple) string {
	perm := make([]int, len(schema))
	for i := range perm {
		perm[i] = i
	}
	slices.SortFunc(perm, func(a, b int) int { return strings.Compare(schema[a], schema[b]) })
	var buf data.Tuple
	return func(t data.Tuple) string {
		buf = buf[:0]
		for _, i := range perm {
			buf = append(buf, t[i])
		}
		return buf.Key()
	}
}

// sameContents compares two view contents, payloads by eq.
func sameContents[P any](got, want map[string]P, eq func(a, b P) bool) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d keys, want %d", len(got), len(want))
	}
	for k, wv := range want {
		gv, ok := got[k]
		if !ok {
			return fmt.Errorf("key %q missing", k)
		}
		if !eq(gv, wv) {
			return fmt.Errorf("key %q: got %v, want %v", k, gv, wv)
		}
	}
	return nil
}

// checkViews compares every view with its oracle; a mismatch is a failed op.
func (w *inprocWorkload[P]) checkViews(s *inprocState[P], ps *passStats) {
	for _, v := range s.defs {
		ps.attempted++
		got, err := contents[P](s.d, v.name)
		var want map[string]P
		if err == nil {
			want, err = w.oracle(s.d, s.st, v)
		}
		if err == nil {
			err = sameContents(got, want, w.equal)
		}
		if err != nil {
			ps.failed++
			ps.notes = append(ps.notes, fmt.Sprintf("view %s differs from its oracle: %v", v.name, err))
		}
	}
}

// recover closes the database, re-opens it on the same directory and checks
// every recovered view against its contents before the close.
func (w *inprocWorkload[P]) recover(s *inprocState[P], ps *passStats, r *result) error {
	before := map[string]map[string]P{}
	for _, v := range s.defs {
		c, err := contents[P](s.d, v.name)
		if err != nil {
			return err
		}
		before[v.name] = c
	}
	if err := s.d.Close(); err != nil {
		return err
	}
	s.d = nil
	start := time.Now()
	d, err := w.open(s.st, s.dir, s.fs)
	if err != nil {
		return err
	}
	r.set("recovery_s", time.Since(start).Seconds())
	s.d = d
	if rec := d.Recovery(); rec != nil {
		r.set("db.recovery_replayed_batches", float64(rec.ReplayedBatches))
		r.counts["recovery_replayed_batches"] = int64(rec.ReplayedBatches)
	}
	for _, v := range s.defs {
		ps.attempted++
		got, err := contents[P](d, v.name)
		if err == nil {
			err = sameContents(got, before[v.name], w.equal)
		}
		if err != nil {
			ps.failed++
			ps.notes = append(ps.notes, fmt.Sprintf("recovered view %s differs from before the close: %v", v.name, err))
		}
	}
	return nil
}

// run is the whole workload: set-up (several times, for a steady median), the
// untraced pass, and with p.trace the traced pass on the same database.
func (w *inprocWorkload[P]) run(p params) (*result, error) {
	r := newResult()
	var s *inprocState[P]
	// Fifteen set-ups: one takes 50 ms, too little for a median of five to
	// be steady.
	setups := p.setups(15)
	err := medianSetup(r, setups, func() error {
		var err error
		s, err = w.setup(p)
		return err
	}, func() { s.teardown() })
	if err != nil {
		return nil, err
	}
	defer s.teardown()
	r.sha = s.st.sha
	logf("%s: set up %d times, cycles of %d batches", w.name, setups, 2*len(s.st.inserts))

	plain := func(_ uint32, b []db.Update) (time.Duration, time.Duration, error) {
		start, wallStart := threadCPU(), time.Now()
		err := s.d.Apply(b)
		return time.Since(wallStart), threadCPU() - start, err
	}
	liftCalls0 := s.liftCalls
	ps, err := w.drive(s, p.seconds, plain, func(ps *passStats) error {
		logf("%s: top of the last cycle, checking views", w.name)
		w.checkViews(s, ps)
		logf("%s: views checked", w.name)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("untraced pass: %w", err)
	}
	logf("%s: untraced pass done, %d cycles in %.2f s timed", w.name, ps.cycles, ps.wall.Seconds())
	w.report(r, s, ps)
	r.set("ring.lift_calls_per_tuple", float64(s.liftCalls-liftCalls0)/float64(ps.tuples+int64(s.st.tuples)*2))
	r.counts["lift_calls"] = s.liftCalls - liftCalls0

	if w.durable {
		if err := w.recover(s, ps, r); err != nil {
			return nil, fmt.Errorf("recovery: %w", err)
		}
		logf("%s: recovered", w.name)
	}
	if p.trace {
		// On the recovered database, when there was a recovery.
		if err := w.traced(p, s, r, ps); err != nil {
			return nil, fmt.Errorf("traced pass: %w", err)
		}
	}
	r.attempted, r.failed, r.notes = ps.attempted, ps.failed, append(r.notes, ps.notes...)
	return r, nil
}

// report turns the untraced pass into metrics.
func (w *inprocWorkload[P]) report(r *result, s *inprocState[P], ps *passStats) {
	tuples := float64(ps.tuples)
	r.set("runtime.work_cpu_s", ps.procCPU.Seconds())
	r.set("ingest_tuples_per_s", tuples/ps.wall.Seconds())
	r.setPct("batch_p50_ms", ps.lat, 0.50, 1e6)
	r.setPct("batch_p99_ms", ps.lat, 0.99, 1e6)
	r.set("ingest_cpu_tuples_per_s", tuples/ps.cpu.Seconds())
	r.setPct("batch_cpu_p50_ms", ps.cpuLat, 0.50, 1e6)
	r.setPct("batch_cpu_p99_ms", ps.cpuLat, 0.99, 1e6)
	r.set("heap_live_mb", float64(ps.heapLive)/(1<<20))
	r.counts["tuples"] = ps.tuples
	r.counts["batches"] = int64(len(ps.lat))
	r.counts["cycles"] = int64(ps.cycles)
	// What repeats from run to run whatever the box's speed.
	r.counts["tuples_per_cycle"] = 2 * int64(s.st.tuples)
	r.counts["batches_per_cycle"] = 2 * int64(len(s.st.inserts))
	r.timedSeconds = ps.wall.Seconds()

	rt := float64(ps.rtTuples)
	r.set("alloc_kib_per_op", float64(ps.headAlloc)/1024/float64(ps.headBatches))
	r.set("runtime.allocs_per_tuple", float64(ps.mallocs)/rt)
	r.set("runtime.alloc_bytes_per_tuple", float64(ps.allocBytes)/rt)
	r.set("runtime.gc_cycles", float64(ps.gcCycles))
	if ps.totalCPU > 0 {
		r.set("runtime.gc_cpu_share", ps.gcCPU/ps.totalCPU)
	}
	r.set("data.batch_distinct_ratio", s.st.distinctRatio)
	r.set("ivm.views_materialized", float64(ps.viewsMaterialized))
	r.set("ivm.state_bytes_per_tuple", float64(ps.stateBytes)/float64(ps.liveTuples))
	r.set("db.view_maintain_share", ps.maintain.Seconds()/ps.maintainWall.Seconds())
	r.set("plan.create_view_ms", median(s.createMs))

	if s.fs != nil {
		fd := ps.fsDelta
		r.set("wal_bytes_per_tuple", float64(fd.bytes)/tuples)
		r.counts["wal_bytes"] = fd.bytes
		r.set("wal.writes_per_batch", float64(fd.writes)/float64(len(ps.lat)))
		r.set("wal.write_ms_total", float64(fd.writeNs)/1e6)
		r.set("wal.syncs", float64(fd.syncs))
		r.set("wal.sync_ms_total", float64(fd.syncNs)/1e6)
		r.set("wal.segments", float64(fd.segments))
		r.counts["wal_segments"] = int64(fd.segments)
		reportCheckpoints(r, s.fs.checkpointsSince(ps.starts[0]), ps)
	}
}

// reportCheckpoints reports the checkpoints taken inside the timed region and
// the batches they stalled: those slower than five times the median whose
// call overlaps a checkpoint being written.
func reportCheckpoints(r *result, cks []checkpointEvent, ps *passStats) {
	if len(cks) == 0 {
		return
	}
	var ms, bytes float64
	for _, ck := range cks {
		ms += float64(ck.end.Sub(ck.start)) / 1e6
		bytes += float64(ck.bytes)
	}
	r.set("db.checkpoint_ms", ms/float64(len(cks)))
	r.set("db.checkpoint_bytes", bytes/float64(len(cks)))
	r.counts["checkpoints"] = int64(len(cks))
	limit := int64(5 * ps.lat.pct(0.5))
	stalled := 0
	for i, l := range ps.lat {
		if l <= limit {
			continue
		}
		end := ps.starts[i].Add(time.Duration(l))
		for _, ck := range cks {
			if ps.starts[i].Before(ck.end) && end.After(ck.start) {
				stalled++
				break
			}
		}
	}
	r.set("db.checkpoint_stall_batches", float64(stalled))
}

// --- traced pass --------------------------------------------------------------

// shadows are the smaller parts of the stack the traced pass replays every
// batch through: the engines alone (with and without snapshot publication), a
// log alone, and whole databases without a WAL or without statistics.
type shadows[P any] struct {
	ring      ring.Ring[P]
	cat       db.Catalog
	scratch   map[string]*data.Relation[P]
	deltas    []ivm.NamedDelta[P]
	noSnap    []*ivm.Engine[P]
	snap      []*ivm.Engine[P]
	rels      []map[string]bool // per view: the relations its query reads
	perView   []ivm.NamedDelta[P]
	log       *wal.Log
	logDir    string
	applied   uint64
	base      []data.BaseUpdate
	memDB     *db.DB // durable workloads only: the same views, no WAL
	noStatsDB *db.DB
}

// newShadows builds the shadows of a database with the given views, all
// empty. withWAL adds the log and the WAL-less database, which an in-memory
// workload has no use for.
func newShadows[P any](rg ring.Ring[P], cat db.Catalog, defs []viewDef[P], withWAL bool, outDir string) (sh *shadows[P], err error) {
	sh = &shadows[P]{ring: rg, cat: cat, scratch: map[string]*data.Relation[P]{}}
	defer func() {
		if err != nil {
			sh.close()
		}
	}()
	for _, v := range defs {
		rels := map[string]bool{}
		for _, rn := range v.q.RelNames() {
			rels[rn] = true
		}
		sh.rels = append(sh.rels, rels)
		for _, publish := range []bool{false, true} {
			var o *vorder.Order
			if v.order != nil {
				o = v.order()
			}
			// The options db.CreateView gives its engines.
			e, err := ivm.New[P](v.q, o, rg, v.lift, ivm.Options[P]{
				ComposeChains: v.compose, Stats: data.NewStats(), NoLiveStats: true})
			if err != nil {
				return nil, err
			}
			if err := e.Init(); err != nil {
				return nil, err
			}
			if publish {
				e.Snapshot()
				sh.snap = append(sh.snap, e)
			} else {
				sh.noSnap = append(sh.noSnap, e)
			}
		}
	}
	openMem := func(disableStats bool) (*db.DB, error) {
		d, err := db.Open(cat, db.Options{DisableStats: disableStats})
		if err == nil {
			_, err = createViews(d, rg, defs, nil)
		}
		return d, err
	}
	if withWAL {
		if sh.logDir, err = os.MkdirTemp(outDir, "shadow-wal-*"); err != nil {
			return nil, err
		}
		if sh.log, _, err = wal.Open(wal.Options{Dir: sh.logDir, Fsync: wal.FsyncNever}); err != nil {
			return nil, err
		}
		if sh.memDB, err = openMem(false); err != nil {
			return nil, err
		}
	}
	if sh.noStatsDB, err = openMem(true); err != nil {
		return nil, err
	}
	return sh, nil
}

func (sh *shadows[P]) close() {
	if sh.log != nil {
		sh.log.Close()
	}
	if sh.logDir != "" {
		os.RemoveAll(sh.logDir)
	}
	if sh.memDB != nil {
		sh.memDB.Close()
	}
	if sh.noStatsDB != nil {
		sh.noStatsDB.Close()
	}
}

// buildDeltas lifts a batch into the ring as db.Apply does for its views:
// one delta relation per base relation, reused across batches.
func (sh *shadows[P]) buildDeltas(batch []db.Update) {
	sh.deltas = sh.deltas[:0]
	one := sh.ring.One()
	negOne := sh.ring.Neg(one)
	for _, u := range batch {
		rel := sh.scratch[u.Rel]
		if rel == nil {
			rel = data.NewRelation[P](sh.ring, sh.cat[u.Rel])
			rel.RecycleCleared()
			sh.scratch[u.Rel] = rel
		}
		fresh := true
		for _, nd := range sh.deltas {
			fresh = fresh && nd.Rel != u.Rel
		}
		if fresh {
			rel.Clear()
			rel.Reserve(len(u.Tuples))
			sh.deltas = append(sh.deltas, ivm.NamedDelta[P]{Rel: u.Rel, Delta: rel})
		}
		p := one
		if u.Mult < 0 {
			p = negOne
		}
		for _, t := range u.Tuples {
			rel.Merge(t, p)
		}
	}
}

func (sh *shadows[P]) applyEngines(engines []*ivm.Engine[P]) error {
	for i, e := range engines {
		sh.perView = sh.perView[:0]
		for _, nd := range sh.deltas {
			if sh.rels[i][nd.Rel] {
				sh.perView = append(sh.perView, nd)
			}
		}
		if len(sh.perView) == 0 {
			continue
		}
		if err := e.ApplyDeltas(sh.perView); err != nil {
			return err
		}
	}
	return nil
}

// replay pushes one batch through every shadow, one span each.
func (sh *shadows[P]) replay(tr *tracer, op uint32, batch []db.Update) error {
	var err error
	keep := func(e error) {
		if err == nil {
			err = e
		}
	}
	tr.record(op, spDeltaBuild, func() { sh.buildDeltas(batch) })
	tr.record(op, spIVMApplyNoSnap, func() { keep(sh.applyEngines(sh.noSnap)) })
	tr.record(op, spIVMApply, func() { keep(sh.applyEngines(sh.snap)) })
	if sh.log != nil {
		sh.base = sh.base[:0]
		for _, u := range batch {
			sh.base = append(sh.base, data.BaseUpdate{Rel: u.Rel, Tuples: u.Tuples, Mult: u.Mult})
		}
		sh.applied++
		tr.record(op, spWALAppend, func() { keep(sh.log.AppendBatch(sh.applied, sh.base)) })
	}
	tr.record(op, spDBApplyNoStats, func() { keep(sh.noStatsDB.Apply(batch)) })
	if sh.memDB != nil {
		tr.record(op, spDBApplyMem, func() { keep(sh.memDB.Apply(batch)) })
	}
	return err
}

func (w *inprocWorkload[P]) traced(p params, s *inprocState[P], r *result, untraced *passStats) error {
	sh, err := newShadows(w.ring, s.st.cat, s.defs, w.durable, p.outDir)
	if err != nil {
		return err
	}
	defer sh.close()
	// One cycle after the warm-up: every replay multiplies the pass's cost.
	// Spans are on the thread's CPU clock. The warm-up cycle, which the fresh
	// shadows need as much as the database did, is replayed too, into a
	// tracer that is thrown away.
	tr := newTracer(threadCPU, 8*2*len(s.st.inserts))
	warmTr := newTracer(threadCPU, 8*2*len(s.st.inserts))
	warm := uint32(2 * len(s.st.inserts))
	var shadowTime time.Duration
	var dirty, dirtySamples int
	prev := make([]*data.RelationSnapshot[P], len(s.defs))
	traced := func(op uint32, b []db.Update) (time.Duration, time.Duration, error) {
		t := tr
		if op < warm {
			t = warmTr
		}
		start := threadCPU()
		if err := sh.replay(t, op, b); err != nil {
			return 0, 0, err
		}
		var err error
		wallStart := time.Now()
		dt := t.record(op, spDBApply, func() { err = s.d.Apply(b) })
		wall := time.Since(wallStart)
		// Result keys this batch changed, on every dirtyEvery-th batch.
		for i, v := range s.defs {
			cur := db.SnapshotOf[P](s.d.Epoch(), v.name).Result()
			if op >= warm && op%dirtyEvery == 0 && prev[i] != nil {
				dirty += dirtyKeys(prev[i], cur, w.equal)
				dirtySamples++
			}
			prev[i] = cur
		}
		if op >= warm {
			shadowTime += threadCPU() - start - dt
		}
		return wall, dt, err
	}
	if w.durable {
		// The untraced pass left the database full; empty it first.
		for _, b := range s.st.retracts {
			if err := s.d.Apply(b); err != nil {
				return err
			}
		}
	}
	var kernelAdd, kernelMul float64
	ps, err := w.drive(s, 0, traced, func(ps *passStats) error {
		// The shadows saw the same batches: their results must match too.
		for i, v := range s.defs {
			ps.attempted++
			got, err := contents[P](s.d, v.name)
			if err != nil {
				return err
			}
			if err := sameContents(got, contentsOf(sh.snap[i].Snapshot().Result()), w.equal); err != nil {
				ps.failed++
				ps.notes = append(ps.notes, fmt.Sprintf("shadow engine of %s differs from the view: %v", v.name, err))
			}
			if i == 0 {
				kernelAdd, kernelMul = timeKernels(w.ring, got)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	untraced.attempted += ps.attempted
	untraced.failed += ps.failed
	untraced.notes = append(untraced.notes, ps.notes...)

	l := buildLedger(tr)
	tuples := float64(ps.tuples)
	reportWritePath(r, l, tuples, float64(len(ps.lat)), w.durable)
	// dirty sums over the views; a sample is one view on one batch.
	r.set("data.snapshot_dirty_keys_per_batch", float64(dirty)*float64(len(s.defs))/float64(max(dirtySamples, 1)))
	r.set("ring.cofactor_add_ns", kernelAdd)
	r.set("ring.cofactor_mul_ns", kernelMul)

	// Overhead of tracing: the traced pass's own rate, replays excluded,
	// against the untraced pass's, both on the thread's CPU clock.
	tracedRate := tuples / (ps.cpu - shadowTime).Seconds()
	r.set("trace_overhead", tracedRate/r.metrics["ingest_cpu_tuples_per_s"])
	path, err := writeTrace(p.outDir, w.name, tr)
	if err != nil {
		return err
	}
	r.notes = append(r.notes, "trace written to "+path)
	return nil
}

// dirtyEvery is how many batches go by between two whose effect on the result
// snapshots the traced pass counts.
const dirtyEvery = 8

// dirtyKeys counts the keys whose payload differs between two snapshots of a
// result, present in only one of them included.
func dirtyKeys[P any](prev, cur *data.RelationSnapshot[P], equal func(a, b P) bool) int {
	changed, kept := 0, 0
	cur.Iterate(func(t data.Tuple, p P) bool {
		if old, ok := prev.Get(t); ok {
			kept++
			if !equal(old, p) {
				changed++
			}
		} else {
			changed++
		}
		return true
	})
	return changed + prev.Len() - kept
}

// timeKernels times the ring's addition and multiplication on a payload of
// the workload's own final view (the widest one, at the root).
func timeKernels[P any](r ring.Ring[P], view map[string]P) (addNs, mulNs float64) {
	var a P
	found := false
	for _, v := range view {
		a, found = v, true
		break
	}
	if !found {
		return 0, 0
	}
	const n = 2000
	start := time.Now()
	if mut := ring.MutableOf(r); mut != nil {
		var dst P
		mut.CopyInto(&dst, a)
		for i := 0; i < n; i++ {
			mut.AddInto(&dst, a)
		}
	} else {
		acc := a
		for i := 0; i < n; i++ {
			acc = r.Add(acc, a)
		}
		kernelSink = acc
	}
	addNs = float64(time.Since(start)) / n
	start = time.Now()
	var prod P
	for i := 0; i < n; i++ {
		prod = r.Mul(a, a)
	}
	kernelSink = prod
	mulNs = float64(time.Since(start)) / n
	return addNs, mulNs
}

var kernelSink any
