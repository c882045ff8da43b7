package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fivm/internal/data"
	"fivm/internal/datasets"
	"fivm/internal/db"
	"fivm/internal/netserve"
	"fivm/internal/replica"
	"fivm/internal/ring"
	"fivm/internal/serve"
	"fivm/internal/wal"
)

// The two serve workloads share one topology: a durable primary behind
// netserve on loopback TCP, writes through a db.ApplyQueue, a replica.Primary
// shipping the WAL to one in-memory follower with its own read-only netserve.
// One generator goroutine writes to the primary, one reads from the follower,
// each over one keep-alive connection. They differ in which generator runs
// closed loop (as fast as the replies come) and which runs open loop (on a
// schedule, latency counted from the time each request was due).

type serveWorkload struct {
	name        string
	retailer    datasets.RetailerConfig
	writeTuples int
	scanShare   float64
	// One generator is closed loop: it warms up for a tenth of -seconds and
	// is then timed for -seconds, doing as many requests as the replies
	// allow. The other is open loop at openRate requests a second and runs
	// for as long as the closed-loop one does. The box's speed moves by a
	// factor of three from one quarter of an hour to the next (README.md,
	// "Clocks"), so only a generator that runs for a time, not for a count,
	// has a timed region of a known length.
	writerClosed bool
	openRate     float64
	// closedReady is how many requests a second of -seconds set-up has ready
	// for the closed-loop generator: above the fastest rate seen on the
	// reference box for writes, which cannot be sent twice; a read sequence
	// repeats when it runs out.
	closedReady float64
}

var serveRetailer = datasets.RetailerConfig{Locations: 20, Dates: 60, Items: 100, ItemsPerLocDate: 25}

var (
	serveReadHeavy = &serveWorkload{
		name: "serve-read-heavy", retailer: serveRetailer,
		writeTuples: 100, scanShare: 0.1,
		openRate: 50, closedReady: 30000,
	}
	serveWriteHeavy = &serveWorkload{
		name: "serve-write-heavy", retailer: serveRetailer,
		writeTuples:  200,
		writerClosed: true, openRate: 200, closedReady: 1200,
	}
)

// warmShare is the part of -seconds the closed-loop generator warms up for
// before its timed region opens.
const warmShare = 0.1

// counts returns how many write and read requests set-up builds. An
// open-loop writer gets its schedule's worth for the whole pass and half as
// many again; an open-loop reader's sequence repeats.
func (w *serveWorkload) counts(p params) (nWrites, nReads int) {
	closed := max(20, int(math.Round(p.seconds*w.closedReady)))
	open := max(20, int(math.Round(p.seconds*w.openRate)))
	if w.writerClosed {
		return closed, open
	}
	return int(1.5 * (1 + warmShare) * float64(open)), closed
}

// serveState is the running topology.
type serveState struct {
	in      *serveInputs
	defs    []viewDef[float64]
	dir     string
	fs      *countingFS
	primary *db.DB
	queue   *db.ApplyQueue
	srv     *netserve.Server
	srvAddr string
	prim    *replica.Primary
	fol     *replica.Follower
	folStop context.CancelFunc
	folSrv  *netserve.Server
	folAddr string
	wg      sync.WaitGroup // srv.Serve, prim.Serve, fol.Run, folSrv.Serve

	shipped  atomic.Int64 // bytes the follower read from the primary
	dials    atomic.Int64
	createMs []float64
	targets  []readTarget
	readSeq  []uint32
}

func (w *serveWorkload) setup(p params) (s *serveState, err error) {
	cfg := scaleDates(w.retailer, p.scale)
	cfg.Seed = p.seed
	nWrites, nReads := w.counts(p)
	s = &serveState{defs: dashboardViews(lookupView, ksnView)}
	defer func() {
		if err != nil {
			s.teardown()
		}
	}()
	s.in = genServeInputs(cfg, nWrites, w.writeTuples, nReads, w.scanShare)
	if s.dir, err = os.MkdirTemp(p.outDir, w.name+"-wal-*"); err != nil {
		return s, err
	}
	s.fs = newCountingFS(wal.OSFS{})
	if s.primary, err = openDurable(s.in.cat, s.dir, s.fs); err != nil {
		return s, err
	}
	if s.createMs, err = createViews(s.primary, ring.Float{}, s.defs, nil); err != nil {
		return s, err
	}
	for _, b := range s.in.preload {
		if err = s.primary.Apply(b); err != nil {
			return s, err
		}
	}
	// A checkpoint, so that the follower bootstraps from it as a new replica
	// of a long-running primary would, not by replaying the preload.
	if err = s.primary.Checkpoint(); err != nil {
		return s, err
	}

	s.queue = db.NewApplyQueue(s.primary, 256)
	if s.srv, err = netserve.New(netserve.Config{DB: func() *db.DB { return s.primary }, Queue: s.queue}); err != nil {
		return s, err
	}
	if s.srvAddr, err = s.serveOn(s.srv.Serve); err != nil {
		return s, err
	}
	rl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return s, err
	}
	if s.prim, err = replica.NewPrimary(s.primary, rl); err != nil {
		rl.Close()
		return s, err
	}
	s.wg.Add(1)
	go func() { defer s.wg.Done(); s.prim.Serve() }()

	var dialer net.Dialer
	s.fol, err = replica.NewFollower(replica.FollowerConfig{
		Primary: rl.Addr().String(), Catalog: s.in.cat,
		Dial: func(ctx context.Context, addr string) (net.Conn, error) {
			s.dials.Add(1)
			c, err := dialer.DialContext(ctx, "tcp", addr)
			if err != nil {
				return nil, err
			}
			return countingConn{Conn: c, read: &s.shipped}, nil
		},
	})
	if err != nil {
		return s, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.folStop = cancel
	s.wg.Add(1)
	go func() { defer s.wg.Done(); s.fol.Run(ctx) }()
	if s.folSrv, err = netserve.New(netserve.Config{DB: s.fol.DB}); err != nil {
		return s, err
	}
	if s.folAddr, err = s.serveOn(s.folSrv.Serve); err != nil {
		return s, err
	}
	if err = s.awaitFollower(10 * time.Second); err != nil {
		return s, err
	}
	snap := db.SnapshotOf[float64](s.fol.DB().Epoch(), lookupView)
	if snap == nil {
		return s, fmt.Errorf("follower does not serve %s", lookupView)
	}
	s.targets, s.readSeq = s.in.readTargets(snap.Result().Schema())
	return s, nil
}

func openDurable(cat db.Catalog, dir string, fs wal.VFS) (*db.DB, error) {
	return db.Open(cat, db.Options{Durability: &db.DurabilityOptions{Dir: dir, FS: fs, Fsync: wal.FsyncNever}})
}

// serveOn starts an HTTP server on a fresh loopback port.
func (s *serveState) serveOn(serve func(net.Listener) error) (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	s.wg.Add(1)
	go func() { defer s.wg.Done(); serve(l) }()
	return l.Addr().String(), nil
}

// awaitFollower waits until the follower has applied what the primary has.
// It polls, outside any timed region: nothing measured depends on when a poll
// lands.
func (s *serveState) awaitFollower(timeout time.Duration) error {
	want := s.primary.Epoch().Applied
	deadline := time.Now().Add(timeout)
	for s.fol.DB().Epoch().Applied < want {
		if time.Now().After(deadline) {
			return fmt.Errorf("follower at batch %d, primary at %d", s.fol.DB().Epoch().Applied, want)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// viewStats sums the primary's views' maintenance time and materialised-view
// counts, on the maintenance goroutine.
func (s *serveState) viewStats() (maintain time.Duration, views int, err error) {
	err = s.queue.Do(func(d *db.DB) error {
		for _, name := range d.Views() {
			st := d.ViewStatsOf(name)
			views += st.ViewCount
			maintain += st.Maintain
		}
		return nil
	})
	return maintain, views, err
}

// teardown stops every server and goroutine set-up started, waits for them,
// and removes the WAL directory.
func (s *serveState) teardown() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if s.folSrv != nil {
		s.folSrv.Shutdown(ctx)
	}
	if s.folStop != nil {
		s.folStop()
	}
	if s.fol != nil {
		s.fol.Close()
	}
	if s.prim != nil {
		s.prim.Close()
	}
	if s.srv != nil {
		s.srv.Shutdown(ctx)
	}
	s.wg.Wait()
	if s.queue != nil {
		s.queue.Close()
	}
	if s.primary != nil {
		s.primary.Close()
	}
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}

// --- one pass of the two generators -------------------------------------------

// servePass is what one pass of the generators measured. The timed region
// starts when the closed-loop generator has done the first tenth of its
// requests and ends with its last one; the open-loop generator runs from
// before it to its end, and only what it sent inside it is timed.
type servePass struct {
	writeLat, lookupLat, scanLat latencies
	readLat                      latencies // lookups and scans, in request order
	writeLate, readLate          latencies // open loop: how late the generator sent
	stale                        latencies // per follower read
	lagBatches                   latencies
	timed, total                 time.Duration // the timed region; the whole pass
	tuples                       int64         // in timed writes
	allTuples, allWrites         int64
	allReads                     int64
	tailReads, tailAlloc         int64 // a closed-loop reader's reads after the writer stopped, and what they allocated
	bodyBytes                    int64
	lookupBytes                  int64 // response bytes of timed lookups
	opCounts
}

// opCounts are the counters both generators keep; the reader keeps its own
// and the pass adds them up at the end.
type opCounts struct {
	attempted, failed               int64
	status429, status412, status5xx int64
	notes                           []string
}

func (c *opCounts) add(o opCounts) {
	c.attempted += o.attempted
	c.failed += o.failed
	c.status429 += o.status429
	c.status412 += o.status412
	c.status5xx += o.status5xx
	c.notes = append(c.notes, o.notes...)
}

// ackTable joins follower reads to write acknowledgements by batch number:
// the writer stamps the time each batch was acknowledged, a read that answers
// "applied = a" looks up when batch a+1 was.
type ackTable struct {
	base  uint64
	at    []atomic.Int64 // ns since origin, 0 = not yet acknowledged
	acked atomic.Uint64  // newest acknowledged batch
}

// staleness of a read that completed at t (ns since origin) and reflected
// batch applied: how long batch applied+1 had been acknowledged by then.
func (a *ackTable) staleness(applied uint64, t int64) int64 {
	if applied < a.base {
		return 0
	}
	i := applied + 1 - a.base
	if i >= uint64(len(a.at)) {
		return 0 // the last batch: nothing newer to be behind
	}
	if ack := a.at[i].Load(); ack != 0 && ack < t {
		return t - ack
	}
	return 0
}

// generator is the part of the pass's state one generator goroutine steers
// by: a closed-loop one sends as fast as the replies come, opens the timed
// region once it has warmed up and closes it, and with it the pass, when the
// region has lasted its time; an open-loop one sends on its schedule until
// then.
type generator struct {
	closed      bool
	rate        float64       // open loop: requests a second
	warm, timed time.Duration // closed loop: warm-up, then the timed region
	count       int           // requests it has ready
	cycle       bool          // start over when they run out

	origin     time.Time
	timedStart *atomic.Int64 // ns since origin; 0 until the timed region opens
	done       chan struct{} // closed when the timed region ends
	finished   bool
}

// next waits until request i is due. It returns the time it was due, whether
// the request falls into the timed region, and false when the generator is
// to stop: the timed region is over, or it is out of requests.
func (g *generator) next(start time.Time, i int) (due time.Time, timed, ok bool) {
	if i >= g.count && !g.cycle {
		return due, false, false
	}
	if g.closed {
		due = time.Now()
		ts := g.timedStart.Load()
		switch {
		case ts == 0 && due.Sub(start) >= g.warm:
			ts = int64(due.Sub(g.origin))
			g.timedStart.Store(ts)
		case ts != 0 && due.Sub(g.origin)-time.Duration(ts) >= g.timed:
			return due, false, false
		}
		return due, ts != 0, true
	}
	due = start.Add(time.Duration(float64(i) / g.rate * float64(time.Second)))
	select {
	case <-g.done:
		return due, false, false
	case <-time.After(time.Until(due)):
	}
	ts := g.timedStart.Load()
	return due, ts != 0 && int64(due.Sub(g.origin)) >= ts, true
}

// finish ends a generator's part of the pass: a closed-loop one's ends the
// timed region. Calling it again does nothing.
func (g *generator) finish() {
	if g.closed && !g.finished {
		g.finished = true
		close(g.done)
	}
}

// tailReads is how many reads a closed-loop reader with a sequence of n makes
// after the timed region to measure what a read allocates: 20 000 at full
// size, 94 MiB of allocation, against which the follower applying the
// writer's last batch does not show.
func tailReads(n int) int { return max(20, n/15) }

// serveHooks lets the traced pass record spans around the real requests and
// run its replays after them.
type serveHooks struct {
	write func(i int, send func() error) error
	read  func(i int, t *readTarget, send func() error) error
}

// pass runs the two generators: the closed-loop one for a tenth of seconds
// untimed and then seconds timed, the open-loop one for as long as that
// takes.
func (w *serveWorkload) pass(s *serveState, writes []writeReq, reads []uint32, seconds float64, hooks *serveHooks) (*servePass, error) {
	ps := &servePass{}
	origin := time.Now()
	// at[i] is batch base+i; the first write becomes batch base+1.
	acks := &ackTable{base: s.primary.Epoch().Applied, at: make([]atomic.Int64, len(writes)+1)}
	var timedStart atomic.Int64
	done := make(chan struct{})
	warm := time.Duration(warmShare * seconds * float64(time.Second))
	timed := time.Duration(seconds * float64(time.Second))
	wgen := &generator{closed: w.writerClosed, rate: w.openRate, warm: warm, timed: timed, count: len(writes),
		origin: origin, timedStart: &timedStart, done: done}
	rgen := &generator{closed: !w.writerClosed, rate: w.openRate, warm: warm, timed: timed, count: len(reads), cycle: true,
		origin: origin, timedStart: &timedStart, done: done}
	var wg sync.WaitGroup
	var writeErr, readErr error
	var readCounts opCounts // the reader's; its timings go to fields of ps the writer leaves alone
	var end time.Time       // of the timed region; written by the closed-loop generator
	writerDone := make(chan struct{})

	wg.Add(2)
	go func() { // writer → primary
		defer wg.Done()
		defer close(writerDone)
		defer wgen.finish()
		conn, err := dialHTTP(s.srvAddr)
		if err != nil {
			writeErr = err
			return
		}
		defer conn.close()
		start := time.Now()
		for i := 0; ; i++ {
			due, timed, ok := wgen.next(start, i)
			if !ok {
				if i == len(writes) {
					select {
					case <-done:
					default:
						ps.notes = append(ps.notes, fmt.Sprintf(
							"the writer ran out of its %d requests %.2f s into the pass", len(writes), time.Since(start).Seconds()))
					}
				}
				break
			}
			wr := &writes[i]
			sent := time.Now()
			var resp response
			var replied time.Time // when the reply arrived; a hook's replays come after
			send := func() (err error) { resp, err = conn.do(wr.body); replied = time.Now(); return err }
			if hooks != nil {
				err = hooks.write(i, send)
			} else {
				err = send()
			}
			ps.attempted++
			ps.allWrites++
			ps.allTuples += int64(wr.tuples)
			if wgen.closed {
				end = replied
			}
			switch {
			case err != nil:
				writeErr = err
				return
			case resp.status != http.StatusOK:
				ps.failed++
				ps.countStatus(resp.status)
				continue
			}
			if i := resp.applied - acks.base; i < uint64(len(acks.at)) {
				acks.at[i].Store(int64(replied.Sub(origin)))
			}
			acks.acked.Store(resp.applied)
			if timed {
				ps.writeLat = append(ps.writeLat, int64(replied.Sub(due)))
				ps.writeLate = append(ps.writeLate, int64(sent.Sub(due)))
				ps.tuples += int64(wr.tuples)
			}
		}
		ps.bodyBytes = conn.sent
	}()
	go func() { // reader → follower
		defer wg.Done()
		defer rgen.finish()
		rp, rc := ps, &readCounts
		conn, err := dialHTTP(s.folAddr)
		if err != nil {
			readErr = err
			return
		}
		defer conn.close()
		start := time.Now()
		for i := 0; ; i++ {
			due, timed, ok := rgen.next(start, i)
			if !ok {
				break
			}
			t := &s.targets[reads[i%len(reads)]]
			sent := time.Now()
			before := conn.received
			var resp response
			var replied time.Time
			send := func() (err error) { resp, err = conn.do(t.req); replied = time.Now(); return err }
			if hooks != nil {
				err = hooks.read(i, t, send)
			} else {
				err = send()
			}
			rc.attempted++
			if rgen.closed {
				end = replied
			}
			switch {
			case err != nil:
				readErr = err
				return
			case resp.status != http.StatusOK:
				rc.failed++
				rc.countStatus(resp.status)
				continue
			case !t.answers(resp.body):
				rc.failed++
				if len(rc.notes) < 3 {
					rc.notes = append(rc.notes, fmt.Sprintf("wrong answer to %s: %s", t.url, resp.body))
				}
				continue
			}
			if !timed {
				continue
			}
			rp.readLat = append(rp.readLat, int64(replied.Sub(due)))
			if t.scan {
				rp.scanLat = append(rp.scanLat, int64(replied.Sub(due)))
			} else {
				rp.lookupLat = append(rp.lookupLat, int64(replied.Sub(due)))
				rp.lookupBytes += conn.received - before
			}
			rp.readLate = append(rp.readLate, int64(sent.Sub(due)))
			rp.stale = append(rp.stale, acks.staleness(resp.applied, int64(replied.Sub(origin))))
			rp.lagBatches = append(rp.lagBatches, int64(max(acks.acked.Load(), resp.applied)-resp.applied))
		}
		if !rgen.closed {
			return
		}
		// What a read allocates cannot be told from what the writer's
		// requests do while both run, and how many reads share the writer's
		// part depends on the box's speed. So the reader goes on, untimed,
		// for a fixed number of reads after the writer has stopped.
		rgen.finish()
		<-writerDone
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < tailReads(len(reads)); i++ {
			t := &s.targets[reads[i%len(reads)]]
			resp, err := conn.do(t.req)
			rc.attempted++
			switch {
			case err != nil:
				readErr = err
				return
			case resp.status != http.StatusOK || !t.answers(resp.body):
				rc.failed++
			}
			rp.tailReads++
		}
		runtime.ReadMemStats(&m1)
		rp.tailAlloc = int64(m1.TotalAlloc - m0.TotalAlloc)
	}()
	wg.Wait()
	if writeErr != nil {
		return nil, fmt.Errorf("writer: %w", writeErr)
	}
	if readErr != nil {
		return nil, fmt.Errorf("reader: %w", readErr)
	}
	ps.allReads = readCounts.attempted
	ps.add(readCounts)
	ps.total = time.Since(origin)
	if ts := timedStart.Load(); ts != 0 {
		ps.timed = end.Sub(origin) - time.Duration(ts)
	}
	return ps, nil
}

func (c *opCounts) countStatus(status int) {
	switch {
	case status == http.StatusTooManyRequests:
		c.status429++
	case status == http.StatusPreconditionFailed:
		c.status412++
	case status >= 500:
		c.status5xx++
	}
}

var (
	foundTrue      = []byte(`"found":true`)
	truncatedFalse = []byte(`"truncated":false`)
)

// answers checks a 200 reply as far as it can be without knowing the epoch's
// contents: the sliding window never empties a group, so a lookup must find
// its key and a scan must return every group under its prefix. The contents
// are checked against the primary and an oracle after the pass.
func (t *readTarget) answers(body []byte) bool {
	if !t.scan {
		return bytes.Contains(body, foundTrue)
	}
	return bytes.Contains(body, truncatedFalse) &&
		bytes.Contains(body, []byte(`"count":`+strconv.Itoa(t.rows)+`,`))
}

// --- the run -----------------------------------------------------------------

func runServe(w *serveWorkload, p params) (*result, error) {
	r := newResult()
	var s *serveState
	setups := p.setups(5)
	err := medianSetup(r, setups, func() error {
		var err error
		s, err = w.setup(p)
		return err
	}, func() { s.teardown() })
	if err != nil {
		return nil, err
	}
	defer func() { s.teardown() }()
	r.sha = s.in.sha
	logf("%s: set up %d times; %d writes, %d reads ready", w.name, setups, len(s.in.writes), len(s.readSeq))

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	c0, fs0, lsn0, shipped0 := readCPU(), s.fs.counts(), s.fol.DB().ReplLSN(), s.shipped.Load()
	maintain0, _, err := s.viewStats()
	if err != nil {
		return nil, err
	}
	cpu0 := processCPU()
	ps, err := w.pass(s, s.in.writes, s.readSeq, p.seconds, nil)
	if err != nil {
		return nil, fmt.Errorf("untraced pass: %w", err)
	}
	r.set("runtime.work_cpu_s", (processCPU() - cpu0).Seconds())
	runtime.ReadMemStats(&m1)
	c1 := readCPU()
	if err := s.awaitFollower(10 * time.Second); err != nil {
		ps.failed++
		ps.notes = append(ps.notes, err.Error())
	}
	ps.attempted++
	fsd := s.fs.counts().minus(fs0)
	frames := s.fol.DB().ReplLSN() - lsn0
	shipped := s.shipped.Load() - shipped0
	logf("%s: untraced pass done: %.2f s, %.2f s of it timed; %d writes, %d reads timed",
		w.name, ps.total.Seconds(), ps.timed.Seconds(), len(ps.writeLat), len(ps.readLat))

	runtime.GC()
	runtime.GC()
	var m2 runtime.MemStats
	runtime.ReadMemStats(&m2)
	w.checkFinal(s, ps)
	logf("%s: final epoch checked", w.name)

	// End-to-end metrics, on the wall clock. A rate is the closed-loop
	// generator's; the open-loop one completes what its schedule sends.
	if w.writerClosed {
		r.set("ingest_tuples_per_s", float64(ps.tuples)/ps.timed.Seconds())
	} else {
		r.set("read_ops_per_s", float64(len(ps.readLat))/ps.timed.Seconds())
		r.setPct("scan_p50_us", ps.scanLat, 0.50, 1e3)
	}
	r.setPct("batch_p50_ms", ps.writeLat, 0.50, 1e6)
	r.setPct("batch_p99_ms", ps.writeLat, 0.99, 1e6)
	r.setPct("lookup_p50_us", ps.lookupLat, 0.50, 1e3)
	r.setPct("lookup_p99_us", ps.lookupLat, 0.99, 1e3)
	r.setPct("follower_staleness_p50_ms", ps.stale, 0.50, 1e6)
	r.setPct("follower_staleness_p99_ms", ps.stale, 0.99, 1e6)
	r.set("heap_live_mb", float64(m2.HeapAlloc)/(1<<20))
	r.set("wal_bytes_per_tuple", float64(fsd.bytes)/float64(ps.allTuples))
	r.timedSeconds = ps.timed.Seconds()
	nWrites := ps.allWrites
	r.counts["tuples"] = ps.allTuples
	r.counts["batches"] = nWrites
	r.counts["requests"] = ps.attempted - 1 // the follower's catching up is the one attempt that is not a request
	r.counts["wal_bytes"] = fsd.bytes
	r.counts["wal_segments"] = int64(fsd.segments)
	r.counts["replica_frames"] = int64(frames)
	r.counts["scan_rows"] = int64(s.targets[len(s.targets)-1].rows)

	// Layer metrics that are counts or come with the untraced pass.
	tuples := float64(ps.allTuples)
	r.set("wal.writes_per_batch", float64(fsd.writes)/float64(nWrites))
	r.set("wal.write_ms_total", float64(fsd.writeNs)/1e6)
	r.set("wal.syncs", float64(fsd.syncs))
	r.set("wal.sync_ms_total", float64(fsd.syncNs)/1e6)
	r.set("wal.segments", float64(fsd.segments))
	r.set("netserve.apply_body_bytes_per_tuple", float64(ps.bodyBytes)/tuples)
	r.set("netserve.lookup_resp_bytes", float64(ps.lookupBytes)/float64(max(len(ps.lookupLat), 1)))
	r.set("netserve.status_429", float64(ps.status429))
	r.set("netserve.status_412", float64(ps.status412))
	r.set("netserve.status_5xx", float64(ps.status5xx))
	r.set("replica.bytes_shipped_per_tuple", float64(shipped)/tuples)
	r.set("replica.frames", float64(frames))
	r.setPct("replica.lag_batches_p99", ps.lagBatches, 0.99, 1)
	r.set("replica.reconnects", float64(s.dials.Load()-1))
	if w.writerClosed {
		r.setPct("gen.read_late_p99_ms", ps.readLate, 0.99, 1e6)
	} else {
		r.setPct("gen.write_late_p99_ms", ps.writeLate, 0.99, 1e6)
	}
	if w.writerClosed {
		r.set("alloc_kib_per_op", float64(m1.TotalAlloc-m0.TotalAlloc)/1024/float64(ps.allWrites))
	} else {
		r.set("alloc_kib_per_op", float64(ps.tailAlloc)/1024/float64(ps.tailReads))
	}
	r.set("runtime.allocs_per_tuple", float64(m1.Mallocs-m0.Mallocs)/tuples)
	r.set("runtime.alloc_bytes_per_tuple", float64(m1.TotalAlloc-m0.TotalAlloc)/tuples)
	r.set("runtime.gc_cycles", float64(m1.NumGC-m0.NumGC))
	if c1.total > c0.total {
		r.set("runtime.gc_cpu_share", (c1.gc-c0.gc)/(c1.total-c0.total))
	}
	r.set("plan.create_view_ms", median(s.createMs))
	var ratio float64
	for _, wr := range s.in.writes[:nWrites] {
		for _, u := range wr.batch {
			ratio += distinctRatio(s.in.cat[u.Rel], s.in.ds, u.Tuples) / float64(len(wr.batch))
		}
	}
	r.set("data.batch_distinct_ratio", ratio/float64(nWrites))
	maintain, views, err := s.viewStats()
	if err != nil {
		return nil, err
	}
	r.set("ivm.views_materialized", float64(views))
	r.set("db.view_maintain_share", (maintain-maintain0).Seconds()/ps.total.Seconds())
	if err := s.queue.Do(func(d *db.DB) error {
		r.set("ivm.state_bytes_per_tuple", float64(d.MemoryBytes())/float64(s.in.ds.TotalTuples()))
		return nil
	}); err != nil {
		return nil, err
	}

	if p.trace {
		// On a topology set up afresh, so that the shadows only have to take
		// the preload to be where the primary is, with the first half of the
		// same requests.
		s.teardown()
		if s, err = w.setup(p); err != nil {
			return nil, err
		}
		if err := w.traced(p, s, r, ps); err != nil {
			return nil, fmt.Errorf("traced pass: %w", err)
		}
	}
	r.attempted, r.failed, r.notes = ps.attempted, ps.failed, append(r.notes, ps.notes...)
	return r, nil
}

// closedRate is a closed-loop generator's requests per second of the time
// it spent in requests: what the traced pass, whose replays come between the
// requests, compares with the untraced one.
func closedRate(lat latencies) float64 {
	return float64(len(lat)) / time.Duration(lat.sum()).Seconds()
}

// checkFinal compares, at the final epoch, the follower's views with the
// primary's (exactly: the follower replays the primary's batches) and the
// primary's with the re-evaluation oracle.
func (w *serveWorkload) checkFinal(s *serveState, ps *servePass) {
	err := s.queue.Do(func(d *db.DB) error {
		for _, v := range s.defs {
			ps.attempted += 2
			on, err := contents[float64](d, v.name)
			if err != nil {
				return err
			}
			onFollower, err := contents[float64](s.fol.DB(), v.name)
			if err == nil {
				err = sameContents(onFollower, on, func(a, b float64) bool { return a == b })
			}
			if err != nil {
				ps.failed++
				ps.notes = append(ps.notes, fmt.Sprintf("follower's %s differs from the primary's: %v", v.name, err))
			}
			want, err := naiveOracle(d, nil, v)
			if err == nil {
				err = sameContents(on, want, closeTo)
			}
			if err != nil {
				ps.failed++
				ps.notes = append(ps.notes, fmt.Sprintf("view %s differs from its oracle: %v", v.name, err))
			}
		}
		return nil
	})
	if err != nil {
		ps.failed++
		ps.notes = append(ps.notes, err.Error())
	}
}

// --- traced pass --------------------------------------------------------------

// serveShadows adds, to the shadows every write is replayed through, the two
// that only the serve workloads have: a durable database behind its own
// ApplyQueue, and one applied to directly.
type serveShadows struct {
	*shadows[float64]
	queued, direct *db.DB
	queue          *db.ApplyQueue
	dirs           []string
	readers        map[string]*serve.Reader[float64]
}

// newServeShadows builds the shadows and preloads them as set-up preloaded
// the primary.
func (w *serveWorkload) newServeShadows(p params, s *serveState) (*serveShadows, error) {
	sh, err := newShadows(ring.Float{}, s.in.cat, s.defs, true, p.outDir)
	if err != nil {
		return nil, err
	}
	ss := &serveShadows{shadows: sh, readers: map[string]*serve.Reader[float64]{}}
	for _, d := range []**db.DB{&ss.queued, &ss.direct} {
		dir, err := os.MkdirTemp(p.outDir, "shadow-db-*")
		if err != nil {
			return ss, err
		}
		ss.dirs = append(ss.dirs, dir)
		if *d, err = openDurable(s.in.cat, dir, nil); err != nil {
			return ss, err
		}
		if _, err := createViews(*d, ring.Float{}, s.defs, nil); err != nil {
			return ss, err
		}
	}
	discard := newTracer(func() time.Duration { return 0 }, 0)
	for _, b := range s.in.preload {
		if err := sh.replay(discard, 0, b); err != nil {
			return ss, err
		}
		discard.spans = discard.spans[:0]
		if err := ss.queued.Apply(b); err != nil {
			return ss, err
		}
		if err := ss.direct.Apply(b); err != nil {
			return ss, err
		}
	}
	ss.queue = db.NewApplyQueue(ss.queued, 256)
	return ss, nil
}

func (ss *serveShadows) close() {
	if ss.queue != nil {
		ss.queue.Close()
	}
	for _, d := range []*db.DB{ss.queued, ss.direct} {
		if d != nil {
			d.Close()
		}
	}
	for _, dir := range ss.dirs {
		os.RemoveAll(dir)
	}
	ss.shadows.close()
}

// readInProcess makes a read the way the handler does once the request is
// parsed: pin the follower's current epoch, then look up or scan.
func (ss *serveShadows) readInProcess(fol *replica.Follower, t *readTarget) {
	snap := db.SnapshotOf[float64](fol.DB().Epoch(), t.view)
	rd := ss.readers[t.view]
	if rd == nil {
		rd = serve.NewPinned(snap)
		ss.readers[t.view] = rd
	} else {
		rd.PinAt(snap)
	}
	if t.scan {
		rd.Scan(t.key, func(data.Tuple, float64) bool { return true })
	} else {
		rd.Lookup(t.key)
	}
}

// discardResponse is the http.ResponseWriter of the handler replays.
type discardResponse struct{ h http.Header }

func (d *discardResponse) Header() http.Header         { return d.h }
func (d *discardResponse) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardResponse) WriteHeader(int)             {}

// readSampleEvery is how many reads go by between two that the traced pass
// replays in process.
const readSampleEvery = 16

func (w *serveWorkload) traced(p params, s *serveState, r *result, untraced *servePass) error {
	writes, reads := s.in.writes, s.readSeq
	ss, err := w.newServeShadows(p, s)
	if ss != nil {
		defer ss.close()
	}
	if err != nil {
		return err
	}
	logf("%s: set up again, shadows preloaded", w.name)
	origin := time.Now()
	wtr := newTracer(wallSince(origin), 9*len(writes))
	rtr := newTracer(wallSince(origin), 3*len(reads)/readSampleEvery+3)
	handler := s.folSrv.Handler()
	requests := make([]*http.Request, len(s.targets))
	for i, t := range s.targets {
		if requests[i], err = http.NewRequest(http.MethodGet, t.url, nil); err != nil {
			return err
		}
	}
	hooks := &serveHooks{
		write: func(i int, send func() error) error {
			var err error
			wtr.record(uint32(i), spHTTPApply, func() { err = send() })
			if err != nil {
				return err
			}
			b := writes[i].batch
			wtr.record(uint32(i), spQueueApply, func() { err = ss.queue.Apply(b) })
			if err == nil {
				wtr.record(uint32(i), spDBApply, func() { err = ss.direct.Apply(b) })
			}
			if err == nil {
				err = ss.replay(wtr, uint32(i), b)
			}
			return err
		},
		read: func(i int, t *readTarget, send func() error) error {
			if i%readSampleEvery != 0 {
				return send()
			}
			var err error
			op := uint32(len(writes) + i)
			rtr.record(op, spHTTPRead, func() { err = send() })
			req := requests[reads[i%len(reads)]]
			rtr.record(op, spHandlerRead, func() { handler.ServeHTTP(&discardResponse{h: http.Header{}}, req) })
			rtr.record(op, spServeRead, func() { ss.readInProcess(s.fol, t) })
			return err
		},
	}
	// Half the time: every replay multiplies the pass's cost.
	ps, err := w.pass(s, writes, reads, p.seconds/2, hooks)
	if err != nil {
		return err
	}
	untraced.add(ps.opCounts)
	if err := s.awaitFollower(10 * time.Second); err != nil {
		return err
	}
	logf("%s: traced pass done", w.name)

	l := buildLedger(wtr, rtr)
	tuples := float64(ps.allTuples)
	reportWritePath(r, l, tuples, float64(ps.allWrites), true)
	r.set("db.queue_overhead_us", (l.p50(spQueueApply)-l.p50(spDBApply))/1e3)
	r.set("netserve.apply_overhead_us", (l.p50(spHTTPApply)-l.p50(spQueueApply))/1e3)

	// The read path, in process: micro-loops over the workload's own targets,
	// because one lookup is shorter than two clock readings.
	lookupNs, scanNsPerRow, pinNs := ss.timeReads(s)
	r.set("serve.lookup_ns", lookupNs)
	r.set("serve.scan_ns_per_row", scanNsPerRow)
	r.set("serve.pin_ns", pinNs)
	var handlerLookups, httpLookups latencies
	for _, sp := range rtr.spans {
		if t := &s.targets[reads[(int(sp.op)-len(writes))%len(reads)]]; !t.scan {
			switch sp.name {
			case spHandlerRead:
				handlerLookups = append(handlerLookups, sp.end-sp.start)
			case spHTTPRead:
				httpLookups = append(httpLookups, sp.end-sp.start)
			}
		}
	}
	r.set("netserve.handler_lookup_us", handlerLookups.pct(0.5)/1e3)
	r.set("netserve.lookup_overhead_us", (httpLookups.pct(0.5)-lookupNs)/1e3)

	if err := w.replayReplica(s, r); err != nil {
		return err
	}

	// Tracing overhead: the traced pass's closed-loop rate (a request's
	// replays come after its reply, outside its latency) against the
	// untraced pass's.
	if w.writerClosed {
		r.set("trace_overhead", closedRate(ps.writeLat)/closedRate(untraced.writeLat))
	} else {
		r.set("trace_overhead", closedRate(ps.readLat)/closedRate(untraced.readLat))
	}
	path, err := writeTrace(p.outDir, w.name, wtr, rtr)
	if err != nil {
		return err
	}
	r.notes = append(r.notes, "trace written to "+path)
	return nil
}

// timeReads times lookups, scans and pins on the follower, in process.
func (ss *serveShadows) timeReads(s *serveState) (lookupNs, scanNsPerRow, pinNs float64) {
	const rounds = 20000
	var lookups, scans []*readTarget
	for i := range s.targets {
		if t := &s.targets[i]; t.scan {
			scans = append(scans, t)
		} else {
			lookups = append(lookups, t)
		}
	}
	snaps := map[string]*serve.Reader[float64]{}
	for _, name := range []string{lookupView, ksnView} {
		snaps[name] = serve.NewPinned(db.SnapshotOf[float64](s.fol.DB().Epoch(), name))
	}
	start := time.Now()
	for i := 0; i < rounds; i++ {
		t := lookups[i%len(lookups)]
		snaps[t.view].Lookup(t.key)
	}
	lookupNs = float64(time.Since(start)) / rounds
	rows := 0
	start = time.Now()
	for i := 0; i < rounds/20; i++ {
		t := scans[i%len(scans)]
		snaps[t.view].Scan(t.key, func(data.Tuple, float64) bool { rows++; return true })
	}
	scanNsPerRow = float64(time.Since(start)) / float64(max(rows, 1))
	rd := snaps[lookupView]
	start = time.Now()
	for i := 0; i < rounds; i++ {
		rd.PinAt(db.SnapshotOf[float64](s.fol.DB().Epoch(), lookupView))
	}
	pinNs = float64(time.Since(start)) / rounds
	return lookupNs, scanNsPerRow, pinNs
}

// replayReplica applies the primary's log, read back from its directory, to
// a follower-mode database on its own: what applying costs a follower without
// the network or the reads.
func (w *serveWorkload) replayReplica(s *serveState, r *result) error {
	_, ck, err := wal.LatestCheckpointBytes(s.fs, s.dir)
	if err != nil || ck == nil {
		return fmt.Errorf("no checkpoint to replay from: %v", err)
	}
	d, err := db.Open(s.in.cat, db.Options{Follower: true, Bootstrap: ck})
	if err != nil {
		return err
	}
	defer d.Close()
	var records []wal.Record
	_, gap, err := wal.ScanFramesAfter(s.fs, s.dir, ck.LSN, func(_ uint64, frame []byte) error {
		// The frame is only valid during the call; decoded strings alias it.
		rec, _, err := wal.DecodeFrame(bytes.Clone(frame))
		records = append(records, rec)
		return err
	})
	if err != nil || gap {
		return fmt.Errorf("scanning the primary's log: gap=%v err=%v", gap, err)
	}
	tuples := 0
	start := time.Now()
	for _, rec := range records {
		for _, u := range rec.Batch {
			tuples += len(u.Tuples)
		}
		if err := d.ApplyReplicated(rec); err != nil {
			return err
		}
	}
	r.set("replica.apply_ns_per_tuple", float64(time.Since(start))/float64(max(tuples, 1)))
	return nil
}
