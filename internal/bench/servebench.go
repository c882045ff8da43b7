package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fivm/internal/datasets"
	"fivm/internal/db"
	"fivm/internal/netserve"
	"fivm/internal/replica"
	"fivm/internal/ring"
	"fivm/internal/wal"
)

// ServeBenchConfig sizes the network-serving scenario: a durable primary
// maintaining the fig7 cofactor view plus a SQL aggregate view, ingesting
// the retailer stream through the bounded ApplyQueue behind a netserve HTTP
// server, with HTTP readers hitting the lookup and scan paths over real
// loopback TCP and an in-memory replication follower streaming the WAL.
type ServeBenchConfig struct {
	Retailer  datasets.RetailerConfig
	BatchSize int
	Workers   int
	// Readers is the number of HTTP lookup goroutines (default 2); one
	// additional goroutine drives scans.
	Readers int
	// ReadWindow extends the read measurement past the end of ingest so
	// short CI-scale streams still produce stable ops/s (default 200ms).
	ReadWindow time.Duration
	// Dir is the parent directory for the primary's WAL (empty: temp dir).
	Dir string
}

// ServeBench runs the scenario and returns the serve/* report rows:
// ingest throughput through the HTTP write stack, lookup and scan ops/s
// against live maintenance, and the follower's replication staleness.
func ServeBench(cfg ServeBenchConfig) []ScenarioResult {
	readers := max(1, cfg.Readers)
	window := cfg.ReadWindow
	if window <= 0 {
		window = 200 * time.Millisecond
	}
	fail := func(err error) []ScenarioResult {
		return []ScenarioResult{{Scenario: "serve", Case: "ingest", Batch: cfg.BatchSize,
			Workers: max(1, cfg.Workers), Status: "error: " + err.Error()}}
	}

	ds := datasets.GenRetailer(cfg.Retailer)
	stream := datasets.RoundRobinStream(ds, ds.Query.RelNames(), cfg.BatchSize)
	cat := db.Catalog{}
	for _, rd := range ds.Query.Rels {
		cat[rd.Name] = rd.Schema
	}

	dir, err := os.MkdirTemp(cfg.Dir, "fivm-servebench-*")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(dir)
	d, err := db.Open(cat, db.Options{Durability: &db.DurabilityOptions{Dir: dir, Fsync: wal.FsyncNever}})
	if err != nil {
		return fail(err)
	}
	defer d.Close()

	// The fig7 cofactor view (typed, maintenance load) plus a SQL aggregate
	// view: the latter is what HTTP readers query and what replicates to
	// the follower (typed views are not WAL-persisted).
	if _, err := db.CreateView[ring.Triple](d, "cofactor", ds.Query.Rename("cofactor"),
		ring.Cofactor{}, tripleLift(ds.Query.Vars()),
		db.ViewOptions{Workers: cfg.Workers, ComposeChains: true}); err != nil {
		return fail(err)
	}
	keyAttr := cat[ds.Largest][0]
	sql := fmt.Sprintf("CREATE VIEW served AS SELECT %s, SUM(1) FROM %s GROUP BY %s",
		keyAttr, ds.Largest, keyAttr)
	if _, err := d.Exec(sql); err != nil {
		return fail(err)
	}

	// HTTP front end over loopback TCP (exercising the per-connection
	// reader cache, not just the handler).
	q := db.NewApplyQueue(d, 256)
	defer q.Close()
	srv, err := netserve.New(netserve.Config{DB: func() *db.DB { return d }, Queue: q})
	if err != nil {
		return fail(err)
	}
	hl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	go srv.Serve(hl)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	base := "http://" + hl.Addr().String()

	// Replication: an in-memory follower over loopback.
	rl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	prim, err := replica.NewPrimary(d, rl)
	if err != nil {
		return fail(err)
	}
	go prim.Serve()
	defer prim.Close()
	// Staleness: both sides record (Applied, At) of every epoch as they
	// publish it; the per-count difference is the follower's lag for that batch.
	lag := newStalenessLog()
	fol, err := replica.NewFollower(replica.FollowerConfig{Primary: rl.Addr().String(), Catalog: cat, OnApply: lag.follower})
	if err != nil {
		return fail(err)
	}
	folCtx, folCancel := context.WithCancel(context.Background())
	folDone := make(chan struct{})
	go func() { defer close(folDone); fol.Run(folCtx) }()
	defer func() { folCancel(); fol.Close(); <-folDone }()

	// Lookup keys observed in the stream for the served view's group-by.
	var keys []string
	seen := map[string]bool{}
	for _, b := range stream {
		if b.Rel != ds.Largest {
			continue
		}
		for _, t := range b.Tuples {
			if k := t[0].String(); !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	if len(keys) == 0 {
		return fail(fmt.Errorf("no lookup keys in stream"))
	}

	// Readers: lookups and scans over keep-alive connections, running
	// through ingest plus a fixed tail window.
	stopRead := make(chan struct{})
	var lookupOps, scanOps atomic.Int64
	var readWG sync.WaitGroup
	readStart := time.Now()
	for i := 0; i < readers; i++ {
		readWG.Add(1)
		go func(i int) {
			defer readWG.Done()
			client := &http.Client{}
			for j := i; ; j++ {
				select {
				case <-stopRead:
					return
				default:
				}
				if httpGet(client, base+"/view/served/lookup?key="+keys[j%len(keys)]) {
					lookupOps.Add(1)
				}
			}
		}(i)
	}
	readWG.Add(1)
	go func() {
		defer readWG.Done()
		client := &http.Client{}
		for {
			select {
			case <-stopRead:
				return
			default:
			}
			if httpGet(client, base+"/view/served/scan?limit=64") {
				scanOps.Add(1)
			}
		}
	}()

	// Ingest through the queue (the single maintenance goroutine).
	lats := make([]time.Duration, 0, len(stream))
	tuples := 0
	var ingestErr error
	ingestStart := time.Now()
	for _, b := range stream {
		bs := time.Now()
		if err := q.Apply([]db.Update{{Rel: b.Rel, Tuples: b.Tuples, Mult: 1}}); err != nil {
			ingestErr = err
			break
		}
		lats = append(lats, time.Since(bs))
		tuples += len(b.Tuples)
		// One writer, and Apply returns once its batch is published: the
		// current epoch is this batch's.
		e := d.Epoch()
		lag.primary(e)
		e.Release()
	}
	ingestElapsed := time.Since(ingestStart)

	// Let the follower fully converge, then stop the readers.
	wantApplied := appliedOf(d)
	convergeErr := waitFollowerApplied(fol, wantApplied, 10*time.Second)
	replElapsed := time.Since(ingestStart)
	time.Sleep(window)
	close(stopRead)
	readWG.Wait()
	readElapsed := time.Since(readStart)
	p50, p99, lagSamples := lag.percentiles()

	var peakMem int
	_ = q.Do(func(d *db.DB) error { peakMem = d.MemoryBytes(); return nil })

	status := func(err error) string {
		if err != nil {
			return "error: " + err.Error()
		}
		return "ok"
	}
	ingest := ScenarioResult{
		Scenario: "serve", Case: "ingest",
		Batch: cfg.BatchSize, Workers: max(1, cfg.Workers),
		Tuples:        tuples,
		ThroughputTPS: float64(tuples) / ingestElapsed.Seconds(),
		P50BatchNs:    percentile(lats, 0.50).Nanoseconds(),
		P99BatchNs:    percentile(lats, 0.99).Nanoseconds(),
		PeakMemBytes:  peakMem,
		Status:        status(ingestErr),
	}
	lookup := ScenarioResult{
		Scenario: "serve", Case: "http-lookup",
		Batch: cfg.BatchSize, Workers: max(1, cfg.Workers), Readers: readers,
		Tuples:          int(lookupOps.Load()),
		ThroughputTPS:   float64(lookupOps.Load()) / readElapsed.Seconds(),
		ReaderOpsPerSec: float64(lookupOps.Load()) / readElapsed.Seconds(),
		Status:          "ok",
	}
	scan := ScenarioResult{
		Scenario: "serve", Case: "http-scan",
		Batch: cfg.BatchSize, Workers: max(1, cfg.Workers), Readers: 1,
		Tuples:          int(scanOps.Load()),
		ThroughputTPS:   float64(scanOps.Load()) / readElapsed.Seconds(),
		ReaderOpsPerSec: float64(scanOps.Load()) / readElapsed.Seconds(),
		Status:          "ok",
	}
	staleness := ScenarioResult{
		Scenario: "serve", Case: "follower-staleness",
		Batch: cfg.BatchSize, Workers: max(1, cfg.Workers),
		Tuples:           tuples,
		ThroughputTPS:    float64(tuples) / replElapsed.Seconds(),
		StalenessP50Ns:   p50.Nanoseconds(),
		StalenessP99Ns:   p99.Nanoseconds(),
		StalenessSamples: lagSamples,
		Status:           status(convergeErr),
	}
	return []ScenarioResult{ingest, lookup, scan, staleness}
}

func httpGet(c *http.Client, url string) bool {
	resp, err := c.Get(url)
	if err != nil {
		return false
	}
	var sink json.RawMessage
	ok := json.NewDecoder(resp.Body).Decode(&sink) == nil && resp.StatusCode == http.StatusOK
	resp.Body.Close()
	return ok
}

func waitFollowerApplied(f *replica.Follower, want uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if appliedOf(f.DB()) >= want {
			return nil
		}
		time.Sleep(200 * time.Microsecond)
	}
	return fmt.Errorf("follower stuck at applied=%d, want %d", appliedOf(f.DB()), want)
}

// appliedOf reads the batch count of d's current epoch, giving the lease back.
func appliedOf(d *db.DB) uint64 {
	e := d.Epoch()
	defer e.Release()
	return e.Applied
}

// stalenessLog joins the publication stamps of both sides on the applied
// count: the ingest loop records every primary epoch after q.Apply, the
// follower's OnApply hook every epoch the follower publishes (Epoch.At, stamped
// by the side itself), so a batch is a sample whether or not anyone happened
// to look while its epoch was current.
type stalenessLog struct {
	mu   sync.Mutex
	p, f map[uint64]time.Time
}

func newStalenessLog() *stalenessLog {
	return &stalenessLog{p: map[uint64]time.Time{}, f: map[uint64]time.Time{}}
}

func (s *stalenessLog) primary(e *db.Epoch) {
	s.mu.Lock()
	s.p[e.Applied] = e.At
	s.mu.Unlock()
}

// follower keeps the first stamp per applied count: a DDL record publishes an
// epoch at the count of the batch before it.
func (s *stalenessLog) follower(e *db.Epoch) {
	s.mu.Lock()
	if _, ok := s.f[e.Applied]; !ok {
		s.f[e.Applied] = e.At
	}
	s.mu.Unlock()
}

// percentiles returns the p50/p99 staleness and the number of samples:
// applied counts stamped on both sides. A follower that maintains fewer views
// than the primary can publish a batch before the primary has (the frame ships
// when the WAL has it); such non-positive lags count as samples and stay out
// of the percentiles.
func (s *stalenessLog) percentiles() (p50, p99 time.Duration, samples int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var lags []time.Duration
	for a, ft := range s.f {
		if pt, ok := s.p[a]; ok {
			samples++
			if ft.After(pt) {
				lags = append(lags, ft.Sub(pt))
			}
		}
	}
	sort.Slice(lags, func(i, j int) bool { return lags[i] < lags[j] })
	return percentile(lags, 0.50), percentile(lags, 0.99), samples
}
