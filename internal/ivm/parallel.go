package ivm

import (
	"fmt"
	"runtime"
	"sync"

	"fivm/internal/data"
	"fivm/internal/query"
	"fivm/internal/ring"
)

// Parallel is a sharded parallel maintainer: it hash-partitions the
// database by one join variable — the shard variable — and runs one
// independent inner maintainer per shard on a fixed worker pool.
//
// Correctness rests on partition-plus-broadcast join distribution. Let X be
// the shard variable and h the shard assignment on its values. Relations
// whose schema contains X are partitioned: shard i holds exactly the tuples
// with h(t[X]) = i. Relations without X are broadcast, fully replicated in
// every shard. Tuples from different partitions of X-bearing relations never
// join (they disagree on X), and every join output binds X, so the full
// join is the disjoint union of the per-shard joins; marginalization
// distributes over that union. The maintained query result is therefore the
// key-wise payload sum of the shard results, which Result materializes:
// disjoint key union when X is free in the query, a payload reduction when
// X is aggregated away (the empty-key root of Figure 7's cofactor queries).
//
// The shard variable is the query variable covered by the most relation
// schemas (the root of the paper's variable orders for the snowflake and
// star workloads). One shard is not a mode: workers <= 1, or a query with no
// variable to shard on, is a Parallel of one shard that routes, propagates
// and reduces like any other. A caller that wants the bare maintainer builds
// it itself.
//
// Parallel is an update rule under the common driver: apply routes a delta
// into per-shard scratch, seal runs every shard with work on its batch behind
// a barrier, and the epoch is the key-wise reduction of the shard results.
//
// Floating-point caveat: shard results are reduced key-wise (Result in
// fixed shard order, published snapshots in sorted-entry encounter order),
// and either order differs from sequential update order, so non-integral
// float payloads may round differently than a single-threaded run. Integer
// and integral-float workloads (and the paper's benchmarks) are exact.
type Parallel[P any] struct {
	driver[P] // ApplyDelta, ApplyDeltas, Snapshot over check, route, propagate and epoch

	q        query.Query
	ring     ring.Ring[P]
	shardVar string
	shards   []Maintainer[P]

	jobs   chan func()
	closed bool
	// sem caps concurrently running shard jobs at the GOMAXPROCS value in
	// effect per dispatch; allocated lazily, only when shards exceed cores.
	sem chan struct{}

	// Routing scratch, filled by route and emptied by propagate: one Sharded
	// routing relation per relation that carries the shard variable (built
	// with the maintainer, over the query's column order), the names routed
	// in this batch, the per-shard batches, and the per-shard error slots for
	// one dispatch.
	routes  map[string]*data.Sharded[P]
	order   []string
	batches [][]NamedDelta[P]
	errs    []error

	// stats, when attached via CollectStats, observes the routing path:
	// partitioned deltas through the Sharded routing relations, broadcast
	// deltas directly. Router-owned (same goroutine as ApplyDeltas).
	stats *data.Stats

	// reduceParts is the reusable shard-result list handed to
	// data.ReduceSealed per publish.
	reduceParts []*data.Relation[P]
}

// CollectStats attaches a statistics collector to the router: every delta
// tuple routed through the maintainer is observed (update rates and value
// sketches) before it is dispatched, via Sharded.CollectStats for
// partitioned relations. The per-shard inner maintainers keep their own
// collectors; this one sees the undivided stream and is what ANALYZE-seeded
// benchmark collectors pass to keep delta rates current. Must be called
// from the goroutine that applies deltas.
func (p *Parallel[P]) CollectStats(st *data.Stats) {
	p.stats = st
	for rel, route := range p.routes {
		// Only where the collector's column order matches: a relation it first
		// saw under a permuted schema keeps that registration, and mismatched
		// sketches would misalign.
		sch := route.Shard(0).Schema()
		if rs := st.Rel(rel, sch); rs.Schema.Equal(sch) {
			route.CollectStats(rs)
		}
	}
}

// pickShardVar returns the query variable contained in the most relation
// schemas, breaking ties by the query's variable order. Empty only when the
// query has no variables.
func pickShardVar(q query.Query) string {
	best, bestCover := "", 0
	for _, v := range q.Vars() {
		cover := 0
		for _, rd := range q.Rels {
			if rd.Schema.Contains(v) {
				cover++
			}
		}
		if cover > bestCover {
			best, bestCover = v, cover
		}
	}
	return best
}

// NewParallel builds a sharded parallel maintainer over workers shards,
// each an independent maintainer built by factory (strategies hold
// per-instance state, so every shard needs its own). workers <= 1 is one
// shard, and so is a query with nothing to shard on: every delta of it is a
// broadcast, and n shards that all hold everything would sum n copies of the
// result.
//
// The shard count is NOT clamped to the host's core count at construction:
// partitioning is a data layout decision that must stay stable for the
// maintainer's lifetime, while the core budget is a scheduling decision that
// can change at any time (runtime.GOMAXPROCS, container quota updates).
// Instead, dispatch caps the shards propagating concurrently at the
// GOMAXPROCS value in effect for each batch, so an 8-shard maintainer on a
// 4-core budget runs 4 shards at a time rather than thrashing 8.
func NewParallel[P any](q query.Query, r ring.Ring[P], workers int, factory func() (Maintainer[P], error)) (*Parallel[P], error) {
	shardVar := pickShardVar(q)
	if workers < 1 || shardVar == "" {
		workers = 1
	}
	p := &Parallel[P]{
		q: q, ring: r, shardVar: shardVar,
		routes:  make(map[string]*data.Sharded[P]),
		batches: make([][]NamedDelta[P], workers),
		errs:    make([]error, workers),
	}
	p.driver = driver[P]{check: p.check, apply: p.route, seal: p.propagate, epoch: p.epoch}
	for _, rd := range q.Rels {
		if !rd.Schema.Contains(shardVar) {
			continue
		}
		route, err := data.NewSharded[P](r, rd.Schema, shardVar, workers)
		if err != nil {
			return nil, err
		}
		for s := 0; s < workers; s++ {
			// Routing scratch: refilled per batch, cleared by propagate after
			// the batch's cross-shard barrier.
			route.Shard(s).RecycleCleared()
		}
		p.routes[rd.Name] = route
	}
	for i := 0; i < workers; i++ {
		m, err := factory()
		if err != nil {
			return nil, err
		}
		p.shards = append(p.shards, m)
	}
	p.jobs = make(chan func(), workers)
	for i := 0; i < workers; i++ {
		go func() {
			for f := range p.jobs {
				f()
			}
		}()
	}
	return p, nil
}

// Workers returns the number of shards.
func (p *Parallel[P]) Workers() int { return len(p.shards) }

// Close stops the worker pool. The maintainer must not be used afterwards.
func (p *Parallel[P]) Close() error {
	if !p.closed {
		close(p.jobs)
		p.closed = true
	}
	return nil
}

// dispatch runs f(shard) for every shard in the index set on the worker
// pool and returns the first error in shard order. In-flight jobs are capped
// at the runtime.GOMAXPROCS value read per call — not at construction — so
// the maintainer adapts when the core budget changes under it; when the
// budget covers every shard the cap adds no work at all.
func (p *Parallel[P]) dispatch(idx []int, f func(s int) error) error {
	var sem chan struct{}
	if limit := runtime.GOMAXPROCS(0); limit < len(idx) {
		if cap(p.sem) != limit {
			p.sem = make(chan struct{}, limit)
		}
		sem = p.sem
	}
	var wg sync.WaitGroup
	for _, s := range idx {
		s := s
		wg.Add(1)
		if sem != nil {
			sem <- struct{}{} // acquired before enqueue; released by the job
		}
		p.jobs <- func() {
			defer wg.Done()
			p.errs[s] = f(s)
			if sem != nil {
				<-sem
			}
		}
	}
	wg.Wait()
	for _, s := range idx {
		if err := p.errs[s]; err != nil {
			p.errs[s] = nil
			return fmt.Errorf("ivm: shard %d: %w", s, err)
		}
		p.errs[s] = nil
	}
	return nil
}

// allShards returns [0..n) for dispatching to every shard.
func (p *Parallel[P]) allShards() []int {
	out := make([]int, len(p.shards))
	for i := range out {
		out[i] = i
	}
	return out
}

// Load installs initial contents, splitting relations that carry the shard
// variable and replicating the rest. Every shard gets its own clone — never
// the caller's relation — so per-relation scratch state never crosses
// goroutines and later caller-side mutations of r cannot skew one shard's
// snapshot against the others'.
func (p *Parallel[P]) Load(rel string, r *data.Relation[P]) error { return p.load(rel, r, false) }

// LoadOwned is Load with ownership transfer (see Engine.LoadOwned). Shard
// partitions are fresh relations and are always handed over owned; broadcast
// relations give the original to the first shard and owned clones to the
// rest, so no shard re-copies at Init. Inner maintainers that do not adopt
// bases fall back to plain Load.
func (p *Parallel[P]) LoadOwned(rel string, r *data.Relation[P]) error { return p.load(rel, r, true) }

func (p *Parallel[P]) load(rel string, r *data.Relation[P], owned bool) error {
	give := Maintainer[P].Load
	if owned {
		give = LoadOwned[P]
	}
	if r.Schema().Contains(p.shardVar) {
		parts, err := data.Split(r, p.shardVar, len(p.shards))
		if err != nil {
			return err
		}
		for s, part := range parts {
			if err := give(p.shards[s], rel, part); err != nil {
				return err
			}
		}
		return nil
	}
	for s := range p.shards {
		part := r
		if s > 0 || !owned {
			part = r.Clone()
		}
		if err := give(p.shards[s], rel, part); err != nil {
			return err
		}
	}
	return nil
}

// BaseAdopter is the optional Maintainer extension for ownership-transfer
// loading: LoadOwned adopts the relation as view backing storage instead of
// copying it, and the caller must not touch it afterwards. Engine and
// Parallel implement it; LoadOwned probes for it.
type BaseAdopter[P any] interface {
	LoadOwned(rel string, r *data.Relation[P]) error
}

// LoadOwned hands a relation to a maintainer with ownership transfer when it
// is a BaseAdopter, through plain Load otherwise.
func LoadOwned[P any](m Maintainer[P], rel string, r *data.Relation[P]) error {
	if a, ok := m.(BaseAdopter[P]); ok {
		return a.LoadOwned(rel, r)
	}
	return m.Load(rel, r)
}

// Init initializes every shard in parallel.
func (p *Parallel[P]) Init() error {
	return p.dispatch(p.allShards(), func(s int) error { return p.shards[s].Init() })
}

// check is the admission rule, run at the router so that no shard ever sees
// a relation the query does not have or a delta over other variables. What
// only the inner strategy knows (an updatable set) its own check rejects, in
// every shard alike and before any of them applies anything.
func (p *Parallel[P]) check(rel string, delta *data.Relation[P]) error {
	_, err := checkRel(p.q, rel, delta)
	return err
}

// route is the update rule's first half: a delta of a shard-variable
// relation is hash-partitioned tuple by tuple into the relation's routing
// scratch, a delta of a broadcast relation goes to every shard's batch as it
// is (shared read-only — maintainers only iterate input deltas). Nothing
// reaches a shard before propagate.
func (p *Parallel[P]) route(rel string, d *data.Relation[P]) error {
	if d.Len() == 0 {
		return nil
	}
	route := p.routes[rel]
	if route == nil {
		if p.stats != nil {
			data.ObserveDeltaRelation(p.stats, rel, d.Schema(), d)
		}
		for s := range p.batches {
			p.batches[s] = append(p.batches[s], NamedDelta[P]{Rel: rel, Delta: d})
		}
		return nil
	}
	if rs := route.Shard(0).Schema(); !rs.Equal(d.Schema()) {
		d = data.Project(d, rs)
	}
	d.Iterate(func(t data.Tuple, pl P) bool {
		route.Merge(t, pl)
		return true
	})
	if d.VolatileTuples() {
		// The shards store d's tuples as handed; they die when d's do.
		for s := range p.shards {
			route.Shard(s).MarkVolatile()
		}
	}
	p.order = append(p.order, rel)
	return nil
}

// propagate is the second half, the driver's seal: it completes the per-shard
// batches from the routed relations, runs every shard with work on its batch
// concurrently on the worker pool, and empties the routing scratch whatever
// came of it — a failed batch leaves nothing behind for the next. The epoch
// the driver publishes afterwards, on the routing goroutine, reflects the
// whole batch across every shard.
func (p *Parallel[P]) propagate() error {
	var idx [64]int
	work := idx[:0]
	for s := range p.shards {
		for _, rel := range p.order {
			if d := p.routes[rel].Shard(s); d.Len() > 0 {
				p.batches[s] = append(p.batches[s], NamedDelta[P]{Rel: rel, Delta: d})
			}
		}
		if len(p.batches[s]) > 0 {
			work = append(work, s)
		}
	}
	err := p.dispatch(work, func(s int) error { return p.shards[s].ApplyDeltas(p.batches[s]) })
	for _, rel := range p.order {
		p.routes[rel].Clear()
	}
	p.order = p.order[:0]
	for s := range p.batches {
		p.batches[s] = p.batches[s][:0]
	}
	return err
}

// Result merges the shard results key-wise: the disjoint union of shard
// outputs when the shard variable is free, the payload sum when it is
// aggregated away. The merge reads every shard's live result, so it must
// not race ApplyDeltas; concurrent readers go through Snapshot: the driver
// publishes epoch, the same reduction sealed, after each batch.
func (p *Parallel[P]) Result() *data.Relation[P] {
	first := p.shards[0].Result()
	out := data.NewRelation(p.ring, first.Schema())
	out.Reserve(first.Len())
	for _, m := range p.shards {
		out.MergeAll(m.Result())
	}
	return out
}

// ViewCount reports the logical view count (every shard materializes the
// same view structure).
func (p *Parallel[P]) ViewCount() int { return p.shards[0].ViewCount() }

// PoolStats sums the shards' pools and the routing scratch's slabs (see
// Engine.PoolStats). Maintenance-goroutine only, between batches.
func (p *Parallel[P]) PoolStats() data.PoolStats {
	var ps data.PoolStats
	ps.Arena.Headers = p.pub.free.Stats()
	for _, m := range p.shards {
		if r, ok := m.(interface{ PoolStats() data.PoolStats }); ok {
			ps.Add(r.PoolStats())
		}
	}
	for _, route := range p.routes {
		for s := 0; s < route.N(); s++ {
			ps.AddSlabs(route.Shard(s).PoolStats())
		}
	}
	return ps
}

// MemoryBytes sums the shards' materialized state (broadcast relations are
// replicated and counted once per shard, as they are truly held per shard).
func (p *Parallel[P]) MemoryBytes() int {
	total := 0
	for _, m := range p.shards {
		total += m.MemoryBytes()
	}
	return total
}
