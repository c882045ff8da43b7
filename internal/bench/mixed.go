package bench

import (
	"sync"
	"sync/atomic"
	"time"

	"fivm/internal/data"
	"fivm/internal/datasets"
	"fivm/internal/ivm"
	"fivm/internal/serve"
)

// ReaderStats summarizes the serving side of one mixed-workload run: N
// reader goroutines issuing point lookups and prefix scans against the
// latest published snapshot while maintenance streams.
type ReaderStats struct {
	// Readers is the number of concurrent reader goroutines.
	Readers int
	// Ops counts completed read operations (lookups + scans) across all
	// readers; OpsPerSec is the aggregate reader throughput over the run.
	Ops       int64
	OpsPerSec float64
	// Lookups and Scans break Ops down by kind.
	Lookups int64
	Scans   int64
	// LagP50 and LagP99 are percentiles of the freshness lag readers
	// observed at each refresh: the age of the freshest available snapshot
	// (time since its publication) when the reader re-pinned. It bounds how
	// stale served reads were.
	LagP50 time.Duration
	LagP99 time.Duration
	// FinalEpoch is the last epoch any reader observed.
	FinalEpoch uint64
}

// MixedResult couples one strategy's maintenance stats with the stats of
// the readers that ran against it.
type MixedResult struct {
	RunResult
	Reader ReaderStats
}

// readerState aggregates one reader goroutine's counters without sharing
// cache lines with its siblings.
type readerState struct {
	ops, lookups, scans int64
	lags                []time.Duration
	epoch               uint64
	_                   [32]byte
}

// RunMixed drives the maintainer through the stream exactly like RunStream
// while opts.Readers goroutines serve reads from the published snapshots:
// each reader pins the latest epoch, issues point lookups on sampled
// group-by keys and leading-variable prefix scans, and periodically
// refreshes its pin, recording the freshness lag. Snapshot publication is
// enabled before the stream starts (so the maintenance loop pays the
// per-batch publish cost — the quantity under test); with opts.Readers == 0
// publication stays off and the result equals a plain RunStream.
func RunMixed[P any](name string, m ivm.Maintainer[P], toDelta func(b datasets.Batch) *data.Relation[P], stream []datasets.Batch, opts RunOptions) MixedResult {
	if opts.Readers <= 0 {
		return MixedResult{RunResult: RunStream(name, Adapt(m, toDelta), stream, opts)}
	}
	m.Snapshot().Release() // enable publication from the maintenance goroutine

	var (
		stop   atomic.Bool
		wg     sync.WaitGroup
		states = make([]readerState, opts.Readers)
	)
	for i := 0; i < opts.Readers; i++ {
		wg.Add(1)
		go func(st *readerState) {
			defer wg.Done()
			rd := serve.NewReader[P](m)
			defer rd.Close()
			st.lags = append(st.lags, rd.Lag())
			keys := sampleKeys(rd, nil)
			for n := int64(0); ; n++ {
				if n%256 == 0 && n > 0 {
					if rd.Refresh() {
						st.lags = append(st.lags, rd.Lag())
						keys = sampleKeys(rd, keys)
					}
				}
				if len(keys) == 0 {
					// Empty result (e.g. cold start): full scans only.
					rd.Scan(nil, func(data.Tuple, P) bool { return true })
					st.scans++
				} else if k := keys[n%int64(len(keys))]; n%16 == 0 {
					// Prefix scan over the group's leading variable.
					rd.Scan(k[:min(1, len(k))], func(data.Tuple, P) bool { return true })
					st.scans++
				} else {
					rd.Lookup(k)
					st.lookups++
				}
				st.ops++
				// Check after the op, so even a stream that drains instantly
				// leaves every reader with at least one completed operation.
				if stop.Load() {
					break
				}
			}
			rd.Refresh()
			st.epoch = rd.Epoch()
		}(&states[i])
	}

	res := RunStream(name, Adapt(m, toDelta), stream, opts)
	stop.Store(true)
	wg.Wait()

	out := MixedResult{RunResult: res}
	out.Reader.Readers = opts.Readers
	var lags []time.Duration
	for i := range states {
		st := &states[i]
		out.Reader.Ops += st.ops
		out.Reader.Lookups += st.lookups
		out.Reader.Scans += st.scans
		lags = append(lags, st.lags...)
		if st.epoch > out.Reader.FinalEpoch {
			out.Reader.FinalEpoch = st.epoch
		}
	}
	if s := res.Elapsed.Seconds(); s > 0 {
		out.Reader.OpsPerSec = float64(out.Reader.Ops) / s
	}
	out.Reader.LagP50 = percentile(lags, 0.50)
	out.Reader.LagP99 = percentile(lags, 0.99)
	return out
}

// sampleKeys collects up to 64 group-by key tuples from the reader's pinned
// result, reusing the previous sample's backing slice. Snapshot tuples are
// immutable, so retaining them across epochs is safe.
func sampleKeys[P any](rd *serve.Reader[P], prev []data.Tuple) []data.Tuple {
	keys := prev[:0]
	rd.Scan(nil, func(t data.Tuple, _ P) bool {
		keys = append(keys, t)
		return len(keys) < 64
	})
	return keys
}

// runServed appends a strategy's run to results, and — when opts.Readers is
// set — runs it as a mixed read/write workload and also records the reader
// stats. Figure drivers use it so `-readers N` turns any maintenance
// experiment into a serving experiment.
func runServed[P any](results *[]RunResult, served *[]MixedResult, name string, m ivm.Maintainer[P],
	toDelta func(b datasets.Batch) *data.Relation[P], stream []datasets.Batch, opts RunOptions) {
	if opts.Readers > 0 {
		mr := RunMixed(name, m, toDelta, stream, opts)
		*results = append(*results, mr.RunResult)
		*served = append(*served, mr)
		return
	}
	*results = append(*results, RunStream(name, Adapt(m, toDelta), stream, opts))
}

// mixedTable renders the serving-side stats of a mixed-workload run
// alongside the write throughput the readers ran against.
func mixedTable(title string, served []MixedResult) *Table {
	t := &Table{
		Title: title + " — concurrent readers",
		Note:  "lag: age of the freshest snapshot at each reader refresh",
		Header: []string{"strategy", "readers", "reader ops/s", "lookups", "scans",
			"lag p50", "lag p99", "epochs", "write tput"},
	}
	for _, mr := range served {
		t.AddRow(mr.Name, mr.Reader.Readers, fmtTput(mr.Reader.OpsPerSec),
			mr.Reader.Lookups, mr.Reader.Scans,
			fmtDur(mr.Reader.LagP50.Seconds()), fmtDur(mr.Reader.LagP99.Seconds()),
			mr.Reader.FinalEpoch, fmtTputRes(mr.RunResult))
	}
	return t
}
