// Package bench is the experiment harness: it drives maintenance strategies
// through synthesized update streams, measures throughput and memory per
// stream fraction, and regenerates every table and figure of the paper's
// evaluation (Section 7 and Appendix C). Each FigXXX function returns
// formatted tables so the CLI and the testing.B benchmarks share one
// implementation.
package bench

import (
	"fmt"
	"math"
	"sort"
	"time"

	"fivm/internal/data"
	"fivm/internal/datasets"
	"fivm/internal/ivm"
)

// Point is one throughput/memory sample at a stream fraction.
type Point struct {
	Fraction   float64
	TuplesSec  float64
	MemBytes   int
	ElapsedSec float64
}

// RunResult summarizes one strategy's run over a stream.
type RunResult struct {
	Name       string
	Points     []Point
	Tuples     int
	Elapsed    time.Duration
	Throughput float64 // tuples/sec over the processed prefix
	Views      int
	PeakMem    int
	TimedOut   bool
	// P50Batch and P99Batch are per-ApplyBatches-call latency percentiles
	// (nearest-rank over every call of the run). Aggregate throughput hides
	// tail behaviour — a parallel engine can raise the mean while stragglers
	// stretch the p99 — so both are reported alongside it.
	P50Batch time.Duration
	P99Batch time.Duration
	// Err is the maintenance error that aborted the run, if any; the stats
	// cover the prefix processed before the failure.
	Err error
}

// Status renders the run's terminal state for summary tables.
func (r RunResult) Status() string {
	switch {
	case r.Err != nil:
		return "error: " + r.Err.Error()
	case r.TimedOut:
		return "timeout"
	default:
		return "ok"
	}
}

// RunOptions configures a stream run.
type RunOptions struct {
	// Samples is the number of evenly spaced measurement points (default 10).
	Samples int
	// Timeout aborts the run (strategy keeps its partial stats); zero means
	// no timeout. The paper uses a one-hour timeout; scaled-down runs use
	// seconds.
	Timeout time.Duration
	// Group is the number of consecutive stream batches handed to the
	// maintainer per ApplyBatches call (default 1). Larger groups exercise
	// the batched ApplyDeltas path: deltas to the same relation coalesce and
	// each maintenance plan runs once per group.
	Group int
}

// Loader abstracts the subset of a maintenance strategy the harness drives.
// ivm.Maintainer[P] satisfies it for every payload type via maintainerAdapter.
type Loader interface {
	// ApplyBatches applies a group of stream batches as one batched update.
	ApplyBatches(bs []datasets.Batch) error
	ViewCount() int
	MemoryBytes() int
}

// maintainerAdapter adapts an ivm.Maintainer[P] plus a payload constructor
// into a Loader, reusing its NamedDelta scratch across calls.
type maintainerAdapter[P any] struct {
	m       ivm.Maintainer[P]
	toDelta func(b datasets.Batch) *data.Relation[P]
	scratch []ivm.NamedDelta[P]
	tuples  map[string][]data.Tuple
	order   []string
}

// ApplyBatches concatenates the group's tuples per relation before building
// deltas, so the maintainer receives at most one delta per relation and its
// coalescing never has to copy. Pre-merging across the group's interleaving
// is exact because the maintained state depends only on the final database.
func (a *maintainerAdapter[P]) ApplyBatches(bs []datasets.Batch) error {
	a.scratch = a.scratch[:0]
	if len(bs) == 1 {
		a.scratch = append(a.scratch, ivm.NamedDelta[P]{Rel: bs[0].Rel, Delta: a.toDelta(bs[0])})
		return a.m.ApplyDeltas(a.scratch)
	}
	if a.tuples == nil {
		a.tuples = make(map[string][]data.Tuple)
	}
	a.order = a.order[:0]
	for _, b := range bs {
		// Accumulated slices are reset to length 0 (keeping capacity) after
		// every call, so an empty slice marks a relation not yet seen in
		// this group.
		ts := a.tuples[b.Rel]
		if len(ts) == 0 && len(b.Tuples) > 0 {
			a.order = append(a.order, b.Rel)
		}
		a.tuples[b.Rel] = append(ts, b.Tuples...)
	}
	for _, rel := range a.order {
		a.scratch = append(a.scratch, ivm.NamedDelta[P]{
			Rel:   rel,
			Delta: a.toDelta(datasets.Batch{Rel: rel, Tuples: a.tuples[rel]}),
		})
		a.tuples[rel] = a.tuples[rel][:0]
	}
	return a.m.ApplyDeltas(a.scratch)
}
func (a *maintainerAdapter[P]) ViewCount() int   { return a.m.ViewCount() }
func (a *maintainerAdapter[P]) MemoryBytes() int { return a.m.MemoryBytes() }

// Adapt wraps a maintainer and a delta builder into a Loader.
func Adapt[P any](m ivm.Maintainer[P], toDelta func(b datasets.Batch) *data.Relation[P]) Loader {
	return &maintainerAdapter[P]{m: m, toDelta: toDelta}
}

// RunStream drives the loader through the stream in groups of opts.Group
// batches, sampling throughput and memory at evenly spaced fractions.
// Maintenance errors abort the run and are reported in RunResult.Err rather
// than panicking, so CLI runs degrade gracefully.
func RunStream(name string, l Loader, stream []datasets.Batch, opts RunOptions) RunResult {
	samples := opts.Samples
	if samples <= 0 {
		samples = 10
	}
	group := opts.Group
	if group <= 0 {
		group = 1
	}
	total := 0
	for _, b := range stream {
		total += len(b.Tuples)
	}
	res := RunResult{Name: name}
	if total == 0 {
		res.Views = l.ViewCount()
		return res
	}

	start := time.Now()
	processed := 0
	nextSample := total / samples
	if nextSample == 0 {
		nextSample = 1
	}
	threshold := nextSample
	lats := make([]time.Duration, 0, (len(stream)+group-1)/group)
	for at := 0; at < len(stream); at += group {
		g := stream[at:min(at+group, len(stream))]
		callStart := time.Now()
		err := l.ApplyBatches(g)
		lats = append(lats, time.Since(callStart))
		if err != nil {
			res.Err = fmt.Errorf("bench: %s: %w", name, err)
			break
		}
		for _, b := range g {
			processed += len(b.Tuples)
		}
		if processed >= threshold || processed == total {
			el := time.Since(start)
			mem := l.MemoryBytes()
			if mem > res.PeakMem {
				res.PeakMem = mem
			}
			res.Points = append(res.Points, Point{
				Fraction:   float64(processed) / float64(total),
				TuplesSec:  float64(processed) / el.Seconds(),
				MemBytes:   mem,
				ElapsedSec: el.Seconds(),
			})
			for threshold <= processed {
				threshold += nextSample
			}
		}
		if opts.Timeout > 0 && time.Since(start) > opts.Timeout {
			res.TimedOut = true
			break
		}
	}
	res.Tuples = processed
	res.Elapsed = time.Since(start)
	if s := res.Elapsed.Seconds(); s > 0 {
		res.Throughput = float64(processed) / s
	}
	res.Views = l.ViewCount()
	if mem := l.MemoryBytes(); mem > res.PeakMem {
		res.PeakMem = mem
	}
	res.P50Batch = percentile(lats, 0.50)
	res.P99Batch = percentile(lats, 0.99)
	return res
}

// percentile returns the nearest-rank q-th percentile of the latencies
// (sorting a copy; the caller's order is preserved).
func percentile(lats []time.Duration, q float64) time.Duration {
	if len(lats) == 0 {
		return 0
	}
	s := make([]time.Duration, len(lats))
	copy(s, lats)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// fmtMem renders bytes with a binary unit.
func fmtMem(b int) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}

// fmtTputRes renders a run's throughput with the harness's standard
// markers: "*" for a timeout, "!" for a run aborted by a maintenance error
// (stats then cover the processed prefix only).
func fmtTputRes(r RunResult) string {
	s := fmtTput(r.Throughput)
	if r.TimedOut {
		s += "*"
	}
	if r.Err != nil {
		s += "!"
	}
	return s
}

// fmtTput renders a throughput figure compactly.
func fmtTput(t float64) string {
	switch {
	case t >= 1e6:
		return fmt.Sprintf("%.2fM/s", t/1e6)
	case t >= 1e3:
		return fmt.Sprintf("%.1fK/s", t/1e3)
	default:
		return fmt.Sprintf("%.1f/s", t)
	}
}

// fmtDur renders seconds compactly.
func fmtDur(s float64) string {
	switch {
	case s >= 1:
		return fmt.Sprintf("%.2fs", s)
	case s >= 1e-3:
		return fmt.Sprintf("%.2fms", s*1e3)
	default:
		return fmt.Sprintf("%.1fµs", s*1e6)
	}
}
