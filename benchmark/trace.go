package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

// The benchmark stands outside the program, so a span is the benchmark's own
// clock around one call into a layer. The spans of one operation (one batch,
// one read) share its op id. Most of an operation's spans are replays: the
// same input pushed through a smaller part of the stack (the real HTTP round
// trip, then the handler without TCP, then the queue, then db.Apply, then the
// engines alone ...). A replay's parent is the next larger part, so a layer's
// self time is its span minus its children, as for nested spans.

type spanName uint8

const (
	spHTTPApply spanName = iota
	spQueueApply
	spDBApply
	spDBApplyMem
	spDBApplyNoStats
	spIVMApply
	spIVMApplyNoSnap
	spDeltaBuild
	spWALAppend
	spHTTPRead
	spHandlerRead
	spServeRead
	numSpanNames
)

var spanNames = [numSpanNames]string{
	spHTTPApply:      "http.roundtrip.apply",
	spQueueApply:     "queue.apply",
	spDBApply:        "db.apply",
	spDBApplyMem:     "db.apply.in_memory",
	spDBApplyNoStats: "db.apply.no_stats",
	spIVMApply:       "ivm.apply",
	spIVMApplyNoSnap: "ivm.apply.no_snapshots",
	spDeltaBuild:     "data.delta_build",
	spWALAppend:      "wal.append",
	spHTTPRead:       "http.roundtrip.read",
	spHandlerRead:    "handler.read",
	spServeRead:      "serve.read",
}

// spanParent is the onion: each replay's logical parent. db.apply.in_memory
// and db.apply.no_stats are side measurements (the same batch through a DB
// without a WAL, without the statistics collector) and have no place in it.
var spanParent = [numSpanNames]int8{
	spHTTPApply:      -1,
	spQueueApply:     int8(spHTTPApply),
	spDBApply:        int8(spQueueApply),
	spDBApplyMem:     -1,
	spDBApplyNoStats: -1,
	spIVMApply:       int8(spDBApply),
	spIVMApplyNoSnap: int8(spIVMApply),
	spDeltaBuild:     int8(spDBApply),
	spWALAppend:      int8(spDBApply),
	spHTTPRead:       -1,
	spHandlerRead:    int8(spHTTPRead),
	spServeRead:      int8(spHandlerRead),
}

type span struct {
	op         uint32
	name       spanName
	start, end int64 // ns on the tracer's clock
}

// tracer keeps spans in memory; one per recording goroutine, merged at exit.
type tracer struct {
	clock func() time.Duration
	spans []span
}

func newTracer(clock func() time.Duration, capacity int) *tracer {
	return &tracer{clock: clock, spans: make([]span, 0, capacity)}
}

// wallSince is the tracer clock of the serve workloads, whose spans cross
// goroutines.
func wallSince(origin time.Time) func() time.Duration {
	return func() time.Duration { return time.Since(origin) }
}

// record times fn as one span of operation op.
func (t *tracer) record(op uint32, name spanName, fn func()) time.Duration {
	start := t.clock()
	fn()
	end := t.clock()
	t.spans = append(t.spans, span{op: op, name: name, start: int64(start), end: int64(end)})
	return end - start
}

// ledger is the per-span-name summary of a traced pass.
type ledger struct {
	total [numSpanNames]int64 // Σ duration, ns
	count [numSpanNames]int
	durs  [numSpanNames]latencies
}

func buildLedger(tracers ...*tracer) *ledger {
	l := &ledger{}
	for _, t := range tracers {
		for _, s := range t.spans {
			d := s.end - s.start
			l.total[s.name] += d
			l.count[s.name]++
			l.durs[s.name] = append(l.durs[s.name], d)
		}
	}
	return l
}

// self is the span's total minus its children's, over the operations that
// recorded both (children are replayed for every op their parent is).
func (l *ledger) self(name spanName) int64 {
	s := l.total[name]
	for c := spanName(0); c < numSpanNames; c++ {
		if spanParent[c] == int8(name) {
			s -= l.total[c]
		}
	}
	return s
}

func (l *ledger) p50(name spanName) float64 { return l.durs[name].pct(0.5) }

// writeTrace writes the spans as benchmark/out/trace-<workload>.json:
// {"names": [...], "parents": [...], "spans": [[op, name, start_ns, end_ns], ...]}.
func writeTrace(outDir, workload string, tracers ...*tracer) (string, error) {
	type file struct {
		Workload string     `json:"workload"`
		Names    []string   `json:"names"`
		Parents  []int8     `json:"parents"`
		Columns  []string   `json:"columns"`
		Spans    [][4]int64 `json:"spans"`
	}
	f := file{Workload: workload, Names: spanNames[:], Parents: spanParent[:],
		Columns: []string{"op", "name", "start_ns", "end_ns"}}
	for _, t := range tracers {
		for _, s := range t.spans {
			f.Spans = append(f.Spans, [4]int64{int64(s.op), int64(s.name), s.start, s.end})
		}
	}
	path := filepath.Join(outDir, fmt.Sprintf("trace-%s.json", workload))
	b, err := json.Marshal(f)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}

// layerOf assigns each span's self time to the module that spends it.
var layerOf = [numSpanNames]string{
	spHTTPApply:      "netserve",
	spQueueApply:     "db",
	spDBApply:        "db",
	spIVMApply:       "ivm", // snapshot publication: ivm.apply minus ivm.apply.no_snapshots
	spIVMApplyNoSnap: "ivm",
	spDeltaBuild:     "data",
	spWALAppend:      "wal",
	spHTTPRead:       "netserve",
	spHandlerRead:    "netserve",
	spServeRead:      "serve",
}

// reportWritePath turns the ledger of a traced pass's writes into the layer
// metrics every workload has, and reports the ledger itself. Without a WAL
// the real db.apply is the in-memory one.
func reportWritePath(r *result, l *ledger, tuples, batches float64, durable bool) {
	r.set("data.delta_build_ns_per_tuple", float64(l.total[spDeltaBuild])/tuples)
	r.set("ivm.apply_ns_per_tuple", float64(l.total[spIVMApply])/tuples)
	r.set("ivm.publish_ns_per_batch", float64(l.total[spIVMApply]-l.total[spIVMApplyNoSnap])/batches)
	r.set("ivm.share_of_apply", float64(l.total[spIVMApply])/float64(l.total[spDBApply]))
	r.set("db.apply_self_ns_per_tuple", float64(l.self(spDBApply))/tuples)
	withStats := spDBApply
	if durable {
		withStats = spDBApplyMem
		r.set("wal.append_ns_per_tuple", float64(l.total[spWALAppend])/tuples)
		r.set("wal.durable_overhead_share",
			float64(l.total[spDBApply]-l.total[spDBApplyMem])/float64(l.total[spDBApply]))
	}
	r.set("db.stats_ns_per_tuple", float64(l.total[withStats]-l.total[spDBApplyNoStats])/tuples)
	reportLedger(r, l)
}

// reportLedger reports each layer's share of the traced operations' time and
// ledger.coverage: the layers' self times, negative ones taken as zero, over
// the time of the outermost spans. The self times telescope, so the coverage
// is 1 unless a replay took longer than the part of the stack that contains
// it, which is exactly the error an outside-in ledger can make.
func reportLedger(r *result, l *ledger) {
	var roots, covered float64
	busy := map[string]float64{}
	for n := spanName(0); n < numSpanNames; n++ {
		if layerOf[n] == "" || l.count[n] == 0 {
			continue
		}
		if p := spanParent[n]; p < 0 || l.count[p] == 0 {
			roots += float64(l.total[n])
		}
		self := math.Max(float64(l.self(n)), 0)
		busy[layerOf[n]] += self
		covered += self
	}
	if roots == 0 {
		return
	}
	r.set("ledger.coverage", covered/roots)
	if c := covered / roots; c < 0.85 || c > 1.15 {
		r.notes = append(r.notes, fmt.Sprintf("ledger.coverage %.3f is outside [0.85, 1.15]", c))
	}
	for _, layer := range []string{"data", "ivm", "wal", "db", "netserve", "serve"} {
		r.set("ledger.share_"+layer, busy[layer]/covered)
	}
}
