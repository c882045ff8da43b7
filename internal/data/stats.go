package data

import (
	"math"
	"sort"
)

// sketchBits is the bitmap size of a VarSketch. 4096 bits (512 bytes) keeps
// linear counting within a few percent up to ~10k distinct values and
// saturates gracefully beyond — plenty for cardinality *ranking*, which is
// all the optimizer needs.
const sketchBits = 1 << 12

// VarSketch estimates the number of distinct values observed for one column
// by linear (bitmap) counting: each value sets one hash-addressed bit, and
// the distinct count is recovered from the fill fraction. Observing a value
// is one hash and one bit test — cheap enough for hot merge paths — and the
// estimate is monotone (deletions are ignored, as is standard for sketches).
type VarSketch struct {
	bits [sketchBits / 64]uint64
	set  int
}

// Observe records one value.
func (s *VarSketch) Observe(v Value) {
	h := v.Hash() & (sketchBits - 1)
	if s.bits[h>>6]&(1<<(h&63)) == 0 {
		s.bits[h>>6] |= 1 << (h & 63)
		s.set++
	}
}

// Distinct returns the linear-counting estimate of the distinct values
// observed. A saturated bitmap reports m·ln(m), the largest count the
// sketch can distinguish.
func (s *VarSketch) Distinct() float64 {
	m := float64(sketchBits)
	switch {
	case s.set == 0:
		return 0
	case s.set >= sketchBits:
		return m * math.Log(m)
	default:
		return -m * math.Log(1-float64(s.set)/m)
	}
}

// RelStats tracks one relation's statistics: its live cardinality, the
// cumulative number of delta tuples it has received (the update-rate
// signal), and one distinct-count sketch per column. A RelStats is either
// exact — attached to a Relation via CollectStats, which reports every
// insert/delete transition — or approximate, fed whole deltas where each
// entry counts as a net insert.
type RelStats struct {
	Schema Schema
	// Live is the current number of keys with non-zero payloads. Exact when
	// a Relation collects into this; otherwise an upper-bound approximation
	// (deletions encoded as negative-payload delta entries still count +1).
	Live int
	// Inserted is the cumulative number of insert transitions (or observed
	// delta entries, when approximate).
	Inserted int64
	// DeltaTuples is the cumulative number of delta entries routed at this
	// relation — the optimizer's per-relation update-rate signal.
	DeltaTuples int64

	exact    bool
	sketches []VarSketch
}

// NewRelStats creates empty statistics over a schema.
func NewRelStats(schema Schema) *RelStats {
	return &RelStats{Schema: schema, sketches: make([]VarSketch, len(schema))}
}

// Exact reports whether a Relation maintains these statistics transition-
// exactly.
func (rs *RelStats) Exact() bool { return rs.exact }

// ObserveInsert records an insert transition: a key appearing with non-zero
// payload. The tuple's values feed the per-column sketches.
func (rs *RelStats) ObserveInsert(t Tuple) {
	rs.Live++
	rs.Inserted++
	rs.observeValues(t)
}

// ObserveDelete records a delete transition: a key's payload cancelling to
// zero. Sketches are monotone and unaffected.
func (rs *RelStats) ObserveDelete() { rs.Live-- }

// ObserveRouted records one delta tuple passing through a routing path
// (Sharded.Merge): an update-rate event plus sketch observations, without a
// cardinality transition (the destination shard reports that).
func (rs *RelStats) ObserveRouted(t Tuple) {
	rs.DeltaTuples++
	rs.observeValues(t)
}

func (rs *RelStats) observeValues(t Tuple) {
	n := len(rs.sketches)
	for i, v := range t {
		if i >= n {
			break
		}
		rs.sketches[i].Observe(v)
	}
}

// Card returns the estimated current cardinality.
func (rs *RelStats) Card() float64 { return float64(rs.Live) }

// Distinct returns the estimated distinct count of a column, or 0 when the
// column is unknown or nothing was observed.
func (rs *RelStats) Distinct(v string) float64 {
	i := rs.Schema.IndexOf(v)
	if i < 0 || i >= len(rs.sketches) {
		return 0
	}
	return rs.sketches[i].Distinct()
}

// Stats is a database-wide statistics collector: one RelStats per relation.
// It is the optimizer's input — per-relation cardinalities, per-variable
// distinct counts, and observed delta rates — and is maintained incrementally
// by the relations and engines it is attached to. Not safe for concurrent
// mutation; parallel maintainers keep per-shard collectors.
type Stats struct {
	rels map[string]*RelStats
}

// NewStats creates an empty collector.
func NewStats() *Stats { return &Stats{rels: make(map[string]*RelStats)} }

// Rel returns the named relation's statistics, creating them over the given
// schema on first use.
func (st *Stats) Rel(name string, schema Schema) *RelStats {
	if rs, ok := st.rels[name]; ok {
		return rs
	}
	rs := NewRelStats(schema)
	st.rels[name] = rs
	return rs
}

// Lookup returns the named relation's statistics, or nil.
func (st *Stats) Lookup(name string) *RelStats {
	if st == nil {
		return nil
	}
	return st.rels[name]
}

// Relations returns the tracked relation names, sorted.
func (st *Stats) Relations() []string {
	out := make([]string, 0, len(st.rels))
	for name := range st.rels {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// TotalDeltaTuples sums the observed delta tuples across relations.
func (st *Stats) TotalDeltaTuples() int64 {
	if st == nil {
		return 0
	}
	var n int64
	for _, rs := range st.rels {
		n += rs.DeltaTuples
	}
	return n
}

// ObserveRelation bulk-observes a relation's current contents under the
// given name — the ANALYZE path used to seed a collector from loaded data.
func ObserveRelation[P any](st *Stats, name string, r *Relation[P]) {
	rs := st.Rel(name, r.Schema())
	r.Iterate(func(t Tuple, _ P) bool {
		rs.Live++
		rs.Inserted++
		rs.observeValues(t)
		return true
	})
}

// ObserveDeltaRelation records a delta arriving at the named relation: every
// entry counts toward the update rate, and — for relations without an exact
// transition feed — toward cardinality and the sketches too.
func ObserveDeltaRelation[P any](st *Stats, name string, schema Schema, d *Relation[P]) {
	rs := st.Rel(name, schema)
	rs.DeltaTuples += int64(d.Len())
	if rs.exact {
		return
	}
	d.Iterate(func(t Tuple, _ P) bool {
		rs.Live++
		rs.Inserted++
		rs.observeValues(t)
		return true
	})
}

// ObserveDeltaTuples is ObserveDeltaRelation for a raw (uncoalesced) tuple
// slice with a known signed multiplicity — the form the db.DB's shared
// ingest path observes, one pass for every view. Unlike coalesced deltas,
// the sign is visible here, so deletions decrement the cardinality
// approximation instead of inflating it.
func ObserveDeltaTuples(st *Stats, name string, schema Schema, tuples []Tuple, mult int64) {
	rs := st.Rel(name, schema)
	rs.DeltaTuples += int64(len(tuples))
	if rs.exact {
		return
	}
	if mult < 0 {
		rs.Live -= len(tuples)
		if rs.Live < 0 {
			rs.Live = 0
		}
		return
	}
	for _, t := range tuples {
		rs.Live++
		rs.Inserted++
		rs.observeValues(t)
	}
}

// Clone deep-copies the collector, sketches included. Clones start detached
// (not exact): each engine or shard owns and updates its own copy, so one
// ANALYZE pass can seed many concurrently running maintainers.
func (st *Stats) Clone() *Stats {
	if st == nil {
		return nil
	}
	out := NewStats()
	for name, rs := range st.rels {
		c := *rs
		c.exact = false
		c.sketches = append([]VarSketch(nil), rs.sketches...)
		out.rels[name] = &c
	}
	return out
}

// Snapshot captures the per-relation cardinalities and delta-rate shares at
// one instant, the baseline the drift test compares against.
type StatsSnapshot struct {
	Card       map[string]float64
	DeltaShare map[string]float64
}

// Snapshot captures the collector's current state.
func (st *Stats) Snapshot() StatsSnapshot {
	snap := StatsSnapshot{
		Card:       make(map[string]float64, len(st.rels)),
		DeltaShare: make(map[string]float64, len(st.rels)),
	}
	total := float64(st.TotalDeltaTuples())
	for name, rs := range st.rels {
		snap.Card[name] = rs.Card()
		if total > 0 {
			snap.DeltaShare[name] = float64(rs.DeltaTuples) / total
		}
	}
	return snap
}

// DriftFrom compares the current state against a snapshot and returns the
// largest per-relation cardinality growth/shrink factor (always >= 1) and
// the largest absolute shift in delta-rate share (in [0, 1]). The adaptive
// engine re-plans when either exceeds its threshold.
func (st *Stats) DriftFrom(snap StatsSnapshot) (cardFactor, shareDelta float64) {
	cardFactor = 1
	total := float64(st.TotalDeltaTuples())
	for name, rs := range st.rels {
		// Additive smoothing keeps tiny relations from reporting huge
		// factors on their first few tuples.
		now, then := rs.Card()+16, snap.Card[name]+16
		f := now / then
		if f < 1 {
			f = 1 / f
		}
		if f > cardFactor {
			cardFactor = f
		}
		if total > 0 {
			share := float64(rs.DeltaTuples) / total
			if d := math.Abs(share - snap.DeltaShare[name]); d > shareDelta {
				shareDelta = d
			}
		}
	}
	return cardFactor, shareDelta
}
