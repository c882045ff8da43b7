package bench

import (
	"strings"
	"testing"

	"fivm/internal/data"
	"fivm/internal/datasets"
	"fivm/internal/ivm"
	"fivm/internal/ring"
	"fivm/internal/ring/ringtest"
)

func countLiftInt(string, data.Value) int64 { return 1 }

// TestAdaptGroupedMatchesSequential drives the same stream with group sizes
// 1, 3, and 7 (several ApplyDeltas calls each) and demands identical final
// results and the same tuples applied.
func TestAdaptGroupedMatchesSequential(t *testing.T) {
	ds := datasets.GenRetailer(tiny().Retailer)
	stream := datasets.RoundRobinStream(ds, ds.Query.RelNames(), 10)
	if len(stream) < 8 {
		t.Fatalf("stream too short (%d batches) to exercise grouping", len(stream))
	}

	results := map[int]string{}
	tuples := map[int]int{}
	for _, group := range []int{1, 3, 7} {
		var c ringtest.Counter
		r := ringtest.Wrap[int64](ring.Int{}, &c)
		m, err := ivm.New(ds.Query, ds.NewOrder(), r, countLiftInt, ivm.Options[int64]{})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Init(); err != nil {
			t.Fatal(err)
		}
		res := RunStream("group", m, deltaOf(ds.Query, r), &c, stream, group)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		results[group] = m.Result().String()
		tuples[group] = res.Tuples
	}
	for _, group := range []int{3, 7} {
		if results[group] != results[1] {
			t.Errorf("group=%d result diverged:\n  %s\nvs\n  %s", group, results[group], results[1])
		}
		if tuples[group] != tuples[1] {
			t.Errorf("group=%d processed %d tuples, sequential %d", group, tuples[group], tuples[1])
		}
	}
}

// TestRunStreamPropagatesError checks that a maintenance error stops the run
// and surfaces in RunResult, with the tuples applied before it kept.
func TestRunStreamPropagatesError(t *testing.T) {
	ds := datasets.GenRetailer(tiny().Retailer)
	stream := datasets.RoundRobinStream(ds, ds.Query.RelNames(), 10)
	var c ringtest.Counter
	r := ringtest.Wrap[int64](ring.Int{}, &c)
	// Only the first relation of the round robin is updatable: its batch
	// applies, the next one is refused.
	m, err := ivm.New(ds.Query, ds.NewOrder(), r, countLiftInt, ivm.Options[int64]{Updatable: []string{stream[0].Rel}})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Init(); err != nil {
		t.Fatal(err)
	}
	res := RunStream("failing", m, deltaOf(ds.Query, r), &c, stream, 1)
	if res.Err == nil || !strings.Contains(res.Err.Error(), "not updatable") {
		t.Fatalf("Err = %v, want a refused relation", res.Err)
	}
	if res.Tuples != len(stream[0].Tuples) {
		t.Errorf("tuples = %d, want the first batch's %d", res.Tuples, len(stream[0].Tuples))
	}
}
