package netserve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"fivm/internal/data"
	"fivm/internal/db"
)

func testCatalog() db.Catalog {
	return db.Catalog{
		"R": data.NewSchema("A", "B"),
		"S": data.NewSchema("A", "C"),
	}
}

// newTestServer returns a primary DB behind a netserve handler plus its
// ingest queue, all torn down with the test.
func newTestServer(t *testing.T, depth int) (*db.DB, *db.ApplyQueue, *httptest.Server) {
	t.Helper()
	d, err := db.Open(testCatalog(), db.Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := db.NewApplyQueue(d, depth)
	s, err := New(Config{DB: func() *db.DB { return d }, Queue: q, RetryAfter: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); q.Close(); d.Close() })
	return d, q, ts
}

func getJSON(t *testing.T, url string, wantStatus int) (map[string]any, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m, resp.Header
}

func postJSON(t *testing.T, url string, body any, wantStatus int) (map[string]any, http.Header) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m, resp.Header
}

func applyBody(rel string, mult int64, tuples ...[]any) map[string]any {
	return map[string]any{"updates": []map[string]any{
		{"rel": rel, "mult": mult, "tuples": tuples},
	}}
}

func TestServeLookupScanHeaders(t *testing.T) {
	_, _, ts := newTestServer(t, 8)

	if m, _ := postJSON(t, ts.URL+"/exec",
		map[string]string{"sql": "CREATE VIEW sums AS SELECT A, SUM(B * C) FROM R NATURAL JOIN S GROUP BY A"},
		http.StatusOK); m["status"] != "created view sums" {
		t.Fatalf("exec: %v", m)
	}
	postJSON(t, ts.URL+"/apply", applyBody("R", 1, []any{1, 2}, []any{2, 3}), http.StatusOK)
	m, h := postJSON(t, ts.URL+"/apply", applyBody("S", 1, []any{1, 10}, []any{2, 20}), http.StatusOK)
	if m["applied"].(float64) != 2 {
		t.Fatalf("applied: %v", m)
	}
	if h.Get("X-Fivm-Epoch") == "" || h.Get("X-Fivm-Applied") != "2" {
		t.Fatalf("write headers: %v", h)
	}

	// Point lookup: A=1 → SUM(B*C) = 2*10 = 20.
	m, h = getJSON(t, ts.URL+"/view/sums/lookup?key=1", http.StatusOK)
	if m["found"] != true || m["value"].(float64) != 20 {
		t.Fatalf("lookup: %v", m)
	}
	if h.Get("X-Fivm-Epoch") == "" || h.Get("X-Fivm-Lag") == "" {
		t.Fatalf("read headers missing: %v", h)
	}
	if _, err := time.ParseDuration(h.Get("X-Fivm-Lag")); err != nil {
		t.Fatalf("X-Fivm-Lag not a duration: %v", err)
	}
	m, _ = getJSON(t, ts.URL+"/view/sums/lookup?key=99", http.StatusOK)
	if m["found"] != false {
		t.Fatalf("missing key found: %v", m)
	}

	// Whole-view scan, then limited scan with truncation.
	m, _ = getJSON(t, ts.URL+"/view/sums/scan", http.StatusOK)
	if m["count"].(float64) != 2 || m["truncated"] != false {
		t.Fatalf("scan: %v", m)
	}
	m, _ = getJSON(t, ts.URL+"/view/sums/scan?limit=1", http.StatusOK)
	if m["count"].(float64) != 1 || m["truncated"] != true {
		t.Fatalf("limited scan: %v", m)
	}
	// Prefix scan pins A=2.
	m, _ = getJSON(t, ts.URL+"/view/sums/scan?key=2", http.StatusOK)
	if m["count"].(float64) != 1 {
		t.Fatalf("prefix scan: %v", m)
	}
	rows := m["rows"].([]any)
	r0 := rows[0].(map[string]any)
	if r0["value"].(float64) != 60 { // 3*20
		t.Fatalf("prefix row: %v", r0)
	}

	getJSON(t, ts.URL+"/view/nosuch/lookup?key=1", http.StatusNotFound)
	getJSON(t, ts.URL+"/view/sums/lookup?key=i:notanint", http.StatusBadRequest)

	// Publish work per view: the R batch changed no result key (S was empty),
	// the S batch patched groups 1 and 2 into the result snapshot.
	m, _ = getJSON(t, ts.URL+"/stats", http.StatusOK)
	st, _ := m["view_stats"].(map[string]any)["sums"].(map[string]any)
	if st["published_keys"] != float64(2) || st["views_materialized"].(float64) < 1 {
		t.Fatalf("stats view_stats: %v", m["view_stats"])
	}
	// Retained storage: deleting R(1,2) cancels result group 1 (and a key of
	// every stored view under it), which goes to the pool; the view's scratch
	// relations hold key slabs by now.
	postJSON(t, ts.URL+"/apply", applyBody("R", -1, []any{1, 2}), http.StatusOK)
	m, _ = getJSON(t, ts.URL+"/stats", http.StatusOK)
	st, _ = m["view_stats"].(map[string]any)["sums"].(map[string]any)
	if st["pool_free"].(float64) < 1 || st["reclaimed"].(float64) < 1 || st["scratch_key_bytes"].(float64) <= 0 {
		t.Fatalf("stats view_stats after a delete: %v", st)
	}
}

func TestServeMinEpoch(t *testing.T) {
	_, _, ts := newTestServer(t, 8)
	postJSON(t, ts.URL+"/apply", applyBody("R", 1, []any{1, 1}), http.StatusOK)

	m, _ := getJSON(t, ts.URL+"/stats?min_epoch=1", http.StatusOK)
	cur := uint64(m["epoch"].(float64))
	getJSON(t, fmt.Sprintf("%s/stats?min_epoch=%d", ts.URL, cur), http.StatusOK)
	getJSON(t, fmt.Sprintf("%s/stats?min_epoch=%d", ts.URL, cur+5), http.StatusPreconditionFailed)
}

func TestServeSelectOneShot(t *testing.T) {
	d, _, ts := newTestServer(t, 8)
	postJSON(t, ts.URL+"/apply", applyBody("R", 1, []any{1, 2}, []any{2, 3}), http.StatusOK)
	postJSON(t, ts.URL+"/apply", applyBody("S", 1, []any{1, 10}), http.StatusOK)

	m, _ := postJSON(t, ts.URL+"/select",
		map[string]any{"sql": "SELECT A, SUM(B * C) FROM R NATURAL JOIN S GROUP BY A"},
		http.StatusOK)
	if m["count"].(float64) != 1 {
		t.Fatalf("select: %v", m)
	}
	r0 := m["rows"].([]any)[0].(map[string]any)
	if r0["value"].(float64) != 20 {
		t.Fatalf("select row: %v", r0)
	}
	// The temporary view is gone.
	for _, v := range d.Views() {
		if strings.HasPrefix(v, "__select_") {
			t.Fatalf("temp view leaked: %v", d.Views())
		}
	}
	// Non-SELECT text through /select is rejected.
	postJSON(t, ts.URL+"/select", map[string]any{"sql": "CREATE VIEW x AS SELECT A, SUM(B) FROM R GROUP BY A"},
		http.StatusUnprocessableEntity)
}

// A full ingest queue turns into 429 + Retry-After instead of blocking.
func TestServeApplyBackpressure(t *testing.T) {
	_, q, ts := newTestServer(t, 1)

	release := make(chan struct{})
	started := make(chan struct{})
	stallDone := make(chan error, 1)
	go func() {
		stallDone <- q.Do(func(*db.DB) error {
			close(started)
			<-release
			return nil
		})
	}()
	<-started
	fillDone := make(chan error, 1)
	go func() { fillDone <- q.TryApply([]db.Update{db.Insert("R", data.Tuple{data.Int(1), data.Int(1)})}) }()
	for q.Len() < q.Cap() {
		time.Sleep(time.Millisecond)
	}

	m, h := postJSON(t, ts.URL+"/apply", applyBody("R", 1, []any{2, 2}), http.StatusTooManyRequests)
	if h.Get("Retry-After") != "2" {
		t.Fatalf("Retry-After %q, want 2 (headers %v, body %v)", h.Get("Retry-After"), h, m)
	}
	close(release)
	if err := <-stallDone; err != nil {
		t.Fatal(err)
	}
	if err := <-fillDone; err != nil {
		t.Fatal(err)
	}
}

// A server without an ingest queue (the follower shape) is read-only.
func TestServeReadOnly(t *testing.T) {
	d, err := db.Open(testCatalog(), db.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Apply([]db.Update{db.Insert("R", data.Tuple{data.Int(1), data.Int(7)})}); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{DB: func() *db.DB { return d }})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	postJSON(t, ts.URL+"/apply", applyBody("R", 1, []any{2, 2}), http.StatusForbidden)
	postJSON(t, ts.URL+"/exec", map[string]string{"sql": "DROP VIEW x"}, http.StatusForbidden)
	postJSON(t, ts.URL+"/select", map[string]any{"sql": "SELECT A, SUM(B) FROM R GROUP BY A"}, http.StatusForbidden)
	m, _ := getJSON(t, ts.URL+"/stats", http.StatusOK)
	if m["applied"].(float64) != 1 {
		t.Fatalf("stats on read-only: %v", m)
	}
}

// Serve over a real listener exercises ConnContext reader reuse and the
// graceful Shutdown path.
func TestServeRealListenerAndShutdown(t *testing.T) {
	d, err := db.Open(testCatalog(), db.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	q := db.NewApplyQueue(d, 8)
	defer q.Close()
	s, err := New(Config{DB: func() *db.DB { return d }, Queue: q})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(l) }()
	base := "http://" + l.Addr().String()

	postJSON(t, base+"/exec", map[string]string{"sql": "CREATE VIEW sums AS SELECT A, SUM(B * C) FROM R NATURAL JOIN S GROUP BY A"}, http.StatusOK)
	postJSON(t, base+"/apply", applyBody("R", 1, []any{1, 2}), http.StatusOK)
	postJSON(t, base+"/apply", applyBody("S", 1, []any{1, 5}), http.StatusOK)

	// Several lookups on one keep-alive connection share the pinned reader.
	client := &http.Client{}
	for i := 0; i < 5; i++ {
		resp, err := client.Get(base + "/view/sums/lookup?key=1")
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if m["value"].(float64) != 10 {
			t.Fatalf("lookup %d: %v", i, m)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := <-serveDone; !errors.Is(err, http.ErrServerClosed) {
		t.Fatalf("Serve returned %v", err)
	}
}
