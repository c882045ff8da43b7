package netserve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"fivm/internal/data"
	"fivm/internal/db"
	"fivm/internal/wal"
)

// TestMain runs the package under data's poison hook (data.PoisonReclaimed):
// a read through a released epoch fails the suite loudly; and under
// poisonHeads: a string of a request read past its handler reads 0xFF bytes.
func TestMain(m *testing.M) {
	data.PoisonReclaimed(true)
	poisonHeads = true
	os.Exit(m.Run())
}

func testCatalog() db.Catalog {
	return db.Catalog{
		"R": data.NewSchema("A", "B"),
		"S": data.NewSchema("A", "C"),
	}
}

// newTestServer returns a primary DB served by netserve on a loopback
// listener plus its ingest queue, all torn down with the test.
func newTestServer(t *testing.T, depth int) (*db.DB, *db.ApplyQueue, *testServer) {
	t.Helper()
	d, err := db.Open(testCatalog(), db.Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := db.NewApplyQueue(d, depth)
	t.Cleanup(func() { q.Close(); d.Close() })
	s, err := New(Config{DB: func() *db.DB { return d }, Queue: q})
	if err != nil {
		t.Fatal(err)
	}
	s.retryAfter = 2 * time.Second // not the constant, so the 429 test sees the hint come from the server
	return d, q, serveLoopback(t, s)
}

// testServer is a Server and where serveLoopback serves it.
type testServer struct {
	s         *Server
	URL, addr string
}

// serveLoopback runs s.Serve, the production path, on a loopback listener
// until the test ends, and checks that Shutdown drains it.
func serveLoopback(t *testing.T, s *Server) *testServer {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- s.Serve(l) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		if err := <-served; !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("Serve returned %v", err)
		}
	})
	return &testServer{s: s, URL: "http://" + l.Addr().String(), addr: l.Addr().String()}
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
	// The base store in the same epoch: R lost one of its two rows, whose
	// entry — key bytes included — waits in the pool; S never deleted anything.
	// No WAL, no checkpoint object.
	bs, _ := m["base_store"].(map[string]any)
	br, _ := bs["R"].(map[string]any)
	bss, _ := bs["S"].(map[string]any)
	if br["tuples"] != float64(1) || br["pool_free"] != float64(1) || br["reclaimed"] != float64(1) ||
		br["recycled_key_bytes"].(float64) <= 0 || br["recycled_tuple_bytes"] != float64(2*32) || br["memory_bytes"].(float64) <= 0 {
		t.Fatalf("stats base_store R after a delete: %v", br)
	}
	if bss["tuples"] != float64(2) || bss["pool_free"] != float64(0) || bss["recycled_key_bytes"] != float64(0) ||
		bss["recycled_tuple_bytes"] != float64(0) {
		t.Fatalf("stats base_store S: %v", bss)
	}
	// How the batch arrived: the one tuple of the last POST was scanned into
	// the request's arena (a cell array, a tuple list, an update), and an
	// in-memory DB ships no frames.
	if in, _ := m["ingest"].(map[string]any); in["arena_bytes"].(float64) < 32 || in["frames_leased"] != float64(0) ||
		in["frames_allocated"] != float64(0) {
		t.Fatalf("stats ingest: %v", m["ingest"])
	}
	if _, ok := m["checkpoint"]; ok {
		t.Fatalf("stats of an in-memory DB report a checkpoint: %v", m["checkpoint"])
	}
	// Every request released its epoch, so the epochs of the later POSTs were
	// built in the structs of the earlier ones.
	if rc, _ := m["recycled"].(map[string]any); rc["reused"].(float64) < 3 || rc["allocated"].(float64) < 3 {
		t.Fatalf("stats recycled: %v", m["recycled"])
	}
	// A batch that arrives over HTTP dies with its request, so no step of any
	// view shares its tuples: step outputs are projected into the plans' tuple
	// slabs and every key a view adopted so far came with a copy of its tuple
	// (sums stores R, S and the result; the four POSTs inserted 2 + 2 + 2 keys
	// that were new to a view), and so did the copy the delete's first touch of
	// published result group 1 took while the pool was empty. A view created
	// now backfills from the base store, copying too; its next batch fills its
	// own plans' slabs.
	if st["scratch_tuple_bytes"].(float64) <= 0 || st["tuples_copied"] != float64(7) {
		t.Fatalf("stats view_stats of sums over volatile batches: %v", st)
	}
	postJSON(t, ts.URL+"/exec",
		map[string]string{"sql": "CREATE VIEW pairs AS SELECT A, C, SUM(B) FROM R NATURAL JOIN S GROUP BY A, C"}, http.StatusOK)
	postJSON(t, ts.URL+"/apply", applyBody("S", 1, []any{2, 30}), http.StatusOK)
	m, _ = getJSON(t, ts.URL+"/stats", http.StatusOK)
	pairs, _ := m["view_stats"].(map[string]any)["pairs"].(map[string]any)
	if pairs["scratch_tuple_bytes"].(float64) <= 0 || pairs["tuples_copied"].(float64) < 1 {
		t.Fatalf("stats view_stats of pairs: %v", pairs)
	}

	// netserve forgets no lease: 200 lookups and scans over 40 writes (more
	// than two publish generations, so every one of them closes) and a
	// one-shot SELECT, then two forced collections and a write to drain what
	// the collector found — no generation may have needed the backstop.
	for i := 0; i < 200; i++ {
		getJSON(t, fmt.Sprintf("%s/view/sums/lookup?key=%d", ts.URL, i%3), http.StatusOK)
		getJSON(t, ts.URL+"/view/sums/scan?limit=2", http.StatusOK)
		if i%5 == 0 {
			postJSON(t, ts.URL+"/apply", applyBody("R", 1, []any{2, i}), http.StatusOK)
		}
	}
	postJSON(t, ts.URL+"/select", map[string]any{"sql": "SELECT A, SUM(B * C) FROM R NATURAL JOIN S GROUP BY A"}, http.StatusOK)
	runtime.GC()
	runtime.GC()
	postJSON(t, ts.URL+"/apply", applyBody("R", 1, []any{2, 1000}), http.StatusOK)
	m, _ = getJSON(t, ts.URL+"/stats", http.StatusOK)
	st, _ = m["view_stats"].(map[string]any)["sums"].(map[string]any)
	if st["backstop_reclaims"] != float64(0) || st["arena_chunks"].(float64) < 1 || st["arena_free"] == nil || st["arena_retired"] == nil {
		t.Fatalf("stats view_stats after 200 reads: %v", st)
	}
	// Payload storage retires with its row: the rows' counters are the only ones.
	if st["rows_retired"] == nil || st["rows_reused"] == nil || st["payloads_reused"] != nil || st["payloads_dropped"] != nil {
		t.Fatalf("stats view_stats row and payload counters: %v", st)
	}
}

// TestServeStatsCheckpoint: a durable DB reports its last checkpoint with the
// epoch published after it, and the server how many heads parseHead took.
func TestServeStatsCheckpoint(t *testing.T) {
	d, err := db.Open(testCatalog(), db.Options{Durability: &db.DurabilityOptions{
		Dir: "wal", FS: wal.NewMemFS(), Fsync: wal.FsyncNever, CheckpointEvery: 2}})
	if err != nil {
		t.Fatal(err)
	}
	q := db.NewApplyQueue(d, 8)
	t.Cleanup(func() { q.Close(); d.Close() })
	s, err := New(Config{DB: func() *db.DB { return d }, Queue: q})
	if err != nil {
		t.Fatal(err)
	}
	ts := serveLoopback(t, s)
	m, _ := getJSON(t, ts.URL+"/stats", http.StatusOK)
	if ck, _ := m["checkpoint"].(map[string]any); ck == nil || ck["writes"] != float64(0) {
		t.Fatalf("stats checkpoint before any: %v", m["checkpoint"])
	}
	for i := 0; i < 3; i++ { // the second batch checkpoints; the third publishes what it wrote
		postJSON(t, ts.URL+"/apply", applyBody("R", 1, []any{i, 2}, []any{i, 3}), http.StatusOK)
	}
	m, _ = getJSON(t, ts.URL+"/stats", http.StatusOK)
	ck, _ := m["checkpoint"].(map[string]any)
	if ck["lsn"] != float64(2) || ck["rows"] != float64(4) || ck["bytes"].(float64) <= 0 || ck["writes"] != float64(1) {
		t.Fatalf("stats checkpoint: %v", ck)
	}
	if ck["duration_ns"].(float64) <= 0 {
		t.Fatalf("checkpoint duration: %v", ck)
	}
	// Every head so far had the common shape; one with another header is
	// left to http.ReadRequest.
	if status, _ := dialRaw(t, ts.addr).do([]byte("GET /healthz HTTP/1.1\r\nHost: x\r\nX-Other: y\r\n\r\n")); status != http.StatusOK {
		t.Fatalf("healthz with another header: %d", status)
	}
	m, _ = getJSON(t, ts.URL+"/stats", http.StatusOK)
	if ns, _ := m["netserve"].(map[string]any); ns["parse_head"] != float64(6) || ns["read_request"] != float64(1) {
		t.Fatalf("stats netserve: %v, want 6 heads parsed and 1 read by http.ReadRequest", m["netserve"])
	}
}

// TestServeApplyRefusesNegativeMultiplicity: a batch the DB refuses because
// it would leave a row below zero is 422, naming the relation and the row.
func TestServeApplyRefusesNegativeMultiplicity(t *testing.T) {
	_, _, ts := newTestServer(t, 8)
	postJSON(t, ts.URL+"/apply", applyBody("R", 1, []any{1, 2}), http.StatusOK)
	m, _ := postJSON(t, ts.URL+"/apply", applyBody("R", -1, []any{1, 2}, []any{4, 5}), http.StatusUnprocessableEntity)
	if msg, _ := m["error"].(string); !strings.Contains(msg, `"R" row (4,5)`) {
		t.Fatalf("refusal: %q, want it to name R and the row", msg)
	}
}

// TestServeWALFailureIsUnavailable: a WAL that fails a write is the server's
// fault, not the batch's. The POST whose append fails and every POST after it
// (the log is poisoned) are 503, /healthz reports the degraded state with the
// failure, and reads are still served.
func TestServeWALFailureIsUnavailable(t *testing.T) {
	ffs := wal.NewFaultFS(wal.NewMemFS())
	d, err := db.Open(testCatalog(), db.Options{Durability: &db.DurabilityOptions{Dir: "wal", FS: ffs, Fsync: wal.FsyncAlways}})
	if err != nil {
		t.Fatal(err)
	}
	q := db.NewApplyQueue(d, 8)
	t.Cleanup(func() { q.Close(); d.Close() })
	s, err := New(Config{DB: func() *db.DB { return d }, Queue: q})
	if err != nil {
		t.Fatal(err)
	}
	ts := serveLoopback(t, s)
	postJSON(t, ts.URL+"/exec", map[string]string{"sql": "CREATE VIEW sums AS SELECT A, SUM(B) FROM R GROUP BY A"}, http.StatusOK)
	postJSON(t, ts.URL+"/apply", applyBody("R", 1, []any{1, 2}), http.StatusOK)
	if m, _ := getJSON(t, ts.URL+"/healthz", http.StatusOK); m["status"] != "ok" || m["wal"] != nil {
		t.Fatalf("healthz of a healthy server: %v", m)
	}
	ffs.CrashAfterBytes(5) // the next append is torn, and the log poisoned
	for i := 0; i < 2; i++ {
		postJSON(t, ts.URL+"/apply", applyBody("R", 1, []any{2, 3}), http.StatusServiceUnavailable)
	}
	m, _ := getJSON(t, ts.URL+"/healthz", http.StatusServiceUnavailable)
	if wf, _ := m["wal"].(string); m["status"] != "degraded" || m["epoch"] == nil || !strings.Contains(wf, wal.ErrInjected.Error()) {
		t.Fatalf("healthz of a server with a poisoned WAL: %v", m)
	}
	if m, _ := getJSON(t, ts.URL+"/view/sums/lookup?key=1", http.StatusOK); m["value"] != float64(2) {
		t.Fatalf("lookup with a poisoned WAL: %v", m)
	}
}

// TestServeClosesUnfinishedHeaders: a client that never finishes its request
// headers is disconnected when the header timeout runs out, instead of
// holding a connection (and its goroutine) for as long as it likes.
func TestServeClosesUnfinishedHeaders(t *testing.T) {
	d, err := db.Open(testCatalog(), db.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	s, err := New(Config{DB: func() *db.DB { return d }})
	if err != nil {
		t.Fatal(err)
	}
	if s.readHeaderTimeout != readHeaderTimeout || s.idleTimeout != idleTimeout || readHeaderTimeout <= 0 || idleTimeout <= 0 {
		t.Fatalf("server timeouts: header %v, idle %v", s.readHeaderTimeout, s.idleTimeout)
	}
	s.readHeaderTimeout = 50 * time.Millisecond // the constant is seconds: too long for a test to wait out
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- s.Serve(l) }()
	defer func() {
		s.Shutdown(context.Background())
		<-served
	}()
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /healthz HTTP/1.1\r\nHost: x\r\nX-Slow: ")); err != nil {
		t.Fatal(err)
	}
	// The deadline only bounds a hang: the outcome is the server's close.
	conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	rest, err := io.ReadAll(conn)
	if err != nil {
		t.Fatalf("the server kept a connection whose headers never completed: %v", err)
	}
	if bytes.Contains(rest, []byte("200 OK")) {
		t.Fatalf("an unfinished request was answered: %q", rest)
	}
}

// A body over the limit is 413, not a truncated-JSON 400; bytes after the one
// JSON value are rejected.
func TestServeBodyLimits(t *testing.T) {
	_, _, ts := newTestServer(t, 8)
	post := func(body string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+"/apply", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}
	apply := `{"updates":[{"rel":"R","mult":1,"tuples":[[1,2]]}]}`
	if got := post(apply + " \n"); got != http.StatusOK {
		t.Fatalf("trailing white space: status %d", got)
	}
	for _, tail := range []string{"x", "{}", " 1", `{"updates":[]}`} {
		if got := post(apply + tail); got != http.StatusBadRequest {
			t.Fatalf("trailing %q: status %d, want 400", tail, got)
		}
	}
	big := `{"updates":[{"rel":"R","mult":1,"tuples":[` + strings.Repeat("[1,2],", 33<<20/6) + `[1,2]]}]}`
	if got := post(big); got != http.StatusRequestEntityTooLarge {
		t.Fatalf("33 MiB body: status %d, want 413", got)
	}
	if got := post(strings.Repeat(" ", 33<<20) + apply); got != http.StatusRequestEntityTooLarge {
		t.Fatalf("33 MiB of leading space: status %d, want 413", got)
	}
}

// applyTupleOracle is the decoder POST /apply had before wireTuples: the
// tuples as [][]any with UseNumber, then one value at a time.
func applyTupleOracle(body []byte) ([]data.Tuple, error) {
	var tuples [][]any
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	if err := dec.Decode(&tuples); err != nil {
		return nil, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, errors.New("trailing data")
	}
	out := make([]data.Tuple, 0, len(tuples))
	for _, vals := range tuples {
		t := make(data.Tuple, 0, len(vals))
		for _, v := range vals {
			switch x := v.(type) {
			case json.Number:
				if n, err := strconv.ParseInt(x.String(), 10, 64); err == nil {
					t = append(t, data.Int(n))
				} else if f, err := x.Float64(); err == nil {
					t = append(t, data.Float(f))
				} else {
					return nil, fmt.Errorf("bad number %q: %w", x.String(), err)
				}
			case string:
				t = append(t, data.String(x))
			default:
				return nil, fmt.Errorf("unsupported key value %T (want number or string)", v)
			}
		}
		out = append(out, t)
	}
	return out, nil
}

// FuzzApplyTupleJSON: the scan of a "tuples" member's value — null, or an
// array scanned into the arena — accepts exactly what the []any path accepted
// and builds the same, exactly-sized tuples. FuzzApplyBody holds the whole
// request decoder to the decoder it replaced.
func FuzzApplyTupleJSON(f *testing.F) {
	for _, seed := range []string{
		`[[1,2],[3,4]]`, `[]`, `null`, `[null]`, `[[]]`, ` [ [ 1 , "a" ] , [ -2.5e3 , "\u00e9\"\\" ] ] `,
		`[[9223372036854775807,9223372036854775808,-0,1e999,0.1]]`, `[[1,null]]`, `[[1,{"a":[1]}]]`, `[[[1]]]`,
		`[[true]]`, `[5]`, `5`, `"x"`, `{"a":1}`, `[["[",",","]"]]`, `[["\ud800"]]`, "[[\"\xff\"]]", `[[1,2]`, `[[1 2]]`,
	} {
		f.Add([]byte(seed))
	}
	st := new(applyState)
	f.Fuzz(func(t *testing.T, body []byte) {
		want, wantErr := applyTupleOracle(body)
		defer st.reset()
		st.s = jsonScan{b: body}
		var got []data.Tuple
		if !st.s.lit("null") {
			got = st.tuples()
		}
		if st.s.ws(); st.s.i < len(body) {
			st.s.fail("nothing after the value")
		}
		gotErr := st.s.err
		if errors.Is(gotErr, errTooManyTuples) || errors.Is(gotErr, errStringTooLong) {
			t.Skip("over a limit the oracle does not have")
		}
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%q: tuple scan error %v, oracle error %v", body, gotErr, wantErr)
		}
		if gotErr != nil {
			return
		}
		if len(got) != len(want) {
			t.Fatalf("%q: %d tuples, oracle %d", body, len(got), len(want))
		}
		for i := range want {
			if len(got[i]) != len(want[i]) || cap(got[i]) != len(got[i]) {
				t.Fatalf("%q: tuple %d is %v (cap %d), oracle %v", body, i, got[i], cap(got[i]), want[i])
			}
			for j := range want[i] {
				if got[i][j] != want[i][j] {
					t.Fatalf("%q: tuple %d value %d is %#v, oracle %#v", body, i, j, got[i][j], want[i][j])
				}
			}
		}
	})
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
	t.Cleanup(func() { d.Close() })
	if err := d.Apply([]db.Update{db.Insert("R", data.Tuple{data.Int(1), data.Int(7)})}); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{DB: func() *db.DB { return d }})
	if err != nil {
		t.Fatal(err)
	}
	ts := serveLoopback(t, s)

	postJSON(t, ts.URL+"/apply", applyBody("R", 1, []any{2, 2}), http.StatusForbidden)
	postJSON(t, ts.URL+"/exec", map[string]string{"sql": "DROP VIEW x"}, http.StatusForbidden)
	postJSON(t, ts.URL+"/select", map[string]any{"sql": "SELECT A, SUM(B) FROM R GROUP BY A"}, http.StatusForbidden)
	m, _ := getJSON(t, ts.URL+"/stats", http.StatusOK)
	if m["applied"].(float64) != 1 {
		t.Fatalf("stats on read-only: %v", m)
	}
}

// Serve over a real listener exercises the connection's reader reuse and the
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
