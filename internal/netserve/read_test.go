package netserve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"fivm/internal/data"
	"fivm/internal/db"
)

// getBody returns the status and the raw body of a GET.
func getBody(t *testing.T, target string) (int, string) {
	t.Helper()
	resp, err := http.Get(target)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// TestServeNonFinitePayload: a SUM driven to +Inf through POST /apply reads
// back as "value":null on /lookup, /scan and /select — it was a 200 with no
// body, encoding/json's UnsupportedValueError dropped after the header went.
func TestServeNonFinitePayload(t *testing.T) {
	_, _, ts := newTestServer(t, 8)
	const sql = "SELECT A, SUM(B * C) FROM R NATURAL JOIN S GROUP BY A"
	postJSON(t, ts.URL+"/exec", map[string]string{"sql": "CREATE VIEW sums AS " + sql}, http.StatusOK)
	postJSON(t, ts.URL+"/apply", applyBody("R", 1, []any{1, 1e308}, []any{2, 3}), http.StatusOK)
	postJSON(t, ts.URL+"/apply", applyBody("S", 1, []any{1, 1e308}, []any{2, 0.5}), http.StatusOK)

	if status, body := getBody(t, ts.URL+"/view/sums/lookup?key=1"); status != http.StatusOK ||
		body != `{"found":true,"key":[1],"value":null,"view":"sums"}`+"\n" {
		t.Fatalf("lookup of an overflowed sum: %d %q", status, body)
	}
	const rows = `"rows":[{"key":[1],"value":null},{"key":[2],"value":1.5}],"truncated":false`
	if status, body := getBody(t, ts.URL+"/view/sums/scan"); status != http.StatusOK ||
		body != `{"count":2,"prefix":[],`+rows+`,"view":"sums"}`+"\n" {
		t.Fatalf("scan over an overflowed sum: %d %q", status, body)
	}
	resp, err := http.Post(ts.URL+"/select", "application/json", strings.NewReader(`{"sql":"`+sql+`"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if body, _ := io.ReadAll(resp.Body); resp.StatusCode != http.StatusOK || string(body) != `{"count":2,`+rows+"}\n" {
		t.Fatalf("select over an overflowed sum: %d %q", resp.StatusCode, body)
	}
}

// TestServeKeyArityAndNames: the wrong number of keys is a 400 naming the
// view's key columns (it was a silent miss), and keys may be given by column
// name in any order.
func TestServeKeyArityAndNames(t *testing.T) {
	_, _, ts := newTestServer(t, 8)
	postJSON(t, ts.URL+"/exec",
		map[string]string{"sql": "CREATE VIEW pairs AS SELECT A, C, SUM(B) FROM R NATURAL JOIN S GROUP BY A, C"}, http.StatusOK)
	postJSON(t, ts.URL+"/apply", applyBody("R", 1, []any{1, 2}, []any{2, 3}), http.StatusOK)
	postJSON(t, ts.URL+"/apply", applyBody("S", 1, []any{1, 10}, []any{1, 11}, []any{2, 20}), http.StatusOK)
	m, _ := getJSON(t, ts.URL+"/view/pairs/scan", http.StatusOK)
	first := m["rows"].([]any)[0].(map[string]any)["key"].([]any)
	// The planner picks the variable order; the test reads it off the rows.
	cols := []string{"A", "C"}
	vals := map[string]int{"A": 1, "C": 10}
	if first[0] != float64(1) {
		cols = []string{"C", "A"}
	}
	byPos := fmt.Sprintf("key=%d&key=%d", vals[cols[0]], vals[cols[1]])
	want, _ := getJSON(t, ts.URL+"/view/pairs/lookup?"+byPos, http.StatusOK)
	if want["found"] != true || want["value"] != float64(2) {
		t.Fatalf("positional lookup: %v", want)
	}
	for _, query := range []string{"A=1&C=10", "C=10&A=1", "C=i:10&min_epoch=1&A=1&pretty=1"} {
		got, _ := getJSON(t, ts.URL+"/view/pairs/lookup?"+query, http.StatusOK)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("lookup ?%s: %v, by position %v", query, got, want)
		}
	}
	m, _ = getJSON(t, fmt.Sprintf("%s/view/pairs/scan?%s=%d", ts.URL, cols[0], vals[cols[0]]), http.StatusOK)
	if wantRows := map[string]float64{"A": 2, "C": 1}[cols[0]]; m["count"] != wantRows {
		t.Fatalf("scan by the name of the first column: %v", m)
	}
	named := "(" + strings.Join(cols, ", ") + ")"
	for _, bad := range []string{
		"lookup?key=1", "lookup", "lookup?key=1&key=10&key=3", "scan?key=1&key=10&key=3", // arity
		"lookup?A=1", "lookup?A=1&C=10&A=1", "lookup?key=1&C=10", "lookup?key=1&key=10&A=1", // names
		"scan?" + cols[1] + "=1", "scan?A=1&A=1", "lookup?A=1&C=i:x",
	} {
		m, _ := getJSON(t, ts.URL+"/view/pairs/"+bad, http.StatusBadRequest)
		if msg, _ := m["error"].(string); !strings.Contains(msg, named) && !strings.Contains(msg, "bad int key") {
			t.Fatalf("%s: error %q does not name the key columns %s", bad, msg, named)
		}
	}
}

// TestServeConcurrentReadsShareHeaders: readers on several connections while a
// writer publishes share the pooled request states and the cached epoch
// header values; every /stats answer's headers name the epoch its body does.
func TestServeConcurrentReadsShareHeaders(t *testing.T) {
	_, _, ts := newTestServer(t, 8)
	postJSON(t, ts.URL+"/exec", map[string]string{"sql": "CREATE VIEW sums AS SELECT A, SUM(B) FROM R GROUP BY A"}, http.StatusOK)
	postJSON(t, ts.URL+"/apply", applyBody("R", 1, []any{1, 2}), http.StatusOK)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				for _, path := range []string{"/stats", "/view/sums/lookup?A=1", "/view/sums/scan"} {
					resp, err := http.Get(ts.URL + path)
					if err != nil {
						t.Error(err)
						return
					}
					var m map[string]any
					err = json.NewDecoder(resp.Body).Decode(&m)
					resp.Body.Close()
					if err != nil || resp.StatusCode != http.StatusOK {
						t.Errorf("GET %s: status %d, body error %v", path, resp.StatusCode, err)
						return
					}
					if h := resp.Header; path == "/stats" && (h.Get("X-Fivm-Epoch") != fmt.Sprint(m["epoch"]) || h.Get("X-Fivm-Applied") != fmt.Sprint(m["applied"])) {
						t.Errorf("stats of epoch %v (applied %v) under headers %v", m["epoch"], m["applied"], h)
						return
					}
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		postJSON(t, ts.URL+"/apply", applyBody("R", 1, []any{1, i}), http.StatusOK)
	}
	wg.Wait()
}

// TestAllocGuardRead: a lookup and a scan through Server.Handler() with a
// reused request (its context carrying the connection's readers) and a reused
// recorder. What is left is the X-Fivm-Lag string and its one-element slice —
// nothing per key, per row or per byte of the reply.
func TestAllocGuardRead(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc guards run in the non-race pass")
	}
	d, err := db.Open(testCatalog(), db.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.Exec("CREATE VIEW pairs AS SELECT A, C, SUM(B) FROM R NATURAL JOIN S GROUP BY A, C"); err != nil {
		t.Fatal(err)
	}
	var dims []data.Tuple
	for c := 0; c < 300; c++ {
		dims = append(dims, data.Ints(int64(1+c%2), int64(c)))
	}
	if err := d.Apply([]db.Update{db.Insert("R", data.Ints(1, 5), data.Ints(2, 7)), db.Insert("S", dims...)}); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{DB: func() *db.DB { return d }})
	if err != nil {
		t.Fatal(err)
	}
	// The planner chose the key order; a positional key follows it.
	e := d.Epoch()
	order := db.SnapshotOf[float64](e, "pairs").Result().Schema()
	e.Release()
	col := map[string]int{"A": 2, "C": 7}
	ctx := context.WithValue(context.Background(), readersKey{}, &connReaders{})
	rec := &bodyRecorder{reusedRecorder: reusedRecorder{h: http.Header{}}}
	allocs := func(target, want string) float64 {
		t.Helper()
		req := httptest.NewRequest("GET", target, nil).WithContext(ctx)
		n := testing.AllocsPerRun(200, func() {
			rec.status, rec.body = 0, rec.body[:0]
			s.Handler().ServeHTTP(rec, req)
		})
		if rec.status != http.StatusOK || !bytes.Contains(rec.body, []byte(want)) {
			t.Fatalf("GET %s: status %d, body %.80q", target, rec.status, rec.body)
		}
		return n
	}
	lookup := allocs(fmt.Sprintf("/view/pairs/lookup?key=%d&key=%d", col[order[0]], col[order[1]]), `"found":true`)
	byName := allocs("/view/pairs/lookup?C=7&A=2", `"found":true`)
	scan60 := allocs("/view/pairs/scan?limit=60", `{"count":60,`)
	scan240 := allocs("/view/pairs/scan?limit=240", `{"count":240,`)
	prefix := allocs(fmt.Sprintf("/view/pairs/scan?%s=%d", order[0], col[order[0]]), `"truncated":false`)
	t.Logf("objects per request: lookup %.0f (by name %.0f), scan of 60 rows %.0f, of 240 rows %.0f, of a prefix %.0f",
		lookup, byName, scan60, scan240, prefix)
	if max(lookup, byName, scan60, prefix) > 3 || scan240 > scan60 {
		t.Errorf("a request allocates more than 3 objects, or a scan more for more rows")
	}
}

// bodyRecorder is a reusedRecorder that keeps the body too.
type bodyRecorder struct {
	reusedRecorder
	body []byte
}

func (r *bodyRecorder) Write(b []byte) (int, error) {
	r.body = append(r.body, b...)
	return len(b), nil
}

// FuzzReadQuery: for any raw query string the one-pass parser finds the key
// values, the first min_epoch and the first limit url.ParseQuery finds (bad
// pairs dropped, as URL.Query() drops them), and every other pair in order.
func FuzzReadQuery(f *testing.F) {
	for _, seed := range []string{
		"", "key=1&key=2", "key=3&min_epoch=7&limit=2", "&&key=1&", "key=1;key=2&key=3", "key", "key=", "=1", "key=a=b",
		"key=%31&k%65y=2", "key=%zz&key=4", "%zz=1&key=5", "key=a+b", "key=%", "limit=&limit=3", "min_epoch=1&min_epoch=2",
		"key=i:7&key=f:1.5&key=s:x", "key=i:x&key=f:y", "locn=3&dateid=7", "a=1&a=2&b=%3d", "key=1&key=2&key=3&key=4&key=5&key=6&key=7&key=8&key=9",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		want, _ := url.ParseQuery(raw)
		q := new(readState).reset()
		q.parse(raw)
		if q.minEpoch != want.Get("min_epoch") || q.limit != want.Get("limit") {
			t.Fatalf("%q: min_epoch %q, limit %q; url.ParseQuery %q, %q", raw, q.minEpoch, q.limit, want.Get("min_epoch"), want.Get("limit"))
		}
		var wantErr error
		for i, k := range want["key"] {
			v, err := parseValue(k)
			if wantErr == nil {
				wantErr = err
			}
			if i >= len(q.key) || q.key[i] != v {
				t.Fatalf("%q: keys %v, url.ParseQuery %q", raw, q.key, want["key"])
			}
		}
		if len(q.key) != len(want["key"]) || fmt.Sprint(q.keyErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%q: keys %v (error %v), url.ParseQuery %q (error %v)", raw, q.key, q.keyErr, want["key"], wantErr)
		}
		seen := map[string]int{}
		for _, p := range q.named {
			if vs := want[p.name]; seen[p.name] >= len(vs) || vs[seen[p.name]] != p.value {
				t.Fatalf("%q: pair %d of %q is %q, url.ParseQuery %q", raw, seen[p.name], p.name, p.value, vs)
			}
			seen[p.name]++
		}
		delete(want, "key")
		delete(want, "min_epoch")
		delete(want, "limit")
		for name, vs := range want {
			if seen[name] != len(vs) {
				t.Fatalf("%q: %d pairs named %q, url.ParseQuery %d", raw, seen[name], name, len(vs))
			}
		}
	})
}

// replyOracle is how the replies were built before they were appended: maps,
// rows and boxed values through encoding/json. It returns a lookup's body, a
// scan's and a SELECT's, the last two of n rows.
func replyOracle(view string, key data.Tuple, p any, flag bool, n int) [3][]byte {
	jsonTuple := func(t data.Tuple) []any {
		out := make([]any, len(t))
		for i, v := range t {
			switch v.Kind() {
			case data.KindInt:
				out[i] = v.AsInt()
			case data.KindFloat:
				out[i] = v.AsFloat()
			default:
				out[i] = v.AsString()
			}
		}
		return out
	}
	type row struct {
		Key   []any `json:"key"`
		Value any   `json:"value"`
	}
	rows := []row{}
	for i := 0; i < n; i++ {
		rows = append(rows, row{Key: jsonTuple(key), Value: p})
	}
	var out [3][]byte
	for i, v := range []map[string]any{
		{"view": view, "key": jsonTuple(key), "found": flag, "value": p},
		{"view": view, "prefix": jsonTuple(key), "rows": rows, "count": len(rows), "truncated": flag},
		{"rows": rows, "count": len(rows), "truncated": flag},
	} {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(v); err != nil {
			panic(err)
		}
		out[i] = buf.Bytes()
	}
	return out
}

// checkReplies builds the three replies the way the handlers do — a lookup,
// and n row visits (one more when flag: past the limit) around rowsBody — and
// compares them with the oracle's.
func checkReplies[P any](t *testing.T, view string, key data.Tuple, p P, flag bool, n int, appendP func([]byte, P) []byte) {
	t.Helper()
	for j, want := range replyOracle(view, key, p, flag, n) {
		q := new(readState).reset()
		q.key = append(q.key, key...)
		if j == 0 {
			lookupBody(q, view, p, flag, appendP)
		} else {
			v := visit(q, n, appendP)
			for i := 0; i < n; i++ {
				v(key, p)
			}
			if flag && v(key, p) {
				t.Fatalf("row %d of %d was accepted", n+1, n)
			}
			q.rowsBody(view, j == 1)
		}
		if !bytes.Equal(q.buf, want) {
			t.Fatalf("reply %d with payload %v:\n got %q\nwant %q", j, p, q.buf, want)
		}
	}
}

// FuzzReplyEncoding: for any tuple of int, float and string values and any
// finite payload, the appended lookup, scan and SELECT bodies are byte for
// byte encoding/json's for the maps they replaced.
func FuzzReplyEncoding(f *testing.F) {
	f.Add("sums", int64(3), 1.5, "x", 20.0, int64(7), true, uint8(2))
	f.Add("a<b>&\"c\\", int64(math.MinInt64), math.Copysign(0, -1), "\u2028\u2029\x00\x1f\x7f\b\f\n\r\t\v", 1e-7, int64(-1), false, uint8(0))
	f.Add("\xff\xc0\xafé", int64(0), 1e21, "\xed\xa0\x80é\xe2\x80", 5e-324, int64(math.MaxInt64), true, uint8(1))
	f.Add("", int64(1), 1e-6, "</script>", 123456789012345678901.0, int64(0), false, uint8(3))
	f.Add("v", int64(9), 1e20, "日本語", -2.2250738585072014e-308, int64(5), true, uint8(1))
	f.Fuzz(func(t *testing.T, view string, i int64, fl float64, str string, pf float64, pi int64, flag bool, n uint8) {
		if math.IsNaN(fl) || math.IsInf(fl, 0) || math.IsNaN(pf) || math.IsInf(pf, 0) {
			t.Skip("encoding/json refuses a non-finite float; TestServeNonFinitePayload pins null")
		}
		key := data.Tuple{data.Int(i), data.Float(fl), data.String(str)}
		checkReplies(t, view, key, pf, flag, int(n%4), appendFloat)
		checkReplies(t, view, key, pi, flag, int(n%4), appendInt)
	})
}
