package netserve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"fivm/internal/data"
	"fivm/internal/db"
)

// windowBody renders POST /apply number b of a window sliding over R(A,B,C,D):
// half fresh rows inserted, the half inserted by the previous request deleted.
// Rows repeat every 500 (beyond the window) and the lifted columns take few
// values, so every pool and cache a request touches is warm after a few.
func windowBody(b, half int) []byte {
	row := func(i int) string { return fmt.Sprintf("[%d,%d,%d,%d]", i%50, i/50%10, i%7, i%11) }
	var ins, del []string
	for i := 0; i < half; i++ {
		ins, del = append(ins, row((b+1)*half+i)), append(del, row(b*half+i))
	}
	body := `{"updates":[{"rel":"R","mult":1,"tuples":[` + strings.Join(ins, ",") + `]}`
	if b > 0 {
		body += `,{"rel":"R","mult":-1,"tuples":[` + strings.Join(del, ",") + `]}`
	}
	return []byte(body + "]}")
}

// reusedRecorder is a ResponseWriter that keeps its header map across requests.
type reusedRecorder struct {
	h      http.Header
	status int
}

func (r *reusedRecorder) Header() http.Header         { return r.h }
func (r *reusedRecorder) WriteHeader(status int)      { r.status = status }
func (r *reusedRecorder) Write(b []byte) (int, error) { return len(b), nil }

type reusedBody struct{ bytes.Reader }

func (*reusedBody) Close() error { return nil }

// TestAllocGuardApply: the benchmark's request — 100 inserts and 100 deletes
// of arity 4 — through Server.Handler() with a reused request and recorder,
// two join views maintained, pools warm. What is left per POST is the HTTP
// reply, the queue hand-off and the epochs: the body is decoded without
// allocating (TestAllocGuardApplyDecode) and nothing is bought per tuple, so a
// request four times the size costs the same.
func TestAllocGuardApply(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc guards run in the non-race pass")
	}
	const warm, measured = 40, 80
	perPost := func(half int) uint64 {
		d, err := db.Open(db.Catalog{"R": data.NewSchema("A", "B", "C", "D"), "S": data.NewSchema("A", "E")}, db.Options{})
		if err != nil {
			t.Fatal(err)
		}
		q := db.NewApplyQueue(d, 8)
		defer func() { q.Close(); d.Close() }()
		s, err := New(Config{DB: func() *db.DB { return d }, Queue: q})
		if err != nil {
			t.Fatal(err)
		}
		dims := make([]data.Tuple, 50)
		for a := range dims {
			dims[a] = data.Ints(int64(a), int64(a%5))
		}
		if err := q.Do(func(d *db.DB) error {
			for _, sql := range []string{"CREATE VIEW byA AS SELECT A, SUM(D * E) FROM R NATURAL JOIN S GROUP BY A",
				"CREATE VIEW byE AS SELECT E, SUM(C) FROM R NATURAL JOIN S GROUP BY E"} {
				if _, err := d.Exec(sql); err != nil {
					return err
				}
			}
			return d.Apply([]db.Update{db.Insert("S", dims...)})
		}); err != nil {
			t.Fatal(err)
		}
		bodies := make([][]byte, warm+measured)
		for b := range bodies {
			bodies[b] = windowBody(b, half)
		}
		req := httptest.NewRequest("POST", "/apply", nil)
		body := &reusedBody{}
		req.Body = body
		rec := &reusedRecorder{h: http.Header{}}
		h := s.Handler()
		var before, after runtime.MemStats
		for b, text := range bodies {
			if b == warm {
				runtime.ReadMemStats(&before)
			}
			body.Reset(text)
			req.ContentLength = int64(len(text))
			rec.status = 0
			h.ServeHTTP(rec, req)
			if rec.status != http.StatusOK {
				t.Fatalf("POST %d: status %d", b, rec.status)
			}
		}
		runtime.ReadMemStats(&after)
		e := d.Epoch()
		defer e.Release()
		if e.Applied != uint64(len(bodies))+1 || e.Ingest.ArenaBytes < 2*half*4*32 {
			t.Fatalf("applied %d batches, last in an arena of %d bytes", e.Applied, e.Ingest.ArenaBytes)
		}
		return (after.TotalAlloc - before.TotalAlloc) / measured
	}
	// The least of three runs of each: a runtime thread start or a GC assist
	// lands in one run, not in all three (one read 3 535 B at 800 tuples).
	least := func(half int) uint64 { return min(perPost(half), perPost(half), perPost(half)) }
	small, large := least(100), least(400)
	t.Logf("%d B per POST of 200 tuples, %d B per POST of 800 (the least of three runs each)", small, large)
	if large > small+256 || small > 645+645/3 { // re-measured 643 to 647; encoding/json's envelope decoder read 1 066 to 1 072
		t.Errorf("POST /apply allocates %d B at 200 tuples and %d B at 800: something is allocated per tuple", small, large)
	}
}

// TestAllocGuardApplyDecode: decoding the benchmark's request body into a
// warm applyState — envelope, relation names, tuples and their values — and
// rewinding it allocates nothing (encoding/json's envelope decoder read 9
// objects here).
func TestAllocGuardApplyDecode(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc guards run in the non-race pass")
	}
	bodies := make([][]byte, 4)
	for i := range bodies {
		bodies[i] = windowBody(i+1, 100)
	}
	st := new(applyState)
	var body bytes.Reader
	b := 0
	decode := func() {
		body.Reset(bodies[b%len(bodies)])
		b++
		if batch, tuples, err := st.decode(&body); err != nil || len(batch) != 2 || tuples != 200 {
			t.Fatalf("decoded %d updates of %d tuples: %v", len(batch), tuples, err)
		}
		st.reset()
	}
	for range bodies { // the body buffer, the arena and the scratch reach their size
		decode()
	}
	if allocs := testing.AllocsPerRun(100, decode); allocs != 0 {
		t.Errorf("decoding a POST /apply body of 200 tuples: %.1f allocs, want 0", allocs)
	}
}

// rawPost writes one POST /apply with the given body on a fresh connection —
// all of it, or only the first sent bytes before going quiet — and returns
// the response status (0 when the server closed the connection without one).
func rawPost(t *testing.T, addr string, body []byte, sent int) int {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	head := fmt.Sprintf("POST /apply HTTP/1.1\r\nHost: x\r\nConnection: close\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", len(body))
	if _, err := conn.Write(append([]byte(head), body[:sent]...)); err != nil {
		t.Fatal(err)
	}
	// The deadline only bounds a hang: the outcome is the server's answer.
	conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	rest, err := io.ReadAll(conn)
	if err != nil {
		t.Fatalf("the server neither answered nor closed the connection: %v", err)
	}
	var status int
	fmt.Sscanf(string(rest), "HTTP/1.1 %d", &status)
	return status
}

// TestServeApplyLimits: the three limits POST /apply has beside the 32 MiB
// body cap. A batch of more than maxApplyTuples tuples is 413 — in one update
// or across several — a string value over maxApplyStringBytes is 400, both
// before anything reaches the queue; and a client that stops sending its body
// is cut off when readTimeout runs out.
func TestServeApplyLimits(t *testing.T) {
	d, err := db.Open(testCatalog(), db.Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := db.NewApplyQueue(d, 8)
	s, err := New(Config{DB: func() *db.DB { return d }, Queue: q})
	if err != nil {
		t.Fatal(err)
	}
	if s.readTimeout != readTimeout || readTimeout <= readHeaderTimeout {
		t.Fatalf("server read timeout %v, header timeout %v", s.readTimeout, readHeaderTimeout)
	}
	s.readTimeout = 200 * time.Millisecond // the constant is a minute: too long for a test to wait out
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- s.Serve(l) }()
	defer func() {
		s.Shutdown(t.Context())
		<-served
		q.Close()
		d.Close()
	}()

	update := func(tuples string) string { return `{"rel":"R","mult":1,"tuples":[` + tuples + `]}` }
	many := strings.Repeat("[1,2],", maxApplyTuples)
	long := strings.Repeat("a", maxApplyStringBytes)
	ok := `{"updates":[` + update(`[1,"`+long+`"]`) + `]}`
	for _, c := range []struct {
		name string
		body string
		sent int // bytes of the body sent before the client goes quiet; 0: all
		want int
	}{
		{"a string value at the limit", ok, 0, http.StatusOK},
		{"a batch at the tuple limit", `{"updates":[` + update(many[:len(many)-1]) + `]}`, 0, http.StatusOK},
		{"one update over the tuple limit", `{"updates":[` + update(many+"[1,2]") + `]}`, 0, http.StatusRequestEntityTooLarge},
		{"two updates over the tuple limit together", `{"updates":[` + update(many[:len(many)-1]) + "," + update("[3,4]") + `]}`, 0, http.StatusRequestEntityTooLarge},
		{"a string value over the limit", `{"updates":[` + update(`[1,"`+long+`b"]`) + `]}`, 0, http.StatusBadRequest},
		{"an escaped string value over the limit", `{"updates":[` + update(`[1,"\u00e9`+long+`"]`) + `]}`, 0, http.StatusBadRequest},
		{"a body that stops arriving", ok, 10, 0},
	} {
		before := d.Epoch()
		sent := c.sent
		if sent == 0 {
			sent = len(c.body)
		}
		start := time.Now()
		got := rawPost(t, l.Addr().String(), []byte(c.body), sent)
		after := d.Epoch()
		// A stalled body is answered 400 or just disconnected, depending on
		// which of the server's goroutines sees the deadline first.
		if got != c.want && !(c.want == 0 && got == http.StatusBadRequest) {
			t.Errorf("%s: status %d, want %d", c.name, got, c.want)
		}
		if applied := after.Applied != before.Applied; applied != (c.want == http.StatusOK) {
			t.Errorf("%s: applied %v", c.name, applied)
		}
		if c.sent > 0 && time.Since(start) > 20*time.Second {
			t.Errorf("%s: the connection was kept for %v", c.name, time.Since(start))
		}
		before.Release()
		after.Release()
	}
}

// spaces is an endless request body of white space that counts what is read.
type spaces struct{ read *int64 }

func (s spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	*s.read += int64(len(p))
	return len(p), nil
}

// TestApplyBodyDeclaredLength: a POST /apply whose Content-Length is over the
// 32 MiB cap is 413 before a byte of its body is read, and a chunked one (no
// declared length) is 413 once it passes the cap, read no further.
func TestApplyBodyDeclaredLength(t *testing.T) {
	d, err := db.Open(testCatalog(), db.Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := db.NewApplyQueue(d, 8)
	defer func() { q.Close(); d.Close() }()
	s, err := New(Config{DB: func() *db.DB { return d }, Queue: q})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name            string
		length, maxRead int64
	}{
		{"a declared length over the cap", maxApplyBody + 1, 0},
		{"a chunked body over the cap", -1, maxApplyBody + 1},
	} {
		var read int64
		req := httptest.NewRequest("POST", "/apply", nil)
		req.Body, req.ContentLength = io.NopCloser(spaces{&read}), c.length
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusRequestEntityTooLarge || read > c.maxRead {
			t.Errorf("%s: status %d after reading %d bytes of the body", c.name, rec.Code, read)
		}
	}
}

// oracleTuples is the decoder of the "tuples" member that POST /apply had
// before it scanned into an arena (netserve.wireTuples as PR 14 left it),
// kept as the oracle of FuzzApplyBody: exactly-sized heap tuples.
type oracleTuples []data.Tuple

func (ts *oracleTuples) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		return nil
	}
	if b[0] != '[' {
		return fmt.Errorf("tuples %.20q is not an array", b)
	}
	out := make(oracleTuples, 0, bytes.Count(b, []byte{'['})-1)
	for i := nextElem(b, 1); b[i] != ']'; i = nextElem(b, i) {
		t, end, err := oracleTuple(b, i)
		if err != nil {
			return err
		}
		out, i = append(out, t), end
	}
	*ts = out
	return nil
}

// nextElem skips the white space and the comma before an array element (or
// the closing bracket) of valid JSON text.
func nextElem(b []byte, i int) int {
	for b[i] <= ' ' || b[i] == ',' {
		i++
	}
	return i
}

func oracleTuple(b []byte, i int) (data.Tuple, int, error) {
	if b[i] == 'n' {
		return nil, i + len("null"), nil
	}
	if b[i] != '[' {
		return nil, i, fmt.Errorf("tuple %.20q is not an array", b[i:])
	}
	var vals []data.Value
	for i = nextElem(b, i+1); b[i] != ']'; i = nextElem(b, i) {
		j := i + 1
		switch c := b[i]; {
		case c == '"':
			for ; b[j] != '"'; j++ {
				if b[j] == '\\' {
					j++
				}
			}
			j++
			var s string
			if err := json.Unmarshal(b[i:j], &s); err != nil {
				return nil, i, err
			}
			vals = append(vals, data.String(s))
		case c == '-' || '0' <= c && c <= '9':
			for b[j] > ' ' && b[j] != ',' && b[j] != ']' {
				j++
			}
			var n json.Number
			if err := json.Unmarshal(b[i:j], &n); err != nil {
				return nil, i, err
			}
			if x, err := n.Int64(); err == nil {
				vals = append(vals, data.Int(x))
			} else if f, err := n.Float64(); err == nil {
				vals = append(vals, data.Float(f))
			} else {
				return nil, i, fmt.Errorf("bad number %q: %w", b[i:j], err)
			}
		default:
			return nil, i, fmt.Errorf("unsupported key value %.20q (want number or string)", b[i:])
		}
		i = j
	}
	return vals, i + 1, nil
}

// applyBodyOracle decodes a POST /apply body the way handleApply did before
// the arena: json.Decoder over the whole envelope, one value, heap tuples.
func applyBodyOracle(body []byte) ([]db.Update, error) {
	var req struct {
		Updates []struct {
			Rel    string       `json:"rel"`
			Mult   int64        `json:"mult"`
			Tuples oracleTuples `json:"tuples"`
		} `json:"updates"`
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	if err := dec.Decode(&req); err != nil {
		return nil, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, errors.New("trailing data after the JSON value")
	}
	var batch []db.Update
	for _, u := range req.Updates {
		batch = append(batch, db.Update{Rel: u.Rel, Mult: u.Mult, Tuples: u.Tuples})
	}
	return batch, nil
}

// FuzzApplyBody: on every input the arena decoder of POST /apply and the
// decoder it replaced agree on error or not and on every update — relation,
// multiplicity, tuples, values and kinds. The values survive the request: with
// the arena rewound (poisoned, in this package) and the body buffer
// overwritten, what was copied out of the batch still equals the oracle's, so
// no string aliases the input. One pooled state decodes every input, as one
// serves every request.
func FuzzApplyBody(f *testing.F) {
	for _, seed := range []string{
		`{"updates":[{"rel":"R","mult":1,"tuples":[[1,2],[3,4]]},{"rel":"S","mult":-1,"tuples":[[1,"a"]]}]}`,
		`{"updates":[]}`, `{}`, `null`, `[]`, `{"updates":null}`, `{"updates":[null]}`, `{"updates":[{}]}`, `{"updates":{}}`,
		`{"UPDATES":[{"REL":"R","Mult":2,"tupleſ":[[1]]}]}`, `{"updates":[{"rel":"R","tuples":[[1]]}],"updates":[{}]}`,
		`{"updates":[{"tuples":[[true]],"tuples":[[1]]}]}`, `{"updates":[{"tuples":[[1]],"tuples":null}]}`,
		`{"updates":[{"rel":5}]}`, `{"updates":[{"mult":1.5}]}`, `{"updates":[{"mult":"1"}]}`, `{"updates":[{"tuples":5}]}`,
		`{"updates":[{"rel":"R","mult":1,"tuples":[[1,2]]}]} x`, ` {"updates":[{"rel":"R","tuples":[null,[],[-0,1e999]]}]} `,
		`{"updates":[{"tuples":[["\u00e9\"\\","\ud800",` + "\"\xff\"" + `,"[",9223372036854775808,0.1]]}]}`,
		`{"updates":[{"tuples":[[1,null]]}]}`, `{"updates":[{"tuples":[[[1]]]}]}`, `{"updates":[{"tuples":[[1 2]]}]}`, ``, `{`,
		`{"updates":[{"rel":"a"},{"rel":"b"},{"rel":"c"},{"rel":"d"},{"rel":"e","tuples":[[5]]},{"tuples":[["x"]]}]}`,
	} {
		f.Add([]byte(seed))
	}
	// The one-pass scan's parity points with encoding/json. Member names, exact,
	// folded, escaped, and duplicated (the later wins):
	u := func(members string) string { return `{"updates":[{` + members + `}]}` }
	deep := func(n int) string { // the object and n arrays: nesting n+1 deep
		return `{"x":` + strings.Repeat("[", n) + strings.Repeat("]", n) + `,"updates":[{"rel":"R","tuples":[[1]]}]}`
	}
	for _, seed := range []string{
		u(`"rel":"R","tuples":[[1]]`), u(`"REL":"R","tuples":[[1]]`), u(`"Mult":-1,"tuples":[[1]]`), u(`"tupleſ":[[1]]`),
		u(`"rel":"R","Rel":"S"`), u(`"REL":"S","rel":"R"`), u(`"rel":"R","tupleſ":[[1]],"mult":2`),
		`{"UPDATEſ":[{"rel":"R"}],"updates":[{"rel":"S"}]}`,
		// mult is what strconv.ParseInt takes; null leaves a member as it was:
		u(`"mult":1.0`), u(`"mult":1e2`), u(`"mult":-0`), u(`"mult":9223372036854775808`), u(`"mult":-9223372036854775808`),
		u(`"mult":null`), u(`"mult":"1"`), u(`"rel":null`), u(`"mult":2,"mult":null`), u(`"rel":"R","rel":null`), u(`"rel":"R","tuples":null`),
		// unknown members are skipped but validated:
		u(`"x":{"a":{"b":[1,{"c":null}]},"d":true},"rel":"R","tuples":[[1]]`), u(`"x":[{"a":1},{"a":[]}],"rel":"R"`),
		"{\"x\":\"\xff\",\"updates\":[{\"rel\":\"\xfe\"}]}", u("\"x\":\"a\x01b\""), u("\"rel\":\"a\x1fb\""), u(`"x":"\x"`), u(`"x":"\u12"`),
		u(`"x":"\ud800","rel":"\ud800é\/\b\f\n\r\t"`), u(`"x":tru`), u(`"x":nul`), u(`"x":[true,false,null]`), u(`"x" "rel"`), u(`"x":1,}`),
		u(`"x":{"a" 1}`), u(`"x":{"a":1,}`), u(`"x":{1:1}`), u(`"x":[1,]`), u(`"x":[,1]`), u(`"x":-0.5e+3`), u(`"x":1E-2`),
		// numbers encoding/json refuses, in a tuple and in an unknown member:
		u(`"tuples":[[01]]`), u(`"tuples":[[-]]`), u(`"tuples":[[1.]]`), u(`"tuples":[[.5]]`), u(`"tuples":[[1e]]`), u(`"tuples":[[+1]]`),
		u(`"x":01`), u(`"x":-`), u(`"x":1.`), u(`"x":.5`), u(`"x":1e+`),
		// one value, and only white space after it:
		`{"updates":[]}{"updates":[]}`, `{"updates":[]} {"updates":[]}`, `null null`, "{}\x00", "\t{}\r\n",
		// an "updates" element decodes over what an earlier "updates" left
		// there, unless null or [] came between:
		`{"updates":[{"rel":"a"},{"rel":"b","tuples":[[1]]}],"updates":[{}],"updates":[{"mult":2},{}]}`,
		`{"updates":[{"rel":"a"}],"updates":[],"updates":[{}]}`, `{"updates":[{"rel":"a"}],"updates":null,"updates":[{}]}`,
		`{"updates":[{"rel":"a","mult":3,"tuples":[[1]]}],"updates":[null]}`,
		// nesting 10 000 deep is the limit:
		deep(9999), deep(10000),
	} {
		f.Add([]byte(seed))
	}
	st := new(applyState)
	f.Fuzz(func(t *testing.T, body []byte) {
		want, wantErr := applyBodyOracle(body)
		got, tuples, gotErr := st.decode(bytes.NewReader(body))
		defer st.reset()
		if errors.Is(gotErr, errTooManyTuples) || errors.Is(gotErr, errStringTooLong) {
			t.Skip("over a limit the oracle does not have")
		}
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%q: arena decoder error %v, oracle error %v", body, gotErr, wantErr)
		}
		if gotErr != nil {
			return
		}
		if len(got) != len(want) {
			t.Fatalf("%q: %d updates, oracle %d", body, len(got), len(want))
		}
		// Copy the values out, then let the request die.
		kept := make([][][]data.Value, len(got))
		n := 0
		for i, u := range got {
			if u.Rel != want[i].Rel || u.Mult != want[i].Mult || len(u.Tuples) != len(want[i].Tuples) {
				t.Fatalf("%q: update %d is %q × %d with %d tuples, oracle %q × %d with %d", body, i,
					u.Rel, u.Mult, len(u.Tuples), want[i].Rel, want[i].Mult, len(want[i].Tuples))
			}
			for _, tu := range u.Tuples {
				kept[i] = append(kept[i], append([]data.Value(nil), tu...))
				n++
			}
		}
		if n != tuples {
			t.Fatalf("%q: decode counts %d tuples of %d", body, tuples, n)
		}
		var first data.Tuple // of an update that was decoded into the arena
		for i, u := range got {
			for _, tu := range u.Tuples {
				if first == nil && len(tu) > 0 && data.ArenaBytes(got[i:i+1]) > 0 {
					first = tu
				}
			}
		}
		st.reset()
		buf := st.body.Bytes()
		for i := range buf {
			buf[i] = 'x'
		}
		for i := range want {
			for j, tu := range want[i].Tuples {
				if !reflect.DeepEqual(kept[i][j], []data.Value(tu)) && !(len(kept[i][j]) == 0 && len(tu) == 0) {
					t.Fatalf("%q: update %d tuple %d is %#v, oracle %#v", body, i, j, kept[i][j], tu)
				}
			}
		}
		if first != nil && first[0] != data.String("\xff<reclaimed>") {
			t.Fatalf("%q: a tuple of the batch reads %v after the rewind, not poison", body, first)
		}
	})
}
