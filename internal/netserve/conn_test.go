package netserve

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fivm/internal/data"
	"fivm/internal/db"
)

// framingCase is one raw byte stream sent on a fresh connection, the
// statuses net/http answers it with, in order, and whether it keeps the
// connection open after them.
type framingCase struct {
	name   string
	stream string
	head   bool // the stream is one HEAD request
	want   []int
	open   bool
}

func framingCases() []framingCase {
	const (
		get   = "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
		batch = `{"updates":[{"rel":"R","mult":1,"tuples":[[1,2]]}]}`
	)
	post := func(headers, body string) string {
		return "POST /apply HTTP/1.1\r\nHost: x\r\n" + headers + "\r\n" + body
	}
	withBody := func(n int) string {
		return fmt.Sprintf("GET /healthz HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n%s", n, strings.Repeat("x", n))
	}
	// Just over the cap, so that what is left after it could be drained.
	overCap := strings.Repeat(fmt.Sprintf("%x\r\n%s\r\n", 1<<20, strings.Repeat(" ", 1<<20)), maxApplyBody>>20) + "400\r\n" + strings.Repeat(" ", 1<<10) + "\r\n"
	cl := "Content-Length: " + strconv.Itoa(len(batch)) + "\r\n"
	ok, closed := true, false
	return []framingCase{
		{"pipelined requests", get + get + "GET /nosuch HTTP/1.1\r\nHost: x\r\n\r\n" + get, false, []int{200, 200, 404, 200}, ok},
		{"HTTP/1.0", "GET /healthz HTTP/1.0\r\n\r\n", false, []int{200}, closed},
		{"HTTP/1.0 with keep-alive", "GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n" + get, false, []int{200, 200}, ok},
		{"Connection: close", "GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n" + get, false, []int{200}, closed},
		{"HTTP/1.1 without Host", "GET /healthz HTTP/1.1\r\n\r\n", false, []int{400}, closed},
		{"an absolute-form target without Host", "GET http://x/healthz HTTP/1.1\r\n\r\n", false, []int{400}, closed},
		{"an empty Host", "GET /healthz HTTP/1.1\r\nHost:\r\n\r\n" + get, false, []int{200, 200}, ok},
		{"a duplicate Content-Length", post(cl+cl, batch), false, []int{200}, ok},
		{"conflicting Content-Lengths", post(cl+"Content-Length: 3\r\n", batch), false, []int{400}, closed},
		{"Content-Length with Transfer-Encoding", post("Content-Length: 3\r\nTransfer-Encoding: chunked\r\n",
			fmt.Sprintf("%x\r\n%s\r\n0\r\n\r\n", len(batch), batch)), false, []int{200}, ok},
		{"a chunked body over the cap", post("Transfer-Encoding: chunked\r\n", overCap+"0\r\n\r\n"), false, []int{413}, closed},
		{"a header block over 1 MiB", "GET /healthz HTTP/1.1\r\nHost: x\r\nX-Big: " + strings.Repeat("a", maxHeaderBytes) + "\r\n\r\n", false, []int{431}, closed},
		{"Expect: 100-continue over the cap", post("Expect: 100-continue\r\nContent-Length: "+strconv.Itoa(maxApplyBody+1)+"\r\n", ""), false, []int{413}, closed},
		{"Expect: 100-continue, body read", post("Expect: 100-continue\r\n"+cl, batch), false, []int{100, 200}, ok},
		{"Expect: 100-continue, body unread", "GET /healthz HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\nContent-Length: 5\r\n\r\nhello", false, []int{200}, closed},
		{"an Expect other than 100-continue", "GET /healthz HTTP/1.1\r\nHost: x\r\nExpect: x\r\n\r\n", false, []int{417}, closed},
		{"HEAD /healthz", "HEAD /healthz HTTP/1.1\r\nHost: x\r\n\r\n", true, []int{200}, ok},
		{"an unread body of 1 KiB", withBody(1 << 10), false, []int{200}, ok},
		{"an unread body of 1 MiB", withBody(1 << 20), false, []int{200}, closed},
		{"HTTP/2.0", "GET /healthz HTTP/2.0\r\nHost: x\r\n\r\n", false, []int{505}, closed},
		// At the edges of what parseHead takes, and just past them.
		{"a POST with Content-Length", post(cl, batch) + get, false, []int{200, 200}, ok},
		{"names in other cases", "POST /apply HTTP/1.1\r\nhOST: x\r\ncontent-LENGTH: " + strconv.Itoa(len(batch)) + "\r\n\r\n" + batch + get, false, []int{200, 200}, ok},
		{"Content-Length: 007", "GET /healthz HTTP/1.1\r\nHost: x\r\nContent-Length: 007\r\n\r\n1234567" + get, false, []int{200, 200}, ok},
		{"tabs and trailing spaces around values", "GET /healthz HTTP/1.1\r\nHost:\t x \t\r\nConnection: \tclose  \r\n\r\n" + get, false, []int{200}, closed},
		{"bare-LF line endings", "GET /healthz HTTP/1.1\nHost: x\n\n" + get, false, []int{200, 200}, ok},
		{"%2F in the path", "GET /view/a%2Fb/lookup?key=1 HTTP/1.1\r\nHost: x\r\n\r\n" + get, false, []int{404, 200}, ok},
		{"a target ending in ?", "GET /healthz? HTTP/1.1\r\nHost: x\r\n\r\n" + get, false, []int{200, 200}, ok},
		{"HTTP/1.0 with Connection: Keep-Alive, foo", "GET /healthz HTTP/1.0\r\nConnection: Keep-Alive, foo\r\n\r\n" + get, false, []int{200, 200}, ok},
		{"an unknown header name", "GET /healthz HTTP/1.1\r\nHost: x\r\nX-Unknown: y\r\n\r\n" + get, false, []int{200, 200}, ok},
	}
}

var discardLog = log.New(io.Discard, "", 0)

// exchange sends c.stream on a fresh connection to addr, in two writes 20 ms
// apart when split cuts it, and reads len(c.want) responses, then a probe
// request: answered, the connection was kept open.
func exchange(t *testing.T, addr string, c framingCase, split int) (statuses []int, open bool) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second)) // bounds a hang only
	wrote := make(chan struct{})
	go func() {
		defer close(wrote)
		if split > 0 {
			conn.Write([]byte(c.stream[:split]))
			time.Sleep(20 * time.Millisecond) // for the server to read the first part alone
		}
		conn.Write([]byte(c.stream[split:])) // the server may close before taking it all
	}()
	br := bufio.NewReader(conn)
	method := http.MethodGet
	if c.head {
		method = http.MethodHead
	}
	for range c.want {
		resp, err := http.ReadResponse(br, &http.Request{Method: method})
		if err != nil {
			break
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		statuses = append(statuses, resp.StatusCode)
	}
	<-wrote
	if _, err := conn.Write([]byte("GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")); err != nil {
		return statuses, false
	}
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		return statuses, false
	}
	resp.Body.Close()
	return statuses, resp.StatusCode == http.StatusOK
}

// TestServeFramingMatchesNetHTTP sends each stream once to Serve and once to
// an http.Server serving Handler(): both answer with the same statuses and
// keep or close the connection alike.
func TestServeFramingMatchesNetHTTP(t *testing.T) {
	_, _, ts := newTestServer(t, 8)
	s := ts.s
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: s.Handler(), ErrorLog: discardLog}
	go hs.Serve(l)
	defer hs.Close()
	check := func(c framingCase, split int) {
		got, gotOpen := exchange(t, ts.addr, c, split)
		std, stdOpen := exchange(t, l.Addr().String(), c, split)
		if !slices.Equal(got, c.want) || gotOpen != c.open || !slices.Equal(std, c.want) || stdOpen != c.open {
			t.Errorf("%s (split at %d): Serve answers %v (open %v), net/http %v (open %v); want %v (open %v)",
				c.name, split, got, gotOpen, std, stdOpen, c.want, c.open)
		}
	}
	for _, c := range framingCases() {
		check(c, 0)
		// A GET and a POST whose heads parseHead takes, once more with the
		// first head cut in two writes: http.ReadRequest parses it instead.
		if c.name == "pipelined requests" || c.name == "a POST with Content-Length" {
			check(c, strings.Index(c.stream, "\r\n")+4)
		}
	}
}

// memConn is a connection whose client sent in and reads what the server
// writes to out; it never blocks and ignores deadlines.
type memConn struct {
	in  bytes.Reader
	out bytes.Buffer
}

func (m *memConn) Read(p []byte) (int, error)       { return m.in.Read(p) }
func (m *memConn) Write(p []byte) (int, error)      { return m.out.Write(p) }
func (m *memConn) Close() error                     { return nil }
func (m *memConn) LocalAddr() net.Addr              { return nil }
func (m *memConn) RemoteAddr() net.Addr             { return nil }
func (m *memConn) SetDeadline(time.Time) error      { return nil }
func (m *memConn) SetReadDeadline(time.Time) error  { return nil }
func (m *memConn) SetWriteDeadline(time.Time) error { return nil }

// FuzzServeConn: whatever bytes a client sends, the connection loop does not
// panic (it would recover and answer 500, which no handler here sends), and
// what it writes back is a sequence of responses that parse, each with a
// Content-Length its body matches — up to the one that closes.
func FuzzServeConn(f *testing.F) {
	for _, c := range framingCases() {
		if len(c.stream) < 64<<10 {
			f.Add([]byte(c.stream))
		}
	}
	for _, seed := range []string{
		"GET /view/sums/lookup?key=1 HTTP/1.1\r\nHost: x\r\n\r\nGET /view/sums/scan?limit=1 HTTP/1.1\r\nHost: x\r\n\r\n",
		"HEAD /healthz HTTP/1.1\r\nHost: x\r\n\r\nGET /stats HTTP/1.1\r\nHost: x\r\n\r\nHEAD /nosuch HTTP/1.1\r\n\r\n",
		"POST /apply HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n5\r\n{\"upd\r\nz\r\n",
		"GET /a/..%2f%0d%0aX-Injected:%20y HTTP/1.1\r\nHost: x\r\n\r\n", "OPTIONS * HTTP/1.1\r\nHost: x\r\n\r\n",
		"POST /select HTTP/1.0\r\nContent-Length: 5\r\nExpect: 100-continue\r\n\r\n{\"sql", "GET /healthz HTTP/1.1\r\nHost: x\r\nContent-Length: -1\r\n\r\n",
		"GET /healthz HTTP/1.1\r\nHost: x\r\nHost: y\r\n\r\n", "\r\n\r\nGET /healthz HTTP/1.1\r\nHost: x\r\n\r\n", "GET /healthz HTTP/1.1\r\nHost: x",
	} {
		f.Add([]byte(seed))
	}
	s := newFuzzServer(f)
	f.Fuzz(func(t *testing.T, stream []byte) {
		m := new(memConn)
		m.in.Reset(stream)
		s.newConn(m).serve()
		// The methods of the requests, as a client pipelining the stream sent
		// them: a HEAD response has no body.
		var methods []string
		for br := bufio.NewReader(bytes.NewReader(stream)); ; {
			req, err := http.ReadRequest(br)
			if err != nil {
				break
			}
			methods = append(methods, req.Method)
			if _, err := io.Copy(io.Discard, req.Body); err != nil {
				break
			}
		}
		out := bufio.NewReader(&m.out)
		for i := 0; out.Buffered() > 0 || m.out.Len() > 0; {
			method := http.MethodGet
			if i < len(methods) {
				method = methods[i]
			}
			resp, err := http.ReadResponse(out, &http.Request{Method: method})
			if err != nil {
				t.Fatalf("%q: response %d does not parse: %v\n%q", stream, i, err, m.out.Bytes())
			}
			switch {
			case resp.StatusCode == http.StatusInternalServerError:
				t.Fatalf("%q: response %d is a recovered panic", stream, i)
			case resp.StatusCode < 200:
				continue
			}
			i++
			body, err := io.ReadAll(resp.Body)
			if err != nil || method != http.MethodHead && resp.ContentLength != int64(len(body)) {
				t.Fatalf("%q: response %d declares %d bytes and has %d (%v)", stream, i, resp.ContentLength, len(body), err)
			}
			if resp.Close {
				break
			}
		}
	})
}

// newFuzzServer is newTestServer for a fuzz target: a view to read, a queue
// to write through, no listener.
func newFuzzServer(f *testing.F) *Server {
	d, err := db.Open(testCatalog(), db.Options{})
	if err != nil {
		f.Fatal(err)
	}
	q := db.NewApplyQueue(d, 8)
	f.Cleanup(func() { q.Close(); d.Close() })
	if _, err := d.Exec("CREATE VIEW sums AS SELECT A, SUM(B) FROM R GROUP BY A"); err != nil {
		f.Fatal(err)
	}
	s, err := New(Config{DB: func() *db.DB { return d }, Queue: q})
	if err != nil {
		f.Fatal(err)
	}
	return s
}

// rawClient is one kept-alive connection that writes prebuilt requests and
// reads each response into a reused buffer, allocating nothing itself.
type rawClient struct {
	t    *testing.T
	conn net.Conn
	buf  []byte
}

var contentLength = []byte("\r\nContent-Length: ")

func dialRaw(t *testing.T, addr string) *rawClient {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &rawClient{t: t, conn: conn, buf: make([]byte, 1<<20)}
}

// do sends req and returns the status and body of its response.
func (rc *rawClient) do(req []byte) (int, []byte) {
	if _, err := rc.conn.Write(req); err != nil {
		rc.t.Fatal(err)
	}
	return rc.read()
}

// read returns the status and body of the next response.
func (rc *rawClient) read() (int, []byte) {
	n, head, total := 0, -1, -1
	for total < 0 || n < total {
		m, err := rc.conn.Read(rc.buf[n:])
		if n += m; err != nil || n == len(rc.buf) {
			rc.t.Fatalf("reading a response: %v after %d bytes", err, n)
		}
		if head < 0 {
			if head = bytes.Index(rc.buf[:n], endOfHead); head >= 0 {
				i := bytes.Index(rc.buf[:head], contentLength) + len(contentLength)
				total = head + len(endOfHead) + digits(rc.buf[i:head])
			}
		}
	}
	return digits(rc.buf[len("HTTP/1.1 "):]), rc.buf[head+len(endOfHead) : total]
}

// digits reads the decimal number b starts with.
func digits(b []byte) (n int) {
	for _, c := range b {
		if c < '0' || c > '9' {
			break
		}
		n = n*10 + int(c-'0')
	}
	return n
}

// TestAllocGuardServe: lookups, scans and POST /apply through Serve on one
// kept-alive loopback connection allocate nothing, server and raw client
// together: parseHead copies the head into the connection's buffer and fills
// the connection's request from it, the router hands the view its name as a
// segment of the path, and the response, its headers and the connection's
// state are reused.
func TestAllocGuardServe(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc guards run in the non-race pass")
	}
	d, err := db.Open(testCatalog(), db.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
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
	rc := dialRaw(t, serveLoopback(t, s).addr)
	get := func(target, want string) float64 {
		t.Helper()
		req := []byte("GET " + target + " HTTP/1.1\r\nHost: x\r\n\r\n")
		return testing.AllocsPerRun(200, func() {
			if status, body := rc.do(req); status != http.StatusOK || !bytes.Contains(body, []byte(want)) {
				t.Fatalf("GET %s: status %d, body %.80q", target, status, body)
			}
		})
	}
	e := d.Epoch()
	order := db.SnapshotOf[float64](e, "pairs").Result().Schema()
	e.Release()
	col := map[string]int{"A": 2, "C": 7}
	lookup := get(fmt.Sprintf("/view/pairs/lookup?key=%d&key=%d", col[order[0]], col[order[1]]), `"found":true`)
	scan60 := get("/view/pairs/scan?limit=60", `{"count":60,`)
	scan240 := get("/view/pairs/scan?limit=240", `{"count":240,`)
	small, large := postObjects(t, 100), postObjects(t, 400)
	t.Logf("objects per request: lookup %.0f, scan of 60 rows %.0f, of 240 %.0f; POST of 200 tuples %.0f, of 800 %.0f",
		lookup, scan60, scan240, small, large)
	if max(lookup, scan60, scan240, small, large) > 0 {
		t.Errorf("a request allocates")
	}
}

// postObjects is the objects per POST /apply of 2·half tuples through Serve,
// over a window sliding as in TestAllocGuardApply.
func postObjects(t *testing.T, half int) float64 {
	t.Helper()
	const warm, measured = 40, 80
	d, err := db.Open(db.Catalog{"R": data.NewSchema("A", "B", "C", "D"), "S": data.NewSchema("A", "E")}, db.Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := db.NewApplyQueue(d, 8)
	t.Cleanup(func() { q.Close(); d.Close() })
	s, err := New(Config{DB: func() *db.DB { return d }, Queue: q})
	if err != nil {
		t.Fatal(err)
	}
	rc := dialRaw(t, serveLoopback(t, s).addr)
	reqs := make([][]byte, warm+measured+1)
	for b := range reqs {
		body := windowBody(b, half)
		reqs[b] = append([]byte(fmt.Sprintf("POST /apply HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", len(body))), body...)
	}
	b := 0
	post := func() {
		if status, body := rc.do(reqs[b]); status != http.StatusOK {
			t.Fatalf("POST %d: status %d, body %q", b, status, body)
		}
		b++
	}
	for range warm {
		post()
	}
	return testing.AllocsPerRun(measured, post)
}

// TestServePanicClosesOnlyItsConnection: a request whose handler panics is
// answered 500 and its connection closed; another connection, kept alive
// across it, goes on being served, and so do new ones.
func TestServePanicClosesOnlyItsConnection(t *testing.T) {
	d, err := db.Open(testCatalog(), db.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	defer log.SetOutput(log.Writer())
	log.SetOutput(io.Discard) // the panic's stack trace
	var armed atomic.Bool
	s, err := New(Config{DB: func() *db.DB {
		if armed.CompareAndSwap(true, false) {
			panic("netserve test: Config.DB fails")
		}
		return d
	}})
	if err != nil {
		t.Fatal(err)
	}
	ts := serveLoopback(t, s)
	const healthz = "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
	other := dialRaw(t, ts.addr)
	if status, _ := other.do([]byte(healthz)); status != http.StatusOK {
		t.Fatalf("healthz before the panic: %d", status)
	}
	victim := dialRaw(t, ts.addr)
	armed.Store(true)
	if status, _ := victim.do([]byte("GET /stats HTTP/1.1\r\nHost: x\r\n\r\n")); status != http.StatusInternalServerError {
		t.Fatalf("the request that panicked: status %d, want 500", status)
	}
	if n, err := victim.conn.Read(victim.buf); !errors.Is(err, io.EOF) {
		t.Fatalf("the connection that panicked was kept: read %d bytes, %v", n, err)
	}
	if status, _ := other.do([]byte(healthz)); status != http.StatusOK {
		t.Fatalf("healthz on another connection after the panic: %d", status)
	}
	if status, _ := dialRaw(t, ts.addr).do([]byte(healthz)); status != http.StatusOK {
		t.Fatalf("healthz on a new connection after the panic: %d", status)
	}
}

// TestServeShutdownWaitsForActiveRequests: Shutdown closes an idle connection
// at once and waits for one whose request is running, returning ctx's error
// when ctx ends first; the request still gets its answer.
func TestServeShutdownWaitsForActiveRequests(t *testing.T) {
	_, q, ts := newTestServer(t, 8)
	idle := dialRaw(t, ts.addr)
	if status, _ := idle.do([]byte("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")); status != http.StatusOK {
		t.Fatalf("healthz: %d", status)
	}
	release, started := make(chan struct{}), make(chan struct{})
	stalled := make(chan error, 1)
	go func() {
		stalled <- q.Do(func(*db.DB) error {
			close(started)
			<-release
			return nil
		})
	}()
	<-started
	active := dialRaw(t, ts.addr)
	batch := `{"updates":[{"rel":"R","mult":1,"tuples":[[1,2]]}]}`
	if _, err := fmt.Fprintf(active.conn, "POST /apply HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n%s", len(batch), batch); err != nil {
		t.Fatal(err)
	}
	for q.Len() == 0 { // the batch waits behind the stall
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := ts.s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown with a request running: %v", err)
	}
	if n, err := idle.conn.Read(idle.buf); !errors.Is(err, io.EOF) {
		t.Fatalf("the idle connection was kept: read %d bytes, %v", n, err)
	}
	close(release)
	if err := <-stalled; err != nil {
		t.Fatal(err)
	}
	if status, body := active.read(); status != http.StatusOK || !bytes.Contains(active.buf, []byte("Connection: close")) {
		t.Fatalf("the running request: status %d, body %q", status, body)
	}
	if err := ts.s.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown once the request is answered: %v", err)
	}
}
