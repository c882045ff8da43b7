package netserve

import (
	"bufio"
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"net/url"
	"runtime/debug"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Connection limits, fixed: from a request's first byte (due within
// readHeaderTimeout on a new connection too) a client has readHeaderTimeout to
// send its headers and readTimeout the whole request, the body included; a
// kept-alive connection idles idleTimeout at most. Nothing bounds a response,
// whose size varies by orders of magnitude.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = time.Minute
	idleTimeout       = 2 * time.Minute
	// maxHeaderBytes caps a request's line and header block (net/http's
	// default: 1 MiB and its 4 KiB of slack); past it the answer is 431.
	maxHeaderBytes = 1<<20 + 4<<10
	// maxDrain is how much of a body its handler left unread is discarded to
	// keep the connection; a longer one closes it.
	maxDrain = 256 << 10
	// maxKeptBody is the largest response buffer kept for the next request.
	maxKeptBody = 64 << 10
	// lingerTimeout bounds the discarding after a half-close, by which a client
	// still sending an unread body gets its response rather than a reset.
	lingerTimeout = 500 * time.Millisecond
)

// poisonHeads, set by tests, fills a connection's head buffer with 0xFF after
// every response: a request's string read past its handler reads garbage.
var poisonHeads bool

// conn is one accepted connection and what it reuses across its requests.
type conn struct {
	s   *Server
	nc  net.Conn
	in  io.LimitedReader // cut at maxHeaderBytes while a header is read
	tap headTap          // under in: the head http.ReadRequest parses
	br  *bufio.Reader
	bw  *bufio.Writer
	// active is set while a request is served. Shutdown sets it on an idle
	// connection, one waiting for a request's first byte, to close it.
	active atomic.Bool
	w      response
	body   requestBody
	// What parseHead fills, cleared for each request: the head its strings
	// are cut from (kept: it is never longer than br's 4 KiB buffer), the
	// request, its URL, header map, the header values' array, and its body.
	head   []byte
	req    http.Request
	url    url.URL
	hdr    http.Header
	vals   [len(headNames)]string
	length lengthBody
	// hasHost records whether the head had a Host line: a server refuses an
	// HTTP/1.1 request without one, whatever host its target names, and
	// takes an empty one.
	hasHost bool
}

// headTap records what the connection reads while on, so that the head
// http.ReadRequest parsed can be read again: it drops the Host lines.
type headTap struct {
	r   io.Reader
	buf []byte
	on  bool
}

func (t *headTap) Read(p []byte) (int, error) {
	n, err := t.r.Read(p)
	if t.on {
		t.buf = append(t.buf, p[:n]...)
	}
	return n, err
}

// response is a connection's http.ResponseWriter. Its header map is cleared and
// its body buffered, and all goes out once the handler returns, with Date and
// Content-Length (a header set after WriteHeader too).
type response struct {
	h       http.Header
	status  int
	body    []byte
	head    []byte
	readers connReaders
	// The epoch headers, recorded by setEpochHeaders and written as digits.
	epoch        bool
	seq, applied uint64
	lag          time.Duration
}

func (w *response) Header() http.Header    { return w.h }
func (w *response) WriteHeader(status int) { w.status = cmp.Or(w.status, status) }

func (w *response) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	w.body = append(w.body, p...)
	return len(p), nil
}

func (w *response) reset() {
	clear(w.h)
	w.status, w.epoch, w.body = 0, false, w.body[:0]
	if cap(w.body) > maxKeptBody {
		w.body = nil
	}
}

// requestBody is a request's body as its handler reads it. The first read
// sends the 100 Continue the client's Expect asked for, so that a body
// refused unread is never sent; the rest tells the connection what is left.
type requestBody struct {
	c            *conn
	r            io.Reader // the body as it was framed
	expect, owed bool      // the client asked for a 100 Continue; not sent yet
	left         int64     // declared bytes unread; -1 when chunked
	eof          bool
}

func (b *requestBody) Read(p []byte) (int, error) {
	if b.owed {
		b.owed = false
		b.c.bw.WriteString("HTTP/1.1 100 Continue\r\n\r\n")
		b.c.bw.Flush() // a client that has gone fails the read below
	}
	n, err := b.r.Read(p)
	if b.left -= int64(n); err == io.EOF {
		b.eof = true
	}
	return n, err
}

func (b *requestBody) Close() error { return nil }

// Serve accepts connections on l until Shutdown and serves each on its own
// goroutine. Like http.Server.Serve it closes l and always returns a non-nil
// error; after Shutdown it is http.ErrServerClosed.
func (s *Server) Serve(l net.Listener) error {
	defer l.Close()
	if !s.track(func() { s.listeners[l] = struct{}{} }) {
		return http.ErrServerClosed
	}
	for {
		nc, err := l.Accept()
		switch {
		case err == nil:
			c := s.newConn(nc)
			if !s.track(func() { s.conns[c] = struct{}{} }) {
				nc.Close()
				return http.ErrServerClosed
			}
			go c.serve()
		case s.closing.Load():
			return http.ErrServerClosed
		case errors.Is(err, net.ErrClosed):
			return err
		default: // out of descriptors, or a connection aborted before its accept: both pass
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// track runs f under s.mu unless Shutdown has begun, and reports whether it ran.
func (s *Server) track(f func()) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closing.Load() {
		return false
	}
	f()
	return true
}

// Shutdown stops the server gracefully: it closes the listeners and every
// connection waiting for a request, lets each active one finish its request
// and close, and returns once no connection is left, or with ctx's error.
func (s *Server) Shutdown(ctx context.Context) error {
	for pause := time.Millisecond; ; pause = min(2*pause, 100*time.Millisecond) {
		s.mu.Lock()
		s.closing.Store(true)
		for l := range s.listeners {
			l.Close() // its Serve returns http.ErrServerClosed
		}
		clear(s.listeners)
		for c := range s.conns {
			if c.active.CompareAndSwap(false, true) {
				c.nc.Close()
			}
		}
		left := len(s.conns)
		s.mu.Unlock()
		if left == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(pause):
		}
	}
}

func (s *Server) newConn(nc net.Conn) *conn {
	c := &conn{s: s, nc: nc, tap: headTap{r: nc}, w: response{h: http.Header{}}, hdr: http.Header{}}
	c.in = io.LimitedReader{R: &c.tap, N: math.MaxInt64}
	c.br, c.bw, c.body.c = bufio.NewReader(&c.in), bufio.NewWriter(nc), c
	return c
}

// serve answers the connection's requests in order until one closes it, the
// client goes quiet or away, or Shutdown.
func (c *conn) serve() {
	defer func() {
		c.nc.Close()
		c.s.mu.Lock()
		delete(c.s.conns, c)
		c.s.mu.Unlock()
	}()
	for wait := c.s.readHeaderTimeout; ; wait = c.s.idleTimeout {
		c.nc.SetReadDeadline(time.Now().Add(wait))
		if _, err := c.br.Peek(1); err != nil || !c.active.CompareAndSwap(false, true) || !c.serveRequest() {
			return
		}
		if c.active.Store(false); c.s.closing.Load() {
			return
		}
	}
}

// serveRequest reads one request, runs its handler and writes its response.
// It reports whether the connection stays open for the next request. A panic
// is logged and answered 500, and closes this connection only.
func (c *conn) serveRequest() (keep bool) {
	defer func() {
		if p := recover(); p != nil {
			log.Printf("netserve: panic serving %s: %v\n%s", c.nc.RemoteAddr(), p, debug.Stack())
			keep = c.refuse(http.StatusInternalServerError, false)
		}
	}()
	start := time.Now()
	c.nc.SetReadDeadline(start.Add(c.s.readHeaderTimeout))
	c.in.N = maxHeaderBytes - int64(c.br.Buffered()) // the request's first bytes are in already
	req, err := c.parseHead(), error(nil)
	if req != nil {
		c.s.headsParsed.Add(1)
	} else {
		c.s.headsRead.Add(1)
		buffered, _ := c.br.Peek(c.br.Buffered())
		c.tap.buf, c.tap.on = append(c.tap.buf[:0], buffered...), true
		req, err = http.ReadRequest(c.br)
		c.tap.on = false
		c.hasHost = hasHostLine(c.tap.buf[:len(c.tap.buf)-c.br.Buffered()])
	}
	tooLarge := c.in.N <= 0
	c.in.N = math.MaxInt64
	if err != nil {
		var netErr net.Error
		switch {
		case tooLarge:
			return c.refuse(http.StatusRequestHeaderFieldsTooLarge, true)
		case err == io.EOF || errors.As(err, &netErr): // the client went quiet or away
			return false
		}
		return c.refuse(http.StatusBadRequest, false)
	}
	switch {
	case req.ProtoMajor != 1:
		return c.refuse(http.StatusHTTPVersionNotSupported, false)
	case req.ProtoAtLeast(1, 1) && !c.hasHost: // ReadRequest leaves the check to its server
		return c.refuse(http.StatusBadRequest, false)
	}
	b := &c.body
	*b = requestBody{c: c, r: req.Body, left: req.ContentLength, eof: req.Body == http.NoBody}
	if v, ok := req.Header["Expect"]; ok {
		if len(v) != 1 || !strings.EqualFold(v[0], "100-continue") {
			return c.refuse(http.StatusExpectationFailed, false)
		}
		b.expect = req.ProtoAtLeast(1, 1) && !b.eof
		b.owed = b.expect
	}
	if !b.eof {
		req.Body = b
	}
	c.nc.SetReadDeadline(start.Add(c.s.readTimeout))
	c.s.ServeHTTP(&c.w, req)
	keep, linger := !req.Close && !c.s.closing.Load(), false
	if !b.eof {
		switch {
		case b.expect: // the client may still wait for its 100 Continue
			keep = false
		case c.w.status == http.StatusRequestEntityTooLarge || b.left >= maxDrain:
			keep, linger = false, true
		case keep:
			_, err := io.CopyN(io.Discard, b, maxDrain+1)
			keep, linger = err == io.EOF, err == nil
		}
	}
	c.respond(req.ProtoAtLeast(1, 1), req.Method == http.MethodHead, keep, linger)
	return keep
}

// refuse answers a request no handler answered — it did not parse, or its
// handler panicked — and closes the connection.
func (c *conn) refuse(status int, linger bool) bool {
	c.w.reset()
	c.w.h["Content-Type"], c.w.status = []string{"text/plain; charset=utf-8"}, status
	c.w.body = fmt.Appendf(c.w.body, "%d %s", status, http.StatusText(status))
	c.respond(true, false, false, linger)
	return false
}

// headerNewlines keeps a header value from starting a header, as net/http does.
var headerNewlines = strings.NewReplacer("\r", " ", "\n", " ")

// respond writes the response c.w holds and resets c.w. A connection that is
// not kept is half-closed first when it lingers.
func (c *conn) respond(http11, head, keep, linger bool) {
	w := &c.w
	b := append(w.head[:0], "HTTP/1.0 "...)
	if http11 {
		b[7] = '1'
	}
	status := cmp.Or(w.status, http.StatusOK)
	b = append(append(strconv.AppendInt(b, int64(status), 10), ' '), http.StatusText(status)...)
	for k, vs := range w.h {
		for _, v := range vs {
			b = append(append(append(append(b, "\r\n"...), k...), ": "...), headerNewlines.Replace(v)...)
		}
	}
	if w.epoch {
		b = strconv.AppendUint(append(b, "\r\nX-Fivm-Applied: "...), w.applied, 10)
		b = strconv.AppendUint(append(b, "\r\nX-Fivm-Epoch: "...), w.seq, 10)
		b = append(append(b, "\r\nX-Fivm-Lag: "...), w.lag.String()...)
	}
	b = time.Now().UTC().AppendFormat(append(b, "\r\nDate: "...), http.TimeFormat)
	b = strconv.AppendInt(append(b, "\r\nContent-Length: "...), int64(len(w.body)), 10)
	if !keep && http11 {
		b = append(b, "\r\nConnection: close"...)
	} else if keep && !http11 {
		b = append(b, "\r\nConnection: keep-alive"...)
	}
	w.head = append(b, "\r\n\r\n"...)
	c.bw.Write(w.head)
	if !head {
		c.bw.Write(w.body)
	}
	c.bw.Flush() // a client that has gone fails the next read
	w.reset()
	if h := c.head[:cap(c.head)]; poisonHeads { // the request's strings are dead: tests show it
		for i := range h {
			h[i] = 0xFF
		}
	}
	if cw, ok := c.nc.(interface{ CloseWrite() error }); linger && ok && cw.CloseWrite() == nil {
		c.nc.SetReadDeadline(time.Now().Add(lingerTimeout))
		io.Copy(io.Discard, c.nc)
	}
}
