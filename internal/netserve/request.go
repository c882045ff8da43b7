package netserve

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"unsafe"
)

// headNames are the header names parseHead takes, canonical: those curl, Go's
// client and the benchmark send. Any other (Transfer-Encoding, Expect, Pragma,
// X-anything) leaves the request to http.ReadRequest.
var headNames = [...]string{"Host", "Content-Type", "Content-Length", "Connection", "User-Agent", "Accept", "Accept-Encoding"}

var endOfHead = []byte("\r\n\r\n")

// parseHead parses the request whose head is already buffered whole when it
// has the common shape, one for which http.ReadRequest's result is known:
//
//	GET|POST|HEAD SP /path[?query] SP HTTP/1.1|HTTP/1.0 CRLF
//	(name: value CRLF)* CRLF
//
// The path holds only bytes a url.URL keeps as they are (so no %-escape), the
// query is non-empty and printable without a '?', each name is one of
// headNames in any case and appears once, each value is printable (SP and HTAB
// too), Content-Length is 1–15 digits and Connection is close or keep-alive.
// It copies the head into the connection's head buffer, fills the
// connection's request, URL and header map with strings cut from that buffer
// (valid until the handler returns: see the package doc), and consumes the
// head. Any other head, or one not all buffered yet, it leaves unread and
// returns nil, so that every refusal and every unusual form is net/http's.
func (c *conn) parseHead() *http.Request {
	buf, _ := c.br.Peek(c.br.Buffered())
	end := bytes.Index(buf, endOfHead)
	if end < 0 {
		return nil
	}
	c.head = append(c.head[:0], buf[:end+2]...)
	line, rest, _ := strings.Cut(unsafe.String(unsafe.SliceData(c.head), len(c.head)), "\r\n") // every line keeps its CRLF
	method, line, _ := strings.Cut(line, " ")
	target, proto, _ := strings.Cut(line, " ")
	path, query, hasQuery := strings.Cut(target, "?")
	if method != http.MethodGet && method != http.MethodPost && method != http.MethodHead ||
		proto != "HTTP/1.1" && proto != "HTTP/1.0" || !strings.HasPrefix(path, "/") || strings.ContainsFunc(path, notPathByte) ||
		hasQuery && (query == "" || strings.ContainsFunc(query, func(r rune) bool { return r <= ' ' || r > '~' || r == '?' })) {
		return nil
	}
	clear(c.hdr)
	c.hasHost = false
	var host, connection string
	var length int64
	for seen := 0; rest != ""; {
		line, rest, _ = strings.Cut(rest, "\r\n")
		name, v, colon := strings.Cut(line, ":")
		i := headName(name)
		if !colon || i < 0 || seen&(1<<i) != 0 || strings.ContainsFunc(v, notValueByte) {
			return nil
		}
		seen |= 1 << i
		v = strings.Trim(v, " \t")
		switch headNames[i] {
		case "Host":
			host, c.hasHost = v, true
			continue // http.ReadRequest moves it to Request.Host
		case "Content-Length":
			if v == "" || len(v) > 15 || strings.ContainsFunc(v, func(r rune) bool { return r < '0' || r > '9' }) {
				return nil
			}
			length, _ = strconv.ParseInt(v, 10, 64)
		case "Connection":
			if connection = v; v != "close" && v != "keep-alive" {
				return nil
			}
		}
		c.vals[i] = v
		c.hdr[headNames[i]] = c.vals[i : i+1 : i+1]
	}
	c.url = url.URL{Path: path, RawQuery: query}
	c.req = http.Request{Method: method, URL: &c.url, Proto: proto, ProtoMajor: 1, ProtoMinor: int(proto[7] - '0'),
		Header: c.hdr, Body: http.NoBody, ContentLength: length, Host: host, RequestURI: target}
	// net/http's shouldClose: HTTP/1.0 keeps the connection only when asked to.
	c.req.Close = connection == "close" || c.req.ProtoMinor == 0 && connection != "keep-alive"
	if length > 0 {
		c.length = lengthBody{c.br, length}
		c.req.Body = &c.length
	}
	c.br.Discard(end + len(endOfHead))
	return &c.req
}

// headName is the index in headNames of name, matched ignoring ASCII case, or
// -1. Equal lengths keep strings.EqualFold to ASCII: alone, it would take the
// long s U+017F for an s.
func headName(name string) int {
	return slices.IndexFunc(headNames[:], func(n string) bool { return len(n) == len(name) && strings.EqualFold(n, name) })
}

// notPathByte is true of a byte url.URL would escape in a path: the path is
// then not its own escaping, and RawPath would be set.
func notPathByte(r rune) bool {
	return !('a' <= r && r <= 'z' || 'A' <= r && r <= 'Z' || '0' <= r && r <= '9' || strings.ContainsRune("-_.~$&+,/:;=@", r))
}

// hasHostLine reports whether a request head has a Host line.
func hasHostLine(head []byte) bool {
	_, rest, _ := bytes.Cut(head, []byte("\n")) // the request line
	for line := []byte(nil); len(rest) > 0; {
		if line, rest, _ = bytes.Cut(rest, []byte("\n")); len(line) >= 5 && bytes.EqualFold(line[:5], []byte("host:")) {
			return true
		}
	}
	return false
}

// notValueByte is true of a byte other than VCHAR, SP and HTAB.
func notValueByte(r rune) bool { return (r < ' ' || r > '~') && r != '\t' }

// lengthBody is a declared-length body read off the connection, as net/http
// frames it: io.EOF comes with the last byte, io.ErrUnexpectedEOF when the
// client stops short, and io.EOF after either.
type lengthBody struct {
	r *bufio.Reader
	n int64
}

func (b *lengthBody) Read(p []byte) (int, error) {
	if b.n <= 0 {
		return 0, io.EOF
	}
	n, err := b.r.Read(p[:min(int64(len(p)), b.n)])
	if b.n -= int64(n); err == io.EOF {
		b.n, err = 0, io.ErrUnexpectedEOF
	} else if b.n == 0 {
		err = io.EOF
	}
	return n, err
}

func (b *lengthBody) Close() error { return nil }
