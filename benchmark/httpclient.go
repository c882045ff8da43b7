package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"strconv"
)

// httpConn is the load generator's HTTP/1.1 client: one keep-alive TCP
// connection, requests written as prebuilt bytes, responses parsed just far
// enough to get the status, the X-Fivm-Applied header and the body. It does
// nothing net/http's client does between those steps (no transport goroutines,
// no header maps), so the round trip it times is the server's.
type httpConn struct {
	c        net.Conn
	br       *bufio.Reader
	body     []byte
	sent     int64
	received int64
}

func dialHTTP(addr string) (*httpConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &httpConn{c: c, br: bufio.NewReaderSize(c, 64<<10)}, nil
}

func (h *httpConn) close() { h.c.Close() }

// response is one parsed reply; body is valid until the next do.
type response struct {
	status  int
	applied uint64 // X-Fivm-Applied
	body    []byte
}

var (
	hdrContentLength = []byte("content-length:")
	hdrChunked       = []byte("transfer-encoding: chunked")
	hdrApplied       = []byte("x-fivm-applied:")
)

func (h *httpConn) do(req []byte) (response, error) {
	var r response
	if _, err := h.c.Write(req); err != nil {
		return r, err
	}
	h.sent += int64(len(req))
	line, err := h.line()
	if err != nil {
		return r, err
	}
	// "HTTP/1.1 200 OK"
	if len(line) < 12 {
		return r, fmt.Errorf("short status line %q", line)
	}
	if r.status, err = strconv.Atoi(string(line[9:12])); err != nil {
		return r, fmt.Errorf("bad status line %q", line)
	}
	length, chunked := -1, false
	for {
		if line, err = h.line(); err != nil {
			return r, err
		}
		if len(line) == 0 {
			break
		}
		lower := bytes.ToLower(line)
		switch {
		case bytes.HasPrefix(lower, hdrContentLength):
			length, err = strconv.Atoi(string(bytes.TrimSpace(line[len(hdrContentLength):])))
		case bytes.HasPrefix(lower, hdrApplied):
			r.applied, err = strconv.ParseUint(string(bytes.TrimSpace(line[len(hdrApplied):])), 10, 64)
		case bytes.Equal(lower, hdrChunked):
			chunked = true
		}
		if err != nil {
			return r, fmt.Errorf("bad header %q", line)
		}
	}
	h.body = h.body[:0]
	switch {
	case chunked:
		for {
			if line, err = h.line(); err != nil {
				return r, err
			}
			n, err := strconv.ParseUint(string(line), 16, 31)
			if err != nil {
				return r, fmt.Errorf("bad chunk size %q", line)
			}
			if err := h.read(int(n) + 2); err != nil { // chunk and its CRLF
				return r, err
			}
			h.body = h.body[:len(h.body)-2]
			if n == 0 {
				break
			}
		}
	case length >= 0:
		if err := h.read(length); err != nil {
			return r, err
		}
	default:
		return r, errors.New("response without a length")
	}
	r.body = h.body
	return r, nil
}

// line reads one CRLF-terminated line, without the terminator.
func (h *httpConn) line() ([]byte, error) {
	line, err := h.br.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	h.received += int64(len(line))
	return bytes.TrimRight(line, "\r\n"), nil
}

// read appends n bytes of the connection to the body.
func (h *httpConn) read(n int) error {
	start := len(h.body)
	h.body = slices.Grow(h.body, n)[:start+n]
	_, err := io.ReadFull(h.br, h.body[start:])
	h.received += int64(n)
	return err
}
