package netserve

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"reflect"
	"testing"
)

// FuzzRequestHead: whatever head parseHead accepts, http.ReadRequest accepts
// on the same bytes, and the two requests agree on every field, on the body's
// bytes and error, and on what is left to read after the body; a head it does
// not accept it leaves unread.
func FuzzRequestHead(f *testing.F) {
	for _, seed := range []string{
		"GET /view/sums/lookup?key=1 HTTP/1.1\r\nHost: fivm\r\n\r\n",
		"GET /view/sums/scan?limit=60 HTTP/1.1\r\nHost: fivm\r\n\r\nGET /healthz HTTP/1.1\r\nHost: fivm\r\n\r\n",
		"POST /apply HTTP/1.1\r\nHost: fivm\r\nContent-Type: application/json\r\nContent-Length: 12\r\n\r\n{\"updates\":[GET / HTTP/1.1\r\n\r\n",
		"POST /apply HTTP/1.1\r\nHost: fivm\r\nContent-Length: 12\r\n\r\n{\"upd",
		"GET /healthz HTTP/1.1\r\nHost: localhost:8080\r\nUser-Agent: curl/8.5.0\r\nAccept: */*\r\n\r\n",
		"GET /stats HTTP/1.1\r\nHost: 127.0.0.1:8080\r\nUser-Agent: Go-http-client/1.1\r\nAccept-Encoding: gzip\r\n\r\n",
		"POST /select HTTP/1.1\r\nHost: 127.0.0.1:8080\r\nUser-Agent: Go-http-client/1.1\r\nContent-Length: 2\r\nContent-Type: application/json\r\nAccept-Encoding: gzip\r\n\r\n{}",
		"HEAD /healthz HTTP/1.1\r\nhOST: x\r\nCONTENT-length:  007 \r\nconnection:\tclose\r\n\r\n1234567",
		"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
		"GET /healthz HTTP/1.0\r\nConnection: close\r\nHost:\r\n\r\n",
		"GET /a//b;c=d@e?x=%zz#f&y=~ HTTP/1.1\r\nHost: x\r\n\r\n",
		"GET / HTTP/1.0\r\nHost\r\n\r\n", "GET / HTTP/1.1\r\nHo\u017ft: x\r\n\r\n", "GET / HTTP/1.1\r\nHost: x\r\nHost: y\r\n\r\n",
		"GET /view/a%2Fb/lookup?key=1 HTTP/1.1\r\nHost: x\r\n\r\n", "GET /healthz? HTTP/1.1\r\nHost: x\r\n\r\n",
		"GET /healthz HTTP/1.1\nHost: x\n\n", "GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: Keep-Alive, foo\r\n\r\n",
		"GET / HTTP/1.1\r\nHost:\tx \r\nUser-Agent: a b \t\r\n\r\n", "GET / HTTP/1.1\r\nHost: x\ry\r\n\r\n", "G(T / HTTP/1.1\r\nHost: x\r\n\r\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, stream []byte) {
		m := new(memConn)
		m.in.Reset(stream)
		c := new(Server).newConn(m)
		if _, err := c.br.Peek(1); err != nil {
			return
		}
		buffered := c.br.Buffered()
		got := c.parseHead()
		if got == nil {
			if c.br.Buffered() != buffered {
				t.Fatalf("%q: refused, and consumed %d bytes", stream, buffered-c.br.Buffered())
			}
			return
		}
		std := bufio.NewReader(bytes.NewReader(stream))
		want, err := http.ReadRequest(std)
		if err != nil {
			t.Fatalf("%q: parseHead accepts what http.ReadRequest refuses: %v", stream, err)
		}
		if (got.Body == http.NoBody) != (want.Body == http.NoBody) {
			t.Fatalf("%q: body %T, http.ReadRequest's %T", stream, got.Body, want.Body)
		}
		gotBody, gotErr := io.ReadAll(got.Body)
		wantBody, wantErr := io.ReadAll(want.Body)
		if !bytes.Equal(gotBody, wantBody) || gotErr != wantErr {
			t.Fatalf("%q: body %q (%v), http.ReadRequest's %q (%v)", stream, gotBody, gotErr, wantBody, wantErr)
		}
		got.Body, want.Body = nil, nil
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(got.URL, want.URL) {
			t.Fatalf("%q:\n got  %+v %+v\n want %+v %+v", stream, got, got.URL, want, want.URL)
		}
		gotRest, _ := io.ReadAll(c.br)
		wantRest, _ := io.ReadAll(std)
		if !bytes.Equal(gotRest, wantRest) {
			t.Fatalf("%q: leaves %q, http.ReadRequest %q", stream, gotRest, wantRest)
		}
	})
}
