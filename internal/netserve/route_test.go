package netserve

import (
	"bufio"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"fivm/internal/db"
)

// routePatterns are the http.ServeMux patterns of the eight routes, in the
// order of Server.routes.
var routePatterns = [...]string{"GET /healthz", "GET /stats", "GET /views", "GET /view/{name}/lookup",
	"GET /view/{name}/scan", "POST /exec", "POST /select", "POST /apply"}

// FuzzRoute: for any method and request target, the router answers as an
// http.ServeMux over the routes' patterns does — the same status, Allow and
// Location — and a request both answer 200 goes to the same route with the
// same view name. Both route to stubs that write the route and the name.
func FuzzRoute(f *testing.F) {
	for _, seed := range [][2]string{
		{"GET", "/healthz"}, {"HEAD", "/stats"}, {"POST", "/views"}, {"GET", "/view/sums/lookup?key=1"},
		{"HEAD", "/view/a%2Fb/scan"}, {"GET", "/view//lookup"}, {"CONNECT", "/view//lookup"}, {"CONNECT", "/view/x/"},
		{"POST", "/apply"}, {"GET", "/apply"}, {"PUT", "/exec"}, {"POST", "/select/"}, {"GET", "/h%65althz"},
		{"GET", "/a/../stats?x=1"}, {"GET", "/view/x/lookup/"}, {"OPTIONS", "*"}, {"GET", "http://x/healthz"},
		{"GET", "http://x"}, {"GET", "/view/%zz/scan"}, {"GET", "/view/a%2F..%2Fb/lookup"}, {"GET", "//healthz"},
		{"get", "/healthz"}, {"GET", "/view/x/y/lookup"}, {"GET", "/./view/x/scan"}, {"CONNECT", "x:443"},
		{"CONNECT", "/view/../scan"}, {"HEAD", "/apply"}, {"GET", "/view/%2e%2e/lookup"}, {"GET", "/views/"},
		{"0", "/view/%2F/lookup"},
	} {
		f.Add(seed[0], seed[1])
	}
	s, err := New(Config{DB: func() *db.DB { return nil }})
	if err != nil {
		f.Fatal(err)
	}
	mux := http.NewServeMux()
	for i, p := range routePatterns {
		mux.HandleFunc(p, func(w http.ResponseWriter, r *http.Request) { fmt.Fprintf(w, "%d %q", i, r.PathValue("name")) })
		s.routes[i].h = func(w http.ResponseWriter, _ *http.Request, view string) { fmt.Fprintf(w, "%d %q", i, view) }
	}
	f.Fuzz(func(t *testing.T, method, target string) {
		head := method + " " + target + " HTTP/1.1\r\nHost: x\r\n\r\n"
		want, got := httptest.NewRecorder(), httptest.NewRecorder()
		reqWant, err := http.ReadRequest(bufio.NewReader(strings.NewReader(head)))
		if err != nil {
			return
		}
		reqGot, _ := http.ReadRequest(bufio.NewReader(strings.NewReader(head)))
		mux.ServeHTTP(want, reqWant)
		s.ServeHTTP(got, reqGot)
		for _, h := range []string{"Allow", "Location"} {
			if got.Header().Get(h) != want.Header().Get(h) {
				t.Fatalf("%q: %s %q, http.ServeMux's %q", head, h, got.Header().Get(h), want.Header().Get(h))
			}
		}
		if got.Code != want.Code || got.Code == http.StatusOK && got.Body.String() != want.Body.String() {
			t.Fatalf("%q: %d %q, http.ServeMux's %d %q", head, got.Code, got.Body, want.Code, want.Body)
		}
	})
}
