package fivm_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"

	"fivm"
)

// Serving a DB over HTTP: a bounded apply queue feeds the maintenance
// goroutine, and the server exposes lookups, scans, SQL, and ingest with an
// epoch header on every response.
func ExampleNewHTTPServer() {
	d, _ := fivm.Open(exampleCatalog(), fivm.DBOptions{})
	q := fivm.NewApplyQueue(d, 64)
	defer d.Close()
	defer q.Close()

	srv, err := fivm.NewHTTPServer(fivm.ServeConfig{
		DB:    func() *fivm.DB { return d },
		Queue: q,
	})
	if err != nil {
		panic(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()
	defer func() {
		srv.Shutdown(context.Background()) // drains requests and closes l
		<-served
	}()
	base := "http://" + l.Addr().String()

	// DDL and ingest over the wire; the epoch headers on the ingest
	// response name the batch that made these writes visible.
	resp, err := http.Post(base+"/exec", "application/json", strings.NewReader(
		`{"sql":"CREATE VIEW sums AS SELECT A, SUM(B * C) FROM R NATURAL JOIN S GROUP BY A"}`))
	if err != nil {
		panic(err)
	}
	resp.Body.Close()
	resp, err = http.Post(base+"/apply", "application/json", strings.NewReader(
		`{"updates":[
			{"rel":"R","mult":1,"tuples":[[1,3]]},
			{"rel":"S","mult":1,"tuples":[[1,5]]}]}`))
	if err != nil {
		panic(err)
	}
	resp.Body.Close()
	fmt.Println("applied:", resp.Header.Get("X-Fivm-Applied"))

	// A point lookup; all reads within one request see one epoch.
	resp, err = http.Get(base + "/view/sums/lookup?key=1")
	if err != nil {
		panic(err)
	}
	var out struct {
		Value float64 `json:"value"`
		Found bool    `json:"found"`
	}
	json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	fmt.Println("sum:", out.Value, out.Found)
	// Output:
	// applied: 1
	// sum: 15 true
}
