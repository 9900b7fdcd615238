package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"incregraph"
	"incregraph/internal/gen"
)

var (
	fuzzMuxOnce sync.Once
	fuzzMux     *http.ServeMux
)

// fuzzQueryMux builds one small converged serve graph shared by every fuzz
// iteration: the handler is stateless per request, so reuse is safe and
// keeps iterations at memory speed.
func fuzzQueryMux() *http.ServeMux {
	fuzzMuxOnce.Do(func() {
		g := incregraph.New(incregraph.Config{Ranks: 2, Serve: true, ServeEvery: time.Millisecond}, incregraph.BFS())
		g.InitVertex(0, 0)
		if _, err := g.Run(incregraph.StreamEdges(gen.Path(32))); err != nil {
			panic(err)
		}
		fuzzMux = newDebugMux(g)
	})
	return fuzzMux
}

// FuzzQueryRequest throws arbitrary bodies at POST /query: any input may be
// rejected (4xx) but must never panic or produce a 5xx other than the
// serve-disabled 503 (which can't happen here — serve is on).
func FuzzQueryRequest(f *testing.F) {
	f.Add(`{"algo":0,"queries":[{"op":"point","vertex":5}]}`)
	f.Add(`{"algo":0,"queries":[{"op":"batch","vertices":[0,1,2]}]}`)
	f.Add(`{"algo":0,"queries":[{"op":"topk","k":3,"dir":"max"}]}`)
	f.Add(`{"algo":0,"queries":[{"op":"neighborhood","vertex":0,"depth":2,"limit":10}]}`)
	f.Add(`{"algo":9,"queries":[{"op":"point","vertex":5}]}`)
	f.Add(`{"algo":-1,"queries":[{"op":"`)
	f.Add(`{"algo":0,"queries":[{"op":"topk","k":-99},{"op":"batch"}]}`)
	f.Add(`[1,2,3]`)
	f.Add(`{"algo":1e99,"queries":null}`)
	f.Add("\x00\xff garbage")
	f.Fuzz(func(t *testing.T, body string) {
		mux := fuzzQueryMux()
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body))
		mux.ServeHTTP(rec, req)
		if rec.Code >= 500 && rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("input %q: status %d: %s", body, rec.Code, rec.Body)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json; charset=utf-8" {
			t.Fatalf("input %q: Content-Type %q", body, ct)
		}
	})
}
