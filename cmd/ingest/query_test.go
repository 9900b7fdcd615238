package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"incregraph"
	"incregraph/internal/gen"
)

// runServeGraph runs BFS over a path graph with the read plane on, so every
// /query verb has converged values to serve (vertex i is at depth i from 0,
// BFS encodes depth d as value d+1).
func runServeGraph(t *testing.T) *incregraph.Graph {
	t.Helper()
	g := incregraph.New(incregraph.Config{Ranks: 2, Serve: true, ServeEvery: time.Millisecond}, incregraph.BFS())
	g.InitVertex(0, 0)
	if _, err := g.Run(incregraph.StreamEdges(gen.Path(64))); err != nil {
		t.Fatal(err)
	}
	return g
}

// postQuery POSTs a /query body and decodes the response; wantCode gates
// whether a queryResponse or an error body is expected.
func postQuery(t *testing.T, mux *http.ServeMux, body string, wantCode int) queryResponse {
	t.Helper()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body))
	mux.ServeHTTP(rec, req)
	if rec.Code != wantCode {
		t.Fatalf("POST /query %s: status %d (want %d): %s", body, rec.Code, wantCode, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json; charset=utf-8" {
		t.Fatalf("/query Content-Type = %q", ct)
	}
	var resp queryResponse
	if wantCode == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("/query response does not decode: %v\n%s", err, rec.Body)
		}
	} else {
		var e map[string]string
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e["error"] == "" {
			t.Fatalf("/query error body is not {\"error\":...}: %s", rec.Body)
		}
	}
	return resp
}

func TestQueryPoint(t *testing.T) {
	mux := newDebugMux(runServeGraph(t))
	resp := postQuery(t, mux, `{"algo":0,"queries":[{"op":"point","vertex":5}]}`, http.StatusOK)
	if resp.Epoch == 0 || len(resp.Results) != 1 {
		t.Fatalf("response: %+v", resp)
	}
	v := resp.Results[0].Values[0]
	if !v.Found || v.Vertex != 5 || v.Value != 6 { // BFS depth 5 encodes as 6
		t.Fatalf("point(5) = %+v, want depth-5 value 6", v)
	}
}

func TestQueryBatchAndUnknownVertex(t *testing.T) {
	mux := newDebugMux(runServeGraph(t))
	resp := postQuery(t, mux,
		`{"algo":0,"queries":[{"op":"batch","vertices":[0,3,9999]}]}`, http.StatusOK)
	vals := resp.Results[0].Values
	if len(vals) != 3 {
		t.Fatalf("batch returned %d values", len(vals))
	}
	if !vals[0].Found || vals[0].Value != 1 || !vals[1].Found || vals[1].Value != 4 {
		t.Fatalf("batch known vertices: %+v", vals)
	}
	if vals[2].Found {
		t.Fatalf("vertex 9999 reported found: %+v", vals[2])
	}
}

func TestQueryTopK(t *testing.T) {
	mux := newDebugMux(runServeGraph(t))
	resp := postQuery(t, mux,
		`{"algo":0,"queries":[{"op":"topk","k":3,"dir":"min"}]}`, http.StatusOK)
	vals := resp.Results[0].Values
	if len(vals) != 3 {
		t.Fatalf("topk returned %d values", len(vals))
	}
	// The path's smallest BFS values are 1,2,3 at vertices 0,1,2.
	for i, v := range vals {
		if v.Vertex != uint64(i) || v.Value != uint64(i+1) {
			t.Fatalf("topk[%d] = %+v", i, v)
		}
	}
}

func TestQueryNeighborhood(t *testing.T) {
	mux := newDebugMux(runServeGraph(t))
	resp := postQuery(t, mux,
		`{"algo":0,"queries":[{"op":"neighborhood","vertex":10,"depth":2,"limit":100}]}`, http.StatusOK)
	vals := resp.Results[0].Values
	// Path graph: {10} ∪ {9,11} ∪ {8,12} = 5 nodes within 2 hops.
	if len(vals) != 5 || vals[0].Vertex != 10 || vals[0].Depth != 0 {
		t.Fatalf("neighborhood: %+v", vals)
	}
	for _, v := range vals {
		if !v.Found || v.Value != v.Vertex+1 {
			t.Fatalf("neighborhood node %+v, want value = vertex+1", v)
		}
	}
}

func TestQueryMixedBatchMinEpoch(t *testing.T) {
	mux := newDebugMux(runServeGraph(t))
	resp := postQuery(t, mux,
		`{"algo":0,"queries":[{"op":"point","vertex":1},{"op":"topk"},{"op":"neighborhood","vertex":0}]}`,
		http.StatusOK)
	if len(resp.Results) != 3 {
		t.Fatalf("results: %+v", resp.Results)
	}
	for _, r := range resp.Results {
		if r.Epoch < resp.Epoch {
			t.Fatalf("top-level epoch %d exceeds result epoch %d (%+v)", resp.Epoch, r.Epoch, r)
		}
	}
}

func TestQueryEmptyGraph(t *testing.T) {
	g := incregraph.New(incregraph.Config{Serve: true}, incregraph.BFS())
	mux := newDebugMux(g)
	resp := postQuery(t, mux,
		`{"algo":0,"queries":[{"op":"point","vertex":1},{"op":"topk"},{"op":"neighborhood","vertex":0}]}`,
		http.StatusOK)
	if v := resp.Results[0].Values[0]; v.Found {
		t.Fatalf("empty graph served a found vertex: %+v", v)
	}
	if n := len(resp.Results[1].Values); n != 0 {
		t.Fatalf("empty graph topk returned %d entries", n)
	}
	// Neighborhood echoes the (absent) root but never expands it.
	if vals := resp.Results[2].Values; len(vals) != 1 || vals[0].Found {
		t.Fatalf("empty graph neighborhood: %+v", vals)
	}
}

func TestQueryServeDisabled(t *testing.T) {
	g := incregraph.New(incregraph.Config{}, incregraph.BFS())
	mux := newDebugMux(g)
	postQuery(t, mux, `{"algo":0,"queries":[{"op":"point","vertex":1}]}`, http.StatusServiceUnavailable)
}

func TestQueryRejectsBadRequests(t *testing.T) {
	mux := newDebugMux(runServeGraph(t))
	for _, body := range []string{
		``,
		`{`,
		`42`,
		`{"algo":0,"queries":[{"op":"point"}], "extra": true}`,
		`{"algo":1,"queries":[{"op":"point","vertex":1}]}`,  // algo out of range
		`{"algo":-1,"queries":[{"op":"point","vertex":1}]}`, // negative algo
		`{"algo":0,"queries":[]}`,
		`{"algo":0,"queries":[{"op":"scan"}]}`,
		`{"algo":0,"queries":[{"op":"batch"}]}`,
		`{"algo":0,"queries":[{"op":"topk","k":99999}]}`,
		`{"algo":0,"queries":[{"op":"topk","k":-1}]}`,
		`{"algo":0,"queries":[{"op":"topk","dir":"sideways"}]}`,
		`{"algo":0,"queries":[{"op":"neighborhood","vertex":1,"depth":99}]}`,
		`{"algo":0,"queries":[{"op":"neighborhood","vertex":1,"limit":-5}]}`,
	} {
		postQuery(t, mux, body, http.StatusBadRequest)
	}

	// GET is not a query.
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/query", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /query: status %d", rec.Code)
	}

	// Oversized batch and query list.
	big := make([]string, maxBatchVerts+1)
	for i := range big {
		big[i] = "1"
	}
	postQuery(t, mux, fmt.Sprintf(`{"algo":0,"queries":[{"op":"batch","vertices":[%s]}]}`,
		strings.Join(big, ",")), http.StatusBadRequest)
	many := make([]string, maxQueriesPerRq+1)
	for i := range many {
		many[i] = `{"op":"point","vertex":1}`
	}
	postQuery(t, mux, fmt.Sprintf(`{"algo":0,"queries":[%s]}`, strings.Join(many, ",")),
		http.StatusBadRequest)
}

// TestQueryEpochMonotonic drives sequential reads against a live run and
// checks the echoed top-level epoch never regresses (each per-rank epoch is
// non-decreasing, so the min over ranks is too).
func TestQueryEpochMonotonic(t *testing.T) {
	g := incregraph.New(incregraph.Config{Ranks: 2, Serve: true, ServeEvery: 200 * time.Microsecond}, incregraph.BFS())
	g.InitVertex(0, 0)
	if err := g.Start(incregraph.StreamEdges(gen.Path(4096))); err != nil {
		t.Fatal(err)
	}
	mux := newDebugMux(g)
	var last uint64
	for i := 0; i < 300; i++ {
		resp := postQuery(t, mux,
			`{"algo":0,"queries":[{"op":"batch","vertices":[0,1,2,3,4,5,6,7]}]}`, http.StatusOK)
		if resp.Epoch < last {
			t.Fatalf("epoch regressed: %d -> %d at read %d", last, resp.Epoch, i)
		}
		last = resp.Epoch
		if i%20 == 0 {
			time.Sleep(500 * time.Microsecond) // let epochs advance under the reads
		}
	}
	g.Wait()
	if err := g.Err(); err != nil {
		t.Fatal(err)
	}
	// exit() force-publishes, so the post-termination epoch is nonzero and
	// still ahead of everything observed live.
	resp := postQuery(t, mux,
		`{"algo":0,"queries":[{"op":"batch","vertices":[0,1,2,3,4,5,6,7]}]}`, http.StatusOK)
	if resp.Epoch == 0 || resp.Epoch < last {
		t.Fatalf("post-termination epoch %d (last live %d)", resp.Epoch, last)
	}
}

// TestQueryConcurrentWithPauseResume hammers /query from several goroutines
// while the engine is paused and resumed — reads must stay lock-free and
// consistent through barrier churn (run under -race).
func TestQueryConcurrentWithPauseResume(t *testing.T) {
	g := incregraph.New(incregraph.Config{Ranks: 2, Serve: true, ServeEvery: 200 * time.Microsecond}, incregraph.BFS())
	g.InitVertex(0, 0)
	if err := g.Start(incregraph.StreamEdges(gen.Path(8192))); err != nil {
		t.Fatal(err)
	}
	mux := newDebugMux(g)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			var last uint64
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				v := (id*131 + i*7) % 8192
				body := fmt.Sprintf(
					`{"algo":0,"queries":[{"op":"point","vertex":%d},{"op":"topk","k":4}]}`, v)
				rec := httptest.NewRecorder()
				mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body)))
				if rec.Code != http.StatusOK {
					t.Errorf("reader %d: status %d: %s", id, rec.Code, rec.Body)
					return
				}
				var resp queryResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					t.Errorf("reader %d: %v", id, err)
					return
				}
				if resp.Epoch < last {
					t.Errorf("reader %d: epoch regressed %d -> %d", id, last, resp.Epoch)
					return
				}
				last = resp.Epoch
			}
		}(r)
	}
	// Pause/Resume churn on the main goroutine while readers run.
	for i := 0; i < 10; i++ {
		if err := g.Pause(); err != nil {
			break // run may have finished; readers keep going either way
		}
		time.Sleep(time.Millisecond)
		if err := g.Resume(); err != nil {
			t.Fatal(err)
		}
	}
	g.Wait()
	close(stop)
	wg.Wait()
	if err := g.Err(); err != nil {
		t.Fatal(err)
	}
}
