package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"
)

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(New().Handler())
	t.Cleanup(ts.Close)
	return ts
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK && out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp
}

func postJSON(t *testing.T, url string, body any, out any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", strings.NewReader(string(b)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK && out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp
}

func TestIndexAndDatasetPages(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("index status %d", resp.StatusCode)
	}
	var sb strings.Builder
	buf := make([]byte, 64*1024)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	html := sb.String()
	for _, want := range []string{"TeCoRe", "running-example", "footballdb-sample", "wikidata-sample"} {
		if !strings.Contains(html, want) {
			t.Errorf("index missing %q", want)
		}
	}

	resp2, err := http.Get(ts.URL + "/dataset/running-example")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("dataset page status %d", resp2.StatusCode)
	}

	resp3, _ := http.Get(ts.URL + "/dataset/nope")
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusNotFound {
		t.Errorf("missing dataset page status %d", resp3.StatusCode)
	}
}

func TestListDatasets(t *testing.T) {
	ts := newTestServer(t)
	var infos []DatasetInfo
	getJSON(t, ts.URL+"/api/datasets", &infos)
	if len(infos) != 3 {
		t.Fatalf("datasets = %d", len(infos))
	}
	byName := map[string]DatasetInfo{}
	for _, d := range infos {
		byName[d.Name] = d
	}
	if byName["running-example"].Facts != 5 {
		t.Errorf("running example facts = %d", byName["running-example"].Facts)
	}
	if byName["footballdb-sample"].Facts < 800 {
		t.Errorf("football sample facts = %d", byName["footballdb-sample"].Facts)
	}
	if !strings.Contains(byName["running-example"].Program, "disjoint") {
		t.Error("default program missing")
	}
}

func TestPredicateAutocomplete(t *testing.T) {
	ts := newTestServer(t)
	var preds []string
	getJSON(t, ts.URL+"/api/predicates?dataset=running-example&q=co", &preds)
	if len(preds) != 1 || preds[0] != "coach" {
		t.Errorf("autocomplete = %v", preds)
	}
	getJSON(t, ts.URL+"/api/predicates?dataset=running-example", &preds)
	if len(preds) != 3 {
		t.Errorf("all predicates = %v", preds)
	}
	resp := getJSON(t, ts.URL+"/api/predicates?dataset=unknown", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown dataset status %d", resp.StatusCode)
	}
}

func TestConstraintBuilderEndpoint(t *testing.T) {
	ts := newTestServer(t)
	var out map[string]string
	postJSON(t, ts.URL+"/api/constraint", ConstraintRequest{
		Name: "c2", Pred1: "coach", Pred2: "coach", Relation: "disjoint", DistinctObjects: true,
	}, &out)
	rule := out["rule"]
	for _, want := range []string{"c2:", "disjoint(t, t')", "y != z", "w = inf"} {
		if !strings.Contains(rule, want) {
			t.Errorf("built rule missing %q: %s", want, rule)
		}
	}
	// Functional variant.
	postJSON(t, ts.URL+"/api/constraint", ConstraintRequest{
		Pred1: "bornIn", Functional: true,
	}, &out)
	if !strings.Contains(out["rule"], "y = z") {
		t.Errorf("functional rule = %s", out["rule"])
	}
	// Invalid relation is a 400.
	resp := postJSON(t, ts.URL+"/api/constraint", ConstraintRequest{
		Pred1: "a", Pred2: "b", Relation: "sideways",
	}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid relation status %d", resp.StatusCode)
	}
}

func TestValidateEndpoint(t *testing.T) {
	ts := newTestServer(t)
	var out map[string]any
	postJSON(t, ts.URL+"/api/validate", ValidateRequest{
		Rules:   "f1: quad(x, playsFor, y, t) -> quad(x, worksFor, y, t) w = 2.5",
		Solver:  "psl",
		Dataset: "running-example",
	}, &out)
	if out["ok"] != true {
		t.Errorf("validate = %v", out)
	}
	missing, _ := out["missingPredicates"].([]any)
	if len(missing) != 1 || missing[0] != "worksFor" {
		t.Errorf("missingPredicates = %v", missing)
	}
	// Hard inference rule rejected for PSL.
	postJSON(t, ts.URL+"/api/validate", ValidateRequest{
		Rules:  "f1: quad(x, playsFor, y, t) -> quad(x, worksFor, y, t) w = inf",
		Solver: "psl",
	}, &out)
	if out["ok"] != false {
		t.Errorf("hard rule for psl: %v", out)
	}
	// Syntax error reported.
	postJSON(t, ts.URL+"/api/validate", ValidateRequest{Rules: "broken ->"}, &out)
	if out["ok"] != false {
		t.Errorf("syntax error: %v", out)
	}
}

func TestSolveEndpointRunningExample(t *testing.T) {
	ts := newTestServer(t)
	for _, solver := range []string{"mln", "psl"} {
		var out SolveResponse
		postJSON(t, ts.URL+"/api/solve", SolveRequest{
			Dataset: "running-example", Solver: solver,
		}, &out)
		if out.Stats.RemovedFacts != 1 {
			t.Errorf("%s: removed = %d", solver, out.Stats.RemovedFacts)
		}
		if len(out.Removed) != 1 || !strings.Contains(out.Removed[0], "Napoli") {
			t.Errorf("%s: removed facts = %v", solver, out.Removed)
		}
		if out.Stats.InferredFacts != 1 || !strings.Contains(out.Inferred[0], "worksFor") {
			t.Errorf("%s: inferred = %v", solver, out.Inferred)
		}
	}
}

func TestSolveEndpointCustomRules(t *testing.T) {
	ts := newTestServer(t)
	var out SolveResponse
	postJSON(t, ts.URL+"/api/solve", SolveRequest{
		Dataset: "running-example",
		Solver:  "mln",
		Rules:   "# no constraints at all\nf1: quad(x, playsFor, y, t) -> quad(x, worksFor, y, t) w = 2.5",
	}, &out)
	if out.Stats.RemovedFacts != 0 {
		t.Errorf("no constraints: removed = %d", out.Stats.RemovedFacts)
	}
}

func TestSolveEndpointErrors(t *testing.T) {
	ts := newTestServer(t)
	if resp := postJSON(t, ts.URL+"/api/solve", SolveRequest{Dataset: "nope", Solver: "mln"}, nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown dataset status %d", resp.StatusCode)
	}
	if resp := postJSON(t, ts.URL+"/api/solve", SolveRequest{Dataset: "running-example", Solver: "zzz"}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown solver status %d", resp.StatusCode)
	}
	if resp := postJSON(t, ts.URL+"/api/solve", SolveRequest{Dataset: "running-example", Solver: "mln", Rules: "bad ->"}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad rules status %d", resp.StatusCode)
	}
}

func TestUploadTQuads(t *testing.T) {
	ts := newTestServer(t)
	var info DatasetInfo
	postJSON(t, ts.URL+"/api/datasets", UploadRequest{
		Name:   "mine",
		TQuads: "a p b [1,2] 0.5\na p c [1,2] 0.6",
	}, &info)
	if info.Facts != 2 {
		t.Errorf("uploaded facts = %d", info.Facts)
	}
	var preds []string
	getJSON(t, ts.URL+"/api/predicates?dataset=mine", &preds)
	if len(preds) != 1 || preds[0] != "p" {
		t.Errorf("uploaded predicates = %v", preds)
	}
}

func TestUploadGenerators(t *testing.T) {
	ts := newTestServer(t)
	var info DatasetInfo
	postJSON(t, ts.URL+"/api/datasets", UploadRequest{
		Name: "fb", Generate: "football", Players: 50, Seed: 2,
	}, &info)
	if info.Facts < 100 {
		t.Errorf("generated football facts = %d", info.Facts)
	}
	if !strings.Contains(info.Program, "noTwoTeams") {
		t.Error("football program missing")
	}
	resp := postJSON(t, ts.URL+"/api/datasets", UploadRequest{Name: "x", Generate: "zzz"}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown generator status %d", resp.StatusCode)
	}
	resp = postJSON(t, ts.URL+"/api/datasets", UploadRequest{TQuads: "a p b [1,2]"}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing name status %d", resp.StatusCode)
	}
}

// TestUploadGeneratorsBounded: a few bytes of JSON must not make a
// generator build billions of facts. Negative parameters and requests
// expected to exceed maxGeneratedFacts get 400 before anything is
// generated; the seeded samples' parameters still load.
func TestUploadGeneratorsBounded(t *testing.T) {
	srv := New()
	post := func(body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/datasets", strings.NewReader(body)))
		return rec
	}
	for _, body := range []string{
		`{"name":"x","generate":"football","players":1000000000}`,
		`{"name":"x","generate":"football","players":1000,"noise":1000000}`,
		`{"name":"x","generate":"football","players":-1}`,
		`{"name":"x","generate":"football","players":10,"noise":-0.5}`,
		`{"name":"x","generate":"wikidata","scale":1}`,
		`{"name":"x","generate":"wikidata","scale":-0.1}`,
		`{"name":"x","generate":"wikidata","scale":0.001,"noise":-1}`,
	} {
		if rec := post(body); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", body, rec.Code)
		}
	}
	if _, ok := srv.dataset("x"); ok {
		t.Error("a refused request created a dataset")
	}
	for _, body := range []string{
		`{"name":"fb","generate":"football","players":400,"noise":0.3,"seed":1}`,
		`{"name":"wd","generate":"wikidata","scale":0.001,"seed":1}`,
	} {
		if rec := post(body); rec.Code != http.StatusOK {
			t.Errorf("%s: status %d, want 200: %s", body, rec.Code, rec.Body)
		}
	}
}

func TestSolveResponseTruncation(t *testing.T) {
	srv := New()
	srv.MaxFactsInResponse = 2
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	var out SolveResponse
	postJSON(t, ts.URL+"/api/solve", SolveRequest{Dataset: "running-example", Solver: "mln"}, &out)
	if len(out.Kept) > 2 || !out.Truncated {
		t.Errorf("truncation: kept=%d truncated=%v", len(out.Kept), out.Truncated)
	}
}

func TestSuggestEndpoint(t *testing.T) {
	ts := newTestServer(t)
	var out []SuggestedConstraint
	getJSON(t, ts.URL+"/api/suggest?dataset=footballdb-sample", &out)
	if len(out) == 0 {
		t.Fatal("no suggestions for the football sample")
	}
	foundDisjoint := false
	for _, s := range out {
		if s.Kind == "disjoint" && strings.Contains(s.Rule, "playsFor") {
			foundDisjoint = true
		}
		if s.Confidence <= 0 || s.Confidence > 1 || s.Support <= 0 {
			t.Errorf("suspicious suggestion %+v", s)
		}
	}
	if !foundDisjoint {
		t.Error("playsFor disjointness not suggested")
	}
	resp := getJSON(t, ts.URL+"/api/suggest?dataset=nope", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown dataset status %d", resp.StatusCode)
	}
}

// endlessBody never ends: the oversize request below declares its
// length and must be refused before a byte of it is buffered.
type endlessBody struct{}

func (endlessBody) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// TestRequestBodyBounded: every decoding endpoint refuses a body over
// maxBodyBytes with 413, and still ignores fields it does not know
// (clients of older servers keep sending retired ones).
func TestRequestBodyBounded(t *testing.T) {
	srv := New()
	for _, path := range []string{"/api/datasets", "/api/solve", "/api/validate", "/api/constraint", "/api/sessions"} {
		req := httptest.NewRequest(http.MethodPost, path, endlessBody{})
		req.ContentLength = maxBodyBytes + 1
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with an oversize body: status %d, want 413", path, rec.Code)
		}
	}

	ts := newTestServer(t)
	var info SessionInfo
	postJSON(t, ts.URL+"/api/sessions", CreateSessionRequest{TQuads: "CR coach Chelsea [2000,2004] 0.9"}, &info)
	var solve SessionSolveResponse
	resp := doJSON(t, http.MethodPost, ts.URL+"/api/sessions/"+info.ID+"/solve",
		`{"solver":"mln","componentSolve":true,"rebuildPlan":true}`, &solve)
	if resp.StatusCode != http.StatusOK || solve.Stats.KeptFacts != 1 {
		t.Errorf("solve with a retired field: status %d, stats %+v", resp.StatusCode, solve.Stats)
	}
}

// TestRunTimesOutSlowClients: the server Run starts closes a connection
// whose request header never completes, one whose body stalls, and an
// idle keep-alive one, each once its own timeout passes (the other two
// are set long, so each case shows its own timeout at work).
func TestRunTimesOutSlowClients(t *testing.T) {
	defer func(h, r, i time.Duration) { readHeaderTimeout, readTimeout, idleTimeout = h, r, i }(
		readHeaderTimeout, readTimeout, idleTimeout)
	const short, long = 200 * time.Millisecond, time.Minute
	cases := []struct {
		name               string
		header, read, idle time.Duration
		request            string
		answered           bool // a whole request: read its response first
	}{
		{"unfinished header", short, long, long, "GET /api/datasets HTTP/1.1\r\nHost: x\r\n", false},
		{"stalled body", long, short, long, "POST /api/validate HTTP/1.1\r\nHost: x\r\nContent-Length: 100\r\n\r\n{\"rules\":", false},
		{"idle keep-alive", long, long, short, "GET /api/datasets HTTP/1.1\r\nHost: x\r\n\r\n", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			readHeaderTimeout, readTimeout, idleTimeout = tc.header, tc.read, tc.idle
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			addr := ln.Addr().String()
			ln.Close()
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() { done <- New().Run(ctx, addr, 0) }()
			defer func() {
				cancel()
				if err := <-done; err != nil {
					t.Errorf("Run: %v", err)
				}
			}()

			var conn net.Conn
			for start := time.Now(); conn == nil; time.Sleep(10 * time.Millisecond) {
				if conn, err = net.Dial("tcp", addr); err != nil && time.Since(start) > 5*time.Second {
					t.Fatalf("server never listened: %v", err)
				}
			}
			defer conn.Close()
			if _, err := io.WriteString(conn, tc.request); err != nil {
				t.Fatal(err)
			}
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			r := bufio.NewReader(conn)
			if tc.answered {
				resp, err := http.ReadResponse(r, nil)
				if err != nil {
					t.Fatal(err)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("whole request: status %d", resp.StatusCode)
				}
			}
			start := time.Now()
			if _, err := io.ReadAll(r); errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("connection still open after %v", time.Since(start))
			}
		})
	}
}
