package tecore_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"testing"

	tecore "repro"
	"repro/internal/server"
	"repro/internal/translate"
)

// Degenerate inputs — an empty program, constraints without inference
// rules, inference rules without constraints, an empty graph, and a
// delta pass whose facts match no rule — must flow through every entry
// point at every worker count without panicking and come out as the
// well-formed identity: every input fact accounted for, nothing removed
// or inferred that the program does not call for.
//
// The components axis sends the retired component-solve switch: bench/
// and older clients still set SolveOptions' deprecated field and the
// "componentSolve" JSON key, and both must stay accepted and inert. It
// goes when the deprecated fields do.
//
// The mln-cpi rows cover the retired cutting-plane switch and the
// whole-network oracle that replaced it: over the wire every request
// carries the "cuttingPlane" key older clients send, which must be
// accepted and ignored (an MLN solve); through the Go API the
// cutting-plane oracle the property suites compare against must give
// the same well-formed identity as the session.

const (
	degenerateFacts = `
CR coach Chelsea [2000,2004] 0.9
CR coach Leicester [2015,2017] 0.7
CR playsFor Palermo [1984,1986] 0.9
CR birthDate 1951 [1951,2017] 1.0
CR coach Napoli [2001,2003] 0.6
`
	degenerateConstraint = "c2: quad(x, coach, y, t) ^ quad(x, coach, z, t') ^ y != z -> disjoint(t, t') w = inf\n"
	degenerateRule       = "f1: quad(x, playsFor, y, t) -> quad(x, worksFor, y, t) w = 2.5\n"
	// degenerateProbe matches no rule body: the delta pass it triggers
	// plans zero join tasks.
	degenerateProbe = "CR likes Pizza [2000,2001] 0.8"
)

type degenerateCase struct {
	name, facts, rules string
	// total/removed are the expected input-fact counts; inferred counts
	// derived facts on the MAP backends (the greedy baseline chains hard
	// implications only and derives nothing from the soft f1).
	total, removed, inferred int
}

var degenerateCases = []degenerateCase{
	{"empty-program", degenerateFacts, "", 5, 0, 0},
	{"constraints-only", degenerateFacts, degenerateConstraint, 5, 1, 0},
	{"rules-only", degenerateFacts, degenerateRule, 5, 0, 1},
	{"empty-graph", "", degenerateConstraint + degenerateRule, 0, 0, 0},
}

type degenerateSolver struct {
	name   string
	solver tecore.Solver
	// cpi sends the retired cuttingPlane key over the wire and checks
	// the cutting-plane oracle beside the Go API's session.
	cpi bool
}

var degenerateSolvers = []degenerateSolver{
	{"mln", tecore.SolverMLN, false},
	{"mln-cpi", tecore.SolverMLN, true},
	{"psl", tecore.SolverPSL, false},
	{"greedy", translate.SolverGreedy, false},
}

func degenerateWorkers() []int {
	ws := []int{1, 2}
	if n := runtime.NumCPU(); n > 2 {
		ws = append(ws, n)
	}
	return ws
}

// checkDegenerate asserts the outcome counts; extra is the number of
// probe facts added on top of the case's graph (always kept).
func checkDegenerate(t *testing.T, st tecore.Stats, nKept, nRemoved, nInferred int, c degenerateCase, sv degenerateSolver, extra int) {
	t.Helper()
	inferred := c.inferred
	if sv.solver == translate.SolverGreedy {
		inferred = 0
	}
	wantKept := c.total - c.removed + extra
	if st.TotalFacts != c.total+extra || st.KeptFacts != wantKept || st.RemovedFacts != c.removed || st.InferredFacts != inferred {
		t.Fatalf("stats %+v, want total %d kept %d removed %d inferred %d", st, c.total+extra, wantKept, c.removed, inferred)
	}
	if nKept != wantKept || nRemoved != c.removed || nInferred != inferred {
		t.Fatalf("lists hold %d kept / %d removed / %d inferred, want %d / %d / %d",
			nKept, nRemoved, nInferred, wantKept, c.removed, inferred)
	}
}

// setLegacyComponentFlag sets the deprecated, ignored ComponentSolve
// field of a SolveOptions by name, so this file is not one more
// call site to clean up when the field is deleted.
func setLegacyComponentFlag(opts *tecore.SolveOptions) {
	reflect.ValueOf(opts).Elem().FieldByName("ComponentSolve").SetBool(true)
}

// withLegacyKeys re-encodes a request body with each retired key set to
// true.
func withLegacyKeys(t *testing.T, body any, keys ...string) any {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(buf, &m); err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		m[k] = true
	}
	return m
}

func forEachDegenerate(t *testing.T, fn func(t *testing.T, c degenerateCase, sv degenerateSolver, components bool, workers int)) {
	for _, c := range degenerateCases {
		for _, sv := range degenerateSolvers {
			for _, components := range []bool{false, true} {
				for _, workers := range degenerateWorkers() {
					name := fmt.Sprintf("%s/%s/components=%v/parallel=%d", c.name, sv.name, components, workers)
					t.Run(name, func(t *testing.T) { fn(t, c, sv, components, workers) })
				}
			}
		}
	}
}

// TestDegenerateInputsSession drives the Go API: a one-shot solve on a
// fresh session, then the same session through a delta pass in which
// every rule is filtered out — incrementally, for every solver kernel.
func TestDegenerateInputsSession(t *testing.T) {
	forEachDegenerate(t, func(t *testing.T, c degenerateCase, sv degenerateSolver, components bool, workers int) {
		s := tecore.NewSession()
		if err := s.LoadGraphText(c.facts); err != nil {
			t.Fatal(err)
		}
		if err := s.LoadProgramText(c.rules); err != nil {
			t.Fatal(err)
		}
		opts := tecore.SolveOptions{Solver: sv.solver, Parallelism: workers}
		if components {
			setLegacyComponentFlag(&opts)
		}
		res, err := s.Solve(opts)
		if err != nil {
			t.Fatalf("cold solve: %v", err)
		}
		checkDegenerate(t, res.Stats, res.Kept.Len(), res.Removed.Len(), res.Inferred.Len(), c, sv, 0)
		if sv.cpi {
			ref := wholeNetworkReference(t, c.rules, s.Store().Graph(), opts)
			checkDegenerate(t, ref.Stats, ref.Kept.Len(), ref.Removed.Len(), ref.Inferred.Len(), c, sv, 0)
		}

		probe, err := tecore.ParseGraphString(degenerateProbe)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.AddFact(probe[0]); err != nil {
			t.Fatal(err)
		}
		res, err = s.Solve(opts)
		if err != nil {
			t.Fatalf("delta solve: %v", err)
		}
		if !res.Incremental || res.Delta == nil || res.Stats.Plan == nil {
			t.Fatalf("delta solve left the session pipeline: incremental %v, delta %v, plan %v",
				res.Incremental, res.Delta, res.Stats.Plan)
		}
		checkDegenerate(t, res.Stats, res.Kept.Len(), res.Removed.Len(), res.Inferred.Len(), c, sv, 1)
	})
}

// TestDegenerateInputsHTTP drives the same table over the wire: the
// stateless POST /api/solve, then a session through create, solve, a
// filtered-out facts delta, re-solve, a batch with an inline solve, and
// the outcome read.
func TestDegenerateInputsHTTP(t *testing.T) {
	ts := httptest.NewServer(server.New().Handler())
	defer ts.Close()
	post := func(t *testing.T, path string, body, out any) {
		t.Helper()
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: status %d", path, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
	}
	checkResp := func(t *testing.T, r server.SolveResponse, c degenerateCase, sv degenerateSolver, extra int) {
		t.Helper()
		checkDegenerate(t, r.Stats, len(r.Kept), len(r.Removed), len(r.Inferred), c, sv, extra)
	}
	for _, c := range degenerateCases {
		var info server.DatasetInfo
		post(t, "/api/datasets", server.UploadRequest{Name: c.name, TQuads: c.facts}, &info)
	}
	forEachDegenerate(t, func(t *testing.T, c degenerateCase, sv degenerateSolver, components bool, workers int) {
		var keys []string
		if components {
			keys = append(keys, "componentSolve")
		}
		if sv.cpi {
			keys = append(keys, "cuttingPlane")
		}
		legacy := func(body any) any { return withLegacyKeys(t, body, keys...) }
		var solved server.SolveResponse
		post(t, "/api/solve", legacy(server.SolveRequest{Dataset: c.name, Rules: c.rules, Solver: sv.solver.String(),
			Parallelism: workers}), &solved)
		checkResp(t, solved, c, sv, 0)

		var info server.SessionInfo
		post(t, "/api/sessions", server.CreateSessionRequest{TQuads: c.facts, Rules: c.rules}, &info)
		base := "/api/sessions/" + info.ID
		req := server.SessionSolveRequest{Solver: sv.solver.String(), Parallelism: workers}
		var ssolved server.SessionSolveResponse
		post(t, base+"/solve", legacy(req), &ssolved)
		checkResp(t, ssolved.SolveResponse, c, sv, 0)

		var facts server.FactsResponse
		post(t, base+"/facts", server.FactsRequest{TQuads: degenerateProbe}, &facts)
		if facts.Added != 1 {
			t.Fatalf("probe add: %+v", facts)
		}
		ssolved = server.SessionSolveResponse{}
		post(t, base+"/solve", legacy(req), &ssolved)
		checkResp(t, ssolved.SolveResponse, c, sv, 1)

		var batch server.BatchResponse
		post(t, base+"/batch", server.BatchRequest{Remove: degenerateProbe, Solve: &req}, &batch)
		if batch.Removed != 1 || batch.Solve == nil {
			t.Fatalf("batch: %+v", batch)
		}
		checkResp(t, batch.Solve.SolveResponse, c, sv, 0)

		resp, err := http.Get(ts.URL + base + "/outcome")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var oc server.SessionOutcomeResponse
		if err := json.NewDecoder(resp.Body).Decode(&oc); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET outcome: status %d, %v", resp.StatusCode, err)
		}
		checkResp(t, oc.SolveResponse, c, sv, 0)
	})
}
