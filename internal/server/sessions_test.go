package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/repair"
)

func doJSON(t *testing.T, method, url string, body string, out any) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp
}

func TestSessionLifecycle(t *testing.T) {
	ts := newTestServer(t)

	var info SessionInfo
	resp := postJSON(t, ts.URL+"/api/sessions", CreateSessionRequest{
		TQuads: `
CR coach Chelsea [2000,2004] 0.9
CR coach Leicester [2015,2017] 0.7
`,
		Rules: "c2: quad(x, coach, y, t) ^ quad(x, coach, z, t') ^ y != z -> disjoint(t, t') w = inf",
	}, &info)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("create session: status %d", resp.StatusCode)
	}
	if info.ID == "" || info.Facts != 2 {
		t.Fatalf("create session: %+v", info)
	}
	base := ts.URL + "/api/sessions/" + info.ID

	// First solve: full grounding, nothing conflicting.
	var solve SessionSolveResponse
	resp = postJSON(t, base+"/solve", SessionSolveRequest{Solver: "mln"}, &solve)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: status %d", resp.StatusCode)
	}
	if solve.Incremental {
		t.Fatal("first solve should not be incremental")
	}
	if solve.Stats.RemovedFacts != 0 {
		t.Fatalf("expected no conflicts, got %+v", solve.Stats)
	}

	// Stream a conflicting fact, then re-solve incrementally.
	var facts FactsResponse
	resp = postJSON(t, base+"/facts", FactsRequest{TQuads: "CR coach Napoli [2001,2003] 0.6"}, &facts)
	if resp.StatusCode != http.StatusOK || facts.Added != 1 {
		t.Fatalf("add facts: status %d resp %+v", resp.StatusCode, facts)
	}
	resp = postJSON(t, base+"/solve", SessionSolveRequest{Solver: "mln"}, &solve)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-solve: status %d", resp.StatusCode)
	}
	if !solve.Incremental {
		t.Fatal("second solve should take the delta path")
	}
	if solve.Stats.RemovedFacts != 1 {
		t.Fatalf("expected the Napoli spell removed, got %+v", solve.Stats)
	}

	// Retract it again: conflict disappears.
	resp = doJSON(t, http.MethodDelete, base+"/facts", `{"tquads":"CR coach Napoli [2001,2003] 0.6"}`, &facts)
	if resp.StatusCode != http.StatusOK || facts.Removed != 1 {
		t.Fatalf("remove facts: status %d resp %+v", resp.StatusCode, facts)
	}
	resp = postJSON(t, base+"/solve", SessionSolveRequest{Solver: "mln"}, &solve)
	if resp.StatusCode != http.StatusOK || solve.Stats.RemovedFacts != 0 || !solve.Incremental {
		t.Fatalf("post-retract solve: status %d resp %+v", resp.StatusCode, solve.Stats)
	}

	// Info and delete.
	resp = getJSON(t, base, &info)
	if resp.StatusCode != http.StatusOK || info.Facts != 2 {
		t.Fatalf("info: status %d %+v", resp.StatusCode, info)
	}
	if resp := doJSON(t, http.MethodDelete, base, "", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d", resp.StatusCode)
	}
	if resp := getJSON(t, base, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("deleted session still reachable: status %d", resp.StatusCode)
	}
}

func TestSessionFromDataset(t *testing.T) {
	ts := newTestServer(t)
	var info SessionInfo
	resp := postJSON(t, ts.URL+"/api/sessions", CreateSessionRequest{Dataset: "running-example"}, &info)
	if resp.StatusCode != http.StatusOK || info.Facts != 5 || info.Rules != 2 {
		t.Fatalf("dataset session: status %d %+v", resp.StatusCode, info)
	}
	var solve SessionSolveResponse
	resp = postJSON(t, ts.URL+"/api/sessions/"+info.ID+"/solve", SessionSolveRequest{Solver: "psl"}, &solve)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: status %d", resp.StatusCode)
	}
	if solve.Stats.RemovedFacts != 1 {
		t.Fatalf("expected 1 removed (Napoli), got %+v", solve.Stats)
	}
}

// TestSessionComponentSolve streams facts through a session: stats
// report the component decomposition, and an incremental re-solve reuses
// the cached solutions of untouched components.
func TestSessionComponentSolve(t *testing.T) {
	ts := newTestServer(t)
	var info SessionInfo
	resp := postJSON(t, ts.URL+"/api/sessions", CreateSessionRequest{
		TQuads: `
CR coach Chelsea [2000,2004] 0.9
CR coach Napoli [2001,2003] 0.6
MX coach Porto [2002,2004] 0.8
MX coach Lyon [2003,2005] 0.7
`,
		Rules: "c2: quad(x, coach, y, t) ^ quad(x, coach, z, t') ^ y != z -> disjoint(t, t') w = inf",
	}, &info)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("create session: status %d", resp.StatusCode)
	}
	base := ts.URL + "/api/sessions/" + info.ID

	var solve SessionSolveResponse
	resp = postJSON(t, base+"/solve", SessionSolveRequest{Solver: "mln"}, &solve)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: status %d", resp.StatusCode)
	}
	cs := solve.Stats.Components
	if cs == nil || cs.Count < 2 {
		t.Fatalf("component stats missing or trivial: %+v", cs)
	}
	if cs.Solved != cs.Count || cs.Reused != 0 {
		t.Fatalf("first solve should solve every component: %+v", cs)
	}
	rs := solve.Stats.Repair
	if rs == nil || rs.Mode != repair.RepairComponents {
		t.Fatalf("response missing component repair stats: %+v", rs)
	}
	if rs.Repaired != rs.Components || rs.Reused != 0 {
		t.Fatalf("first solve should repair every component: %+v", rs)
	}

	// Touch only CR's component; MX's cached solution must be reused.
	var facts FactsResponse
	resp = postJSON(t, base+"/facts", FactsRequest{TQuads: "CR coach Leeds [2003,2004] 0.5"}, &facts)
	if resp.StatusCode != http.StatusOK || facts.Added != 1 {
		t.Fatalf("add facts: status %d resp %+v", resp.StatusCode, facts)
	}
	resp = postJSON(t, base+"/solve", SessionSolveRequest{Solver: "mln"}, &solve)
	if resp.StatusCode != http.StatusOK || !solve.Incremental {
		t.Fatalf("re-solve: status %d incremental=%v", resp.StatusCode, solve.Incremental)
	}
	cs = solve.Stats.Components
	if cs == nil || cs.Reused == 0 {
		t.Fatalf("incremental component re-solve reused nothing: %+v", cs)
	}
	rs = solve.Stats.Repair
	if rs == nil || rs.Reused == 0 || rs.Repaired == 0 {
		t.Fatalf("incremental re-solve should re-repair only the dirtied component: %+v", rs)
	}
}

// TestSessionSolveDeltaMode drives the changelog mode of session
// solves: delta=true returns only what entered or left the outcome
// since the previous solve, omitting the full fact lists. The first
// solve reports the full state as added; an incremental single-fact
// update reports only its own component's churn; a no-op re-solve
// reports an empty changelog.
func TestSessionSolveDeltaMode(t *testing.T) {
	ts := newTestServer(t)
	var info SessionInfo
	resp := postJSON(t, ts.URL+"/api/sessions", CreateSessionRequest{
		TQuads: `
CR coach Chelsea [2000,2004] 0.9
CR coach Napoli [2001,2003] 0.6
MX coach Porto [2002,2004] 0.8
MX coach Lyon [2003,2005] 0.7
`,
		Rules: "c2: quad(x, coach, y, t) ^ quad(x, coach, z, t') ^ y != z -> disjoint(t, t') w = inf",
	}, &info)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("create session: status %d", resp.StatusCode)
	}
	base := ts.URL + "/api/sessions/" + info.ID
	req := SessionSolveRequest{Solver: "mln", Delta: true}

	var solve SessionSolveResponse
	resp = postJSON(t, base+"/solve", req, &solve)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: status %d", resp.StatusCode)
	}
	if solve.Delta == nil {
		t.Fatal("delta mode returned no changelog")
	}
	if len(solve.Kept) != 0 || len(solve.Removed) != 0 || len(solve.Inferred) != 0 || len(solve.Clusters) != 0 {
		t.Fatalf("delta mode returned full lists: %+v", solve.SolveResponse)
	}
	if got := len(solve.Delta.AddedKept); got != solve.Stats.KeptFacts {
		t.Fatalf("first delta added %d kept facts, stats report %d", got, solve.Stats.KeptFacts)
	}
	if got := len(solve.Delta.AddedRemoved); got != solve.Stats.RemovedFacts {
		t.Fatalf("first delta added %d removed facts, stats report %d", got, solve.Stats.RemovedFacts)
	}
	if ocs := solve.Stats.Outcome; ocs == nil || ocs.Mode != repair.OutcomeLive {
		t.Fatalf("delta mode did not run the live outcome: %+v", solve.Stats.Outcome)
	}

	// Single-fact update: the changelog must stay scoped to CR's
	// component (no MX statements churn).
	var facts FactsResponse
	resp = postJSON(t, base+"/facts", FactsRequest{TQuads: "CR coach Leeds [2003,2004] 0.5"}, &facts)
	if resp.StatusCode != http.StatusOK || facts.Added != 1 {
		t.Fatalf("add facts: status %d resp %+v", resp.StatusCode, facts)
	}
	// Fresh response structs per request: omitempty fields absent from a
	// later response must read as empty, not as the previous decode's
	// values.
	var update SessionSolveResponse
	resp = postJSON(t, base+"/solve", req, &update)
	if resp.StatusCode != http.StatusOK || !update.Incremental {
		t.Fatalf("re-solve: status %d incremental=%v", resp.StatusCode, update.Incremental)
	}
	if update.Delta == nil {
		t.Fatal("incremental delta solve returned no changelog")
	}
	var all []string
	for _, list := range [][]string{update.Delta.AddedKept, update.Delta.RemovedKept,
		update.Delta.AddedRemoved, update.Delta.RemovedRemoved} {
		all = append(all, list...)
	}
	if len(all) == 0 {
		t.Fatal("adding a conflicting spell changed nothing")
	}
	for _, line := range all {
		if strings.Contains(line, "MX") {
			t.Fatalf("changelog churned a clean component: %q", line)
		}
	}

	// No-op re-solve: empty changelog.
	var noop SessionSolveResponse
	resp = postJSON(t, base+"/solve", req, &noop)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("no-op solve: status %d", resp.StatusCode)
	}
	d := noop.Delta
	if d == nil {
		t.Fatal("no-op delta solve returned no changelog")
	}
	if n := len(d.AddedKept) + len(d.RemovedKept) + len(d.AddedRemoved) + len(d.RemovedRemoved) +
		len(d.AddedInferred) + len(d.RemovedInferred) + len(d.AddedClusters) + len(d.RemovedClusters); n != 0 {
		t.Fatalf("no-op solve produced a %d-entry changelog: %+v", n, d)
	}

	// The greedy baseline runs the same pipeline: a solver switch drops
	// the read-out caches, so its changelog reports the full outcome as
	// added, still without the full lists.
	var greedy SessionSolveResponse
	resp = postJSON(t, base+"/solve", SessionSolveRequest{Solver: "greedy", Delta: true}, &greedy)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("greedy solve: status %d", resp.StatusCode)
	}
	if greedy.Delta == nil {
		t.Fatal("greedy delta solve returned no changelog")
	}
	if len(greedy.Kept) != 0 {
		t.Fatalf("greedy delta solve returned full lists: %+v", greedy.SolveResponse)
	}
	if got := len(greedy.Delta.AddedKept); got != greedy.Stats.KeptFacts || got == 0 {
		t.Fatalf("greedy delta after a solver switch added %d kept facts, stats report %d", got, greedy.Stats.KeptFacts)
	}
	if ocs := greedy.Stats.Outcome; ocs == nil || ocs.Mode != repair.OutcomeLive {
		t.Fatalf("greedy solve did not run the live outcome: %+v", greedy.Stats.Outcome)
	}
}

// TestSessionSolveDeltaModeCapped: a first delta-mode solve reports the
// whole outcome as added, so on a session larger than the response cap
// every added list comes back capped and flagged truncated, holding
// exactly the first entries of the full-mode response; a later
// single-fact update's changelog fits under the cap and is not
// truncated.
func TestSessionSolveDeltaModeCapped(t *testing.T) {
	srv := New()
	const limit = 3
	srv.MaxFactsInResponse = limit
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	// Eight coaches with two overlapping spells each (a removed fact and
	// a conflict cluster apiece) and a playing spell each (an inferred
	// worksFor).
	var tq strings.Builder
	for i := 0; i < 8; i++ {
		fmt.Fprintf(&tq, "P%d coach A%d [2000,2004] 0.9\nP%d coach B%d [2002,2005] 0.6\nP%d playsFor C%d [1990,1992] 0.8\n",
			i, i, i, i, i, i)
	}
	var info SessionInfo
	resp := postJSON(t, ts.URL+"/api/sessions", CreateSessionRequest{
		TQuads: tq.String(),
		Rules: "f1: quad(x, playsFor, y, t) -> quad(x, worksFor, y, t) w = 2.5\n" +
			"c2: quad(x, coach, y, t) ^ quad(x, coach, z, t') ^ y != z -> disjoint(t, t') w = inf",
	}, &info)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("create session: status %d", resp.StatusCode)
	}
	base := ts.URL + "/api/sessions/" + info.ID

	var first SessionSolveResponse
	if resp := postJSON(t, base+"/solve", SessionSolveRequest{Solver: "mln", Delta: true}, &first); resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: status %d", resp.StatusCode)
	}
	d := first.Delta
	if d == nil || !d.Truncated {
		t.Fatalf("first delta-mode solve over %d facts is not truncated at %d: %+v", info.Facts, limit, d)
	}
	for name, n := range map[string]int{"addedKept": len(d.AddedKept), "addedRemoved": len(d.AddedRemoved),
		"addedInferred": len(d.AddedInferred), "addedClusters": len(d.AddedClusters)} {
		if n != limit {
			t.Errorf("first delta-mode solve: %s holds %d entries, want the cap %d", name, n, limit)
		}
	}
	if n := len(d.RemovedKept) + len(d.RemovedRemoved) + len(d.RemovedInferred) + len(d.RemovedClusters); n != 0 {
		t.Errorf("first delta-mode solve removed %d entries", n)
	}

	// A no-op re-solve in full mode renders the same outcome's lists.
	var full SessionSolveResponse
	if resp := postJSON(t, base+"/solve", SessionSolveRequest{Solver: "mln"}, &full); resp.StatusCode != http.StatusOK {
		t.Fatalf("full solve: status %d", resp.StatusCode)
	}
	if !full.Truncated {
		t.Fatal("full-mode solve is not truncated")
	}
	for _, c := range []struct {
		name        string
		delta, full any
	}{
		{"kept", d.AddedKept, full.Kept},
		{"removed", d.AddedRemoved, full.Removed},
		{"inferred", d.AddedInferred, full.Inferred},
		{"clusters", d.AddedClusters, full.Clusters},
	} {
		if !reflect.DeepEqual(c.delta, c.full) {
			t.Errorf("capped %s: delta mode %v, full mode %v", c.name, c.delta, c.full)
		}
	}

	// Retract one removed spell: its conflict goes, and the changelog is
	// that component's churn, under the cap.
	resp = doJSON(t, http.MethodDelete, base+"/facts", `{"tquads":"P0 coach B0 [2002,2005] 0.6"}`, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("remove fact: status %d", resp.StatusCode)
	}
	var update SessionSolveResponse
	if resp := postJSON(t, base+"/solve", SessionSolveRequest{Solver: "mln", Delta: true}, &update); resp.StatusCode != http.StatusOK {
		t.Fatalf("update solve: status %d", resp.StatusCode)
	}
	u := update.Delta
	if u == nil || u.Truncated {
		t.Fatalf("single-fact update's changelog is truncated: %+v", u)
	}
	if len(u.RemovedRemoved) != 1 || len(u.RemovedClusters) != 1 || !strings.Contains(u.RemovedRemoved[0], "B0") {
		t.Fatalf("single-fact update's changelog: %+v", u)
	}
}

// TestSessionBatchEndpoint drives the combined update endpoint: one
// request carries retractions, assertions and a solve, and the
// response reports the batch's net effect plus the solve result.
func TestSessionBatchEndpoint(t *testing.T) {
	ts := newTestServer(t)
	var info SessionInfo
	resp := postJSON(t, ts.URL+"/api/sessions", CreateSessionRequest{
		TQuads: `
CR coach Chelsea [2000,2004] 0.9
CR coach Napoli [2001,2003] 0.6
`,
		Rules: "c2: quad(x, coach, y, t) ^ quad(x, coach, z, t') ^ y != z -> disjoint(t, t') w = inf",
	}, &info)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("create session: status %d", resp.StatusCode)
	}
	base := ts.URL + "/api/sessions/" + info.ID

	// Swap Napoli for Leeds and solve, all in one request.
	var batch BatchResponse
	resp = postJSON(t, base+"/batch", BatchRequest{
		Add:    "CR coach Leeds [2003,2004] 0.5",
		Remove: "CR coach Napoli [2001,2003] 0.6",
		Solve:  &SessionSolveRequest{Solver: "mln"},
	}, &batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d", resp.StatusCode)
	}
	if batch.Added != 1 || batch.Removed != 1 || batch.Facts != 2 {
		t.Fatalf("batch counts: %+v", batch.FactsResponse)
	}
	if batch.Solve == nil {
		t.Fatal("batch solve requested but no solve result returned")
	}
	// Leeds [2003,2004] 0.5 overlaps Chelsea [2000,2004] 0.9 and loses.
	if batch.Solve.Stats.RemovedFacts != 1 {
		t.Fatalf("batch solve stats: %+v", batch.Solve.Stats)
	}
	if batch.Solve.Epoch != batch.Epoch {
		t.Fatalf("solve epoch %d != batch epoch %d", batch.Solve.Epoch, batch.Epoch)
	}

	// The committed outcome is readable from the snapshot endpoint.
	var oc SessionOutcomeResponse
	resp = getJSON(t, base+"/outcome", &oc)
	if resp.StatusCode != http.StatusOK || !oc.Solved {
		t.Fatalf("outcome: status %d solved=%v", resp.StatusCode, oc.Solved)
	}
	if oc.Epoch != batch.Solve.Epoch || oc.Solver != "mln" {
		t.Fatalf("outcome snapshot: epoch %d solver %q, want %d/mln", oc.Epoch, oc.Solver, batch.Solve.Epoch)
	}
	if len(oc.Removed) != 1 || !strings.Contains(oc.Removed[0], "Leeds") {
		t.Fatalf("outcome removed: %v", oc.Removed)
	}

	// A solve-less batch just applies the delta.
	var counts BatchResponse
	resp = postJSON(t, base+"/batch", BatchRequest{Remove: "CR coach Leeds [2003,2004] 0.5"}, &counts)
	if resp.StatusCode != http.StatusOK || counts.Removed != 1 || counts.Solve != nil {
		t.Fatalf("solve-less batch: status %d %+v", resp.StatusCode, counts)
	}

	// An invalid quad rejects the whole batch before anything applies.
	before := counts.Epoch
	resp = postJSON(t, base+"/batch", BatchRequest{Add: "CR coach X [2005,2006] 7.0"}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid batch: status %d", resp.StatusCode)
	}
	resp = getJSON(t, base, &info)
	if resp.StatusCode != http.StatusOK || info.Epoch != before {
		t.Fatalf("rejected batch moved the epoch: %d -> %d", before, info.Epoch)
	}
}

// TestSessionOutcomeBeforeSolve: the snapshot endpoint reports
// solved=false until the session commits its first solve.
func TestSessionOutcomeBeforeSolve(t *testing.T) {
	ts := newTestServer(t)
	var info SessionInfo
	resp := postJSON(t, ts.URL+"/api/sessions", CreateSessionRequest{
		TQuads: "CR coach Chelsea [2000,2004] 0.9",
	}, &info)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("create session: status %d", resp.StatusCode)
	}
	var oc SessionOutcomeResponse
	resp = getJSON(t, ts.URL+"/api/sessions/"+info.ID+"/outcome", &oc)
	if resp.StatusCode != http.StatusOK || oc.Solved || oc.Solver != "" || len(oc.Kept) != 0 {
		t.Fatalf("pre-solve outcome: status %d %+v", resp.StatusCode, oc)
	}
}

func TestSessionLRUEviction(t *testing.T) {
	srv := NewWithConfig(Config{MaxSessions: 2})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	ids := make([]string, 3)
	for i := range ids {
		var info SessionInfo
		resp := postJSON(t, ts.URL+"/api/sessions", CreateSessionRequest{
			TQuads: fmt.Sprintf("S%d p O [2000,2001] 0.9", i),
		}, &info)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("create %d: status %d", i, resp.StatusCode)
		}
		ids[i] = info.ID
	}
	if got := srv.sessions.len(); got != 2 {
		t.Fatalf("table size = %d, want 2", got)
	}
	// The first (least recently used) session was evicted.
	if resp := getJSON(t, ts.URL+"/api/sessions/"+ids[0], nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted session still reachable: status %d", resp.StatusCode)
	}
	for _, id := range ids[1:] {
		if resp := getJSON(t, ts.URL+"/api/sessions/"+id, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("live session %s: status %d", id, resp.StatusCode)
		}
	}
}
