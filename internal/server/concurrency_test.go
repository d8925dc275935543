package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/kgen"
	"repro/internal/store"
)

// Concurrency suite for the session API — run it under -race. The
// tests pin solves in flight deterministically via the solveGate test
// hook (called with the session lock and an admission slot held) and
// then probe what may and may not proceed around them: solves on other
// sessions, snapshot reads, deletes and evictions of the gated
// session, and admission rejections past the queue bound.

const conflictRules = "c2: quad(x, coach, y, t) ^ quad(x, coach, z, t') ^ y != z -> disjoint(t, t') w = inf"

// newConcurrencyServer starts a server with the given config and a
// gate that blocks solves on the returned gate's sessions.
func newConcurrencyServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := NewWithConfig(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// gateRelease makes the channel a gated solve waits on and a function
// that closes it once. The close is also registered as a cleanup after
// the server's, so it runs first: a test that fails while a solve waits
// at the gate frees that handler instead of leaving the server's Close
// waiting on it.
func gateRelease(t *testing.T) (release <-chan struct{}, open func()) {
	ch := make(chan struct{})
	open = sync.OnceFunc(func() { close(ch) })
	t.Cleanup(open)
	return ch, open
}

// createSession makes a session seeded with facts unique to name.
func createSession(t *testing.T, baseURL, name string) string {
	t.Helper()
	var info SessionInfo
	resp := postJSON(t, baseURL+"/api/sessions", CreateSessionRequest{
		TQuads: fmt.Sprintf(`
%s coach Chelsea [2000,2004] 0.9
%s coach Napoli [2001,2003] 0.6
`, name, name),
		Rules: conflictRules,
	}, &info)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("create session %s: status %d", name, resp.StatusCode)
	}
	return info.ID
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSolvesOnDifferentSessionsOverlap pins session A's solve in
// flight and proves the rest of the API is not behind it: session B's
// solve starts and finishes, A's info and outcome GETs answer from the
// snapshot without blocking, and even deleting A mid-solve succeeds —
// the in-flight solve keeps its own reference and still returns 200.
func TestSolvesOnDifferentSessionsOverlap(t *testing.T) {
	srv, ts := newConcurrencyServer(t, Config{Parallelism: 1, MaxConcurrentSolves: 4})
	idA := createSession(t, ts.URL, "A")
	idB := createSession(t, ts.URL, "B")

	entered := make(chan struct{}, 1)
	release, open := gateRelease(t)
	srv.solveGate = func(id string) {
		if id == idA {
			entered <- struct{}{}
			<-release
		}
	}

	solveA := make(chan int, 1)
	go func() {
		resp := postJSON(t, ts.URL+"/api/sessions/"+idA+"/solve",
			SessionSolveRequest{Solver: "mln"}, nil)
		solveA <- resp.StatusCode
	}()
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("session A's solve never reached the gate")
	}

	// B solves to completion while A's solve is pinned in flight.
	var solveB SessionSolveResponse
	if resp := postJSON(t, ts.URL+"/api/sessions/"+idB+"/solve",
		SessionSolveRequest{Solver: "mln"}, &solveB); resp.StatusCode != http.StatusOK {
		t.Fatalf("B's solve blocked behind A's: status %d", resp.StatusCode)
	}
	if solveB.Stats.RemovedFacts != 1 {
		t.Fatalf("B's solve result: %+v", solveB.Stats)
	}

	// A's reads answer from the committed snapshot, not the live solve.
	var info SessionInfo
	if resp := getJSON(t, ts.URL+"/api/sessions/"+idA, &info); resp.StatusCode != http.StatusOK {
		t.Fatalf("A's info blocked behind its own solve: status %d", resp.StatusCode)
	}
	if info.Facts != 2 {
		t.Fatalf("A's snapshot info: %+v", info)
	}
	var oc SessionOutcomeResponse
	if resp := getJSON(t, ts.URL+"/api/sessions/"+idA+"/outcome", &oc); resp.StatusCode != http.StatusOK {
		t.Fatalf("A's outcome blocked behind its own solve: status %d", resp.StatusCode)
	}
	if oc.Solved {
		t.Fatalf("A has no committed solve yet, outcome reports one: %+v", oc)
	}

	// Deleting A mid-solve drops it from the table without touching the
	// in-flight solve.
	if resp := doJSON(t, http.MethodDelete, ts.URL+"/api/sessions/"+idA, "", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("delete during solve: status %d", resp.StatusCode)
	}
	open()
	if code := <-solveA; code != http.StatusOK {
		t.Fatalf("A's solve after mid-flight delete: status %d", code)
	}
	if resp := getJSON(t, ts.URL+"/api/sessions/"+idA, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("deleted session still reachable: status %d", resp.StatusCode)
	}
}

// TestEvictionDuringSolve fills a one-slot LRU table while its only
// session's solve is pinned in flight: the eviction only unlinks the
// session from the table, so the solve still completes and returns.
func TestEvictionDuringSolve(t *testing.T) {
	srv, ts := newConcurrencyServer(t, Config{Parallelism: 1, MaxSessions: 1, MaxConcurrentSolves: 4})
	idA := createSession(t, ts.URL, "A")

	entered := make(chan struct{}, 1)
	release, open := gateRelease(t)
	srv.solveGate = func(id string) {
		if id == idA {
			entered <- struct{}{}
			<-release
		}
	}

	solveA := make(chan int, 1)
	go func() {
		resp := postJSON(t, ts.URL+"/api/sessions/"+idA+"/solve",
			SessionSolveRequest{Solver: "mln"}, nil)
		solveA <- resp.StatusCode
	}()
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("solve never reached the gate")
	}

	// Creating B evicts A (capacity 1) while A's solve is in flight.
	idB := createSession(t, ts.URL, "B")
	if resp := getJSON(t, ts.URL+"/api/sessions/"+idA, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted session still reachable: status %d", resp.StatusCode)
	}
	open()
	if code := <-solveA; code != http.StatusOK {
		t.Fatalf("solve on evicted session: status %d", code)
	}
	if resp := getJSON(t, ts.URL+"/api/sessions/"+idB, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("survivor session: status %d", resp.StatusCode)
	}
}

// TestSolveAdmissionBackpressure exhausts a 1-slot, 1-queue admission
// gate and checks the third solve is rejected with 429 and a
// Retry-After hint instead of queueing unboundedly. The gate is shared
// across endpoints: the stateless /api/solve is rejected too, before it
// copies the dataset into a store.
func TestSolveAdmissionBackpressure(t *testing.T) {
	srv, ts := newConcurrencyServer(t, Config{
		Parallelism: 1, MaxConcurrentSolves: 1, MaxQueuedSolves: 1,
	})
	idA := createSession(t, ts.URL, "A")
	idB := createSession(t, ts.URL, "B")
	idC := createSession(t, ts.URL, "C")
	cfg := kgen.FootballConfig{Players: 4000, NoiseRatio: 0.5, Seed: 1}
	if resp := postJSON(t, ts.URL+"/api/datasets", UploadRequest{
		Name: "large", Generate: "football", Players: cfg.Players, Noise: cfg.NoiseRatio, Seed: cfg.Seed,
	}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("upload: status %d", resp.StatusCode)
	}
	g := kgen.Football(cfg).Graph
	build := allocated(func() { _ = store.New().AddGraph(g) })

	entered := make(chan struct{}, 1)
	release, open := gateRelease(t)
	srv.solveGate = func(id string) {
		if id == idA {
			entered <- struct{}{}
			<-release
		}
	}

	var wg sync.WaitGroup
	wg.Add(2)
	statuses := make(chan int, 2)
	go func() {
		defer wg.Done()
		resp := postJSON(t, ts.URL+"/api/sessions/"+idA+"/solve",
			SessionSolveRequest{Solver: "mln"}, nil)
		statuses <- resp.StatusCode
	}()
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("gated solve never started")
	}
	// B's solve takes the single queue seat and waits for the slot.
	go func() {
		defer wg.Done()
		resp := postJSON(t, ts.URL+"/api/sessions/"+idB+"/solve",
			SessionSolveRequest{Solver: "mln"}, nil)
		statuses <- resp.StatusCode
	}()
	waitFor(t, "a queued solve", func() bool { return len(srv.adm.queue) == 1 })

	// Slot and queue full: the next solves bounce immediately.
	resp := postJSON(t, ts.URL+"/api/sessions/"+idC+"/solve",
		SessionSolveRequest{Solver: "mln"}, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload session solve: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without a Retry-After header")
	}
	resp = postJSON(t, ts.URL+"/api/solve", SolveRequest{
		Dataset: "running-example", Solver: "mln",
	}, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload stateless solve: status %d, want 429", resp.StatusCode)
	}
	// It is turned away before the dataset's store is built: on the large
	// dataset the rejection allocates a small fraction of what building
	// that store does (checked once the gate is released).
	rejected := allocated(func() {
		resp = postJSON(t, ts.URL+"/api/solve", SolveRequest{Dataset: "large", Solver: "mln"}, nil)
	})
	largeStatus := resp.StatusCode

	// Releasing the gate drains the queue: both admitted solves finish.
	open()
	wg.Wait()
	close(statuses)
	for code := range statuses {
		if code != http.StatusOK {
			t.Fatalf("admitted solve: status %d", code)
		}
	}
	if largeStatus != http.StatusTooManyRequests {
		t.Fatalf("overload stateless solve on a large dataset: status %d, want 429", largeStatus)
	}
	if rejected*20 > build {
		t.Fatalf("rejected solve allocated %d bytes; building the %d-fact store allocates %d", rejected, len(g), build)
	}
}

// allocated returns the bytes the process allocated while fn ran.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestSnapshotReadHistory is the snapshot-isolation history checker: a
// writer toggles a conflicting fact and re-solves while concurrent
// readers hammer the outcome endpoint. Every read must observe a fully
// committed solve — its fact lists structurally consistent with its
// own statistics, its epoch drawn from the set of committed solve
// epochs, and per-reader epochs never moving backwards.
func TestSnapshotReadHistory(t *testing.T) {
	_, ts := newConcurrencyServer(t, Config{Parallelism: 1, MaxConcurrentSolves: 4})
	id := createSession(t, ts.URL, "W")
	base := ts.URL + "/api/sessions/" + id

	type commit struct{ kept, removed int }
	var mu sync.Mutex
	committed := map[uint64]commit{}

	const steps = 12
	done := make(chan struct{})
	writerErr := make(chan error, 1)
	go func() {
		defer close(done)
		probe := "W coach Napoli [2001,2003] 0.6"
		for i := 0; i < steps; i++ {
			req := BatchRequest{Solve: &SessionSolveRequest{Solver: "mln"}}
			if i%2 == 0 {
				req.Remove = probe
			} else {
				req.Add = probe
			}
			var batch BatchResponse
			resp := postJSON(t, base+"/batch", req, &batch)
			if resp.StatusCode != http.StatusOK || batch.Solve == nil {
				writerErr <- fmt.Errorf("step %d: status %d", i, resp.StatusCode)
				return
			}
			mu.Lock()
			committed[batch.Solve.Epoch] = commit{
				kept:    batch.Solve.Stats.KeptFacts,
				removed: batch.Solve.Stats.RemovedFacts,
			}
			mu.Unlock()
		}
	}()

	type observation struct {
		epoch         uint64
		kept, removed int
	}
	const readers = 4
	var rg sync.WaitGroup
	obs := make([][]observation, readers)
	readerErr := make(chan error, readers)
	for r := 0; r < readers; r++ {
		rg.Add(1)
		go func(r int) {
			defer rg.Done()
			var last uint64
			for {
				select {
				case <-done:
					return
				default:
				}
				var oc SessionOutcomeResponse
				resp := getJSON(t, base+"/outcome", &oc)
				if resp.StatusCode != http.StatusOK {
					readerErr <- fmt.Errorf("reader %d: status %d", r, resp.StatusCode)
					return
				}
				if !oc.Solved {
					continue
				}
				// Structural consistency: the lists of this snapshot must
				// match its own statistics — a torn read (lists from one
				// epoch, stats from another) fails here.
				if len(oc.Kept) != oc.Stats.KeptFacts || len(oc.Removed) != oc.Stats.RemovedFacts {
					readerErr <- fmt.Errorf("reader %d: torn outcome at epoch %d: %d/%d kept, %d/%d removed",
						r, oc.Epoch, len(oc.Kept), oc.Stats.KeptFacts, len(oc.Removed), oc.Stats.RemovedFacts)
					return
				}
				if oc.Epoch < last {
					readerErr <- fmt.Errorf("reader %d: epoch moved backwards: %d after %d", r, oc.Epoch, last)
					return
				}
				last = oc.Epoch
				obs[r] = append(obs[r], observation{oc.Epoch, oc.Stats.KeptFacts, oc.Stats.RemovedFacts})
			}
		}(r)
	}

	rg.Wait()
	select {
	case err := <-writerErr:
		t.Fatal(err)
	case err := <-readerErr:
		t.Fatal(err)
	default:
	}

	// Every observed epoch must be a committed one, with the committed
	// statistics.
	total := 0
	for r, list := range obs {
		total += len(list)
		for _, o := range list {
			c, ok := committed[o.epoch]
			if !ok {
				t.Fatalf("reader %d observed uncommitted epoch %d", r, o.epoch)
			}
			if o.kept != c.kept || o.removed != c.removed {
				t.Fatalf("reader %d at epoch %d: observed %d/%d, committed %d/%d",
					r, o.epoch, o.kept, o.removed, c.kept, c.removed)
			}
		}
	}
	if total == 0 {
		t.Fatal("readers never observed a committed solve")
	}
}

// TestSolveParallelismCapped: a per-request parallelism may lower the
// server's worker-pool width but never raise it, so a hostile
// "parallelism" cannot make one join phase start thousands of
// goroutines. Calls solveParallelism directly; no solve runs.
func TestSolveParallelismCapped(t *testing.T) {
	srv := NewWithConfig(Config{Parallelism: 2})
	for _, c := range []struct{ req, want int }{
		{1 << 30, 2}, {3, 2}, {2, 2}, {1, 1}, {0, 2}, {-5, 2},
	} {
		if got := srv.solveParallelism(c.req); got != c.want {
			t.Errorf("solveParallelism(%d) = %d, want %d", c.req, got, c.want)
		}
	}
	all := NewWithConfig(Config{})
	if got, want := all.solveParallelism(1<<30), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("default server: solveParallelism(1<<30) = %d, want GOMAXPROCS %d", got, want)
	}
}
