package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/kgen"
	"repro/internal/repair"
	"repro/internal/server"
	"repro/internal/translate"
)

// tally counts operations attempted and failed. A failed operation is a
// non-2xx response (429 included), a transport error, or a response
// that fails a correctness check; it contributes no latency sample.
type tally struct {
	mu          sync.Mutex
	attempted   int
	failed      int
	rejected429 int
	first       string
}

func (t *tally) attempt() {
	t.mu.Lock()
	t.attempted++
	t.mu.Unlock()
}

func (t *tally) fail(format string, args ...any) {
	t.mu.Lock()
	t.failed++
	if t.first == "" {
		t.first = fmt.Sprintf(format, args...)
	}
	t.mu.Unlock()
}

// reject counts a 429 — the admission gate turned the request away —
// as a failed operation.
func (t *tally) reject(what string) {
	t.mu.Lock()
	t.rejected429++
	t.mu.Unlock()
	t.fail("%s: 429", what)
}

// statKey is the part of a solve's statistics the correctness check
// compares against the in-process reference.
type statKey struct {
	Total, Kept, Removed, Inferred, Clusters int
	RemovedWeight                            float64
}

func keyOf(st repair.Stats) statKey {
	return statKey{st.TotalFacts, st.KeptFacts, st.RemovedFacts, st.InferredFacts, st.ConflictClusters, st.RemovedWeight}
}

func (k statKey) equal(o statKey) bool {
	return k.Total == o.Total && k.Kept == o.Kept && k.Removed == o.Removed &&
		k.Inferred == o.Inferred && k.Clusters == o.Clusters &&
		math.Abs(k.RemovedWeight-o.RemovedWeight) <= 1e-9*math.Max(1, math.Abs(o.RemovedWeight))
}

// env is one set-up: a dataset, a running server and, for the update
// workloads, the session the ops stream into.
type env struct {
	spec spec
	data *dataset
	srv  *serverProc
	w, r *client // connection 1 (ops) and connection 2 (paced reads)
	// tr traces connection 1 and rtr connection 2; nil is tracing off.
	// The paced reader runs on its own goroutine, so it records finished
	// spans instead of sharing tr's stack of open ones.
	tr, rtr *tracer
	tal     *tally

	sid   string
	epoch uint64   // epoch of the last acknowledged commit
	tog   *toggles // which facts are live in the session
	// history lists the fact indexes each update op toggled, so the
	// reference can replay exactly the commits the server acknowledged.
	history [][]int32

	solveBody, batchSolve []byte
	firstSolve            statKey   // the set-up's first solve (update workloads)
	solveKeys             []statKey // every cold op's solve
	lastKey               statKey   // most recent solve of the session
	respBytes             []float64 // size of each op's main response

	setup time.Duration
}

func (e *env) close() {
	if e.srv != nil {
		e.srv.kill()
		if e.srv.dataDir != "" {
			os.RemoveAll(e.srv.dataDir)
		}
	}
	e.w.hc.CloseIdleConnections()
	e.r.hc.CloseIdleConnections()
}

// call sends one request under a span named for the endpoint. It
// reports whether the response was a 200 that decoded.
func (e *env) call(c *client, name string, op int, method, path string, body []byte, out any) (int, bool) {
	id := -1
	if c == e.w {
		id = e.tr.begin(name, op)
	}
	start := time.Now()
	status, n, err := c.do(method, path, body, out)
	if c == e.w {
		e.tr.end(id)
	} else {
		e.rtr.add(name, op, -1, start, time.Since(start))
	}
	switch {
	case err != nil:
		e.tal.fail("%s %s: %v", method, path, err)
	case status == http.StatusTooManyRequests:
		e.tal.reject(method + " " + path)
	case status != http.StatusOK:
		e.tal.fail("%s %s: status %d", method, path, status)
	default:
		return n, true
	}
	return n, false
}

func (e *env) createSession(op int) bool {
	var info server.SessionInfo
	if _, ok := e.call(e.w, "server.create", op, "POST", "/api/sessions", e.data.createBody, &info); !ok {
		return false
	}
	if info.Facts != len(e.data.quads) {
		e.tal.fail("create: %d facts, uploaded %d", info.Facts, len(e.data.quads))
		return false
	}
	e.sid, e.epoch = info.ID, info.Epoch
	return true
}

// solve runs a session solve and checks its epoch against the last
// acknowledged commit.
func (e *env) solve(op int, body []byte) (int, bool) {
	var resp server.SessionSolveResponse
	n, ok := e.call(e.w, "server.solve", op, "POST", "/api/sessions/"+e.sid+"/solve", body, &resp)
	if !ok {
		return n, false
	}
	if resp.Epoch != e.epoch {
		e.tal.fail("solve: epoch %d, last commit %d", resp.Epoch, e.epoch)
		return n, false
	}
	e.lastKey = keyOf(resp.Stats)
	return n, true
}

// readOutcome reads the last committed outcome on connection c and
// returns its epoch.
func (e *env) readOutcome(c *client, op int) (uint64, bool) {
	var resp server.SessionOutcomeResponse
	if _, ok := e.call(c, "server.read", op, "GET", "/api/sessions/"+e.sid+"/outcome", nil, &resp); !ok {
		return 0, false
	}
	if !resp.Solved {
		e.tal.fail("outcome: session not solved")
		return 0, false
	}
	return resp.Epoch, true
}

// coldOp is the paper's upload-and-debug flow: create a session from
// inline TQuads and rules, solve it, read the outcome back. The op is
// timed from the first request to the last response; its GET step is
// also the workload's read sample. Deleting the session is not timed.
func (e *env) coldOp(op int, keep bool) (opS, readS sample, ok bool) {
	e.tal.attempt()
	root := e.tr.begin("op", op)
	opS.start = time.Now()
	ok = e.createSession(op)
	if ok {
		var n int
		n, ok = e.solve(op, e.solveBody)
		e.respBytes = append(e.respBytes, float64(n))
		e.solveKeys = append(e.solveKeys, e.lastKey)
	}
	if ok {
		readS.start = time.Now()
		var epoch uint64
		if epoch, ok = e.readOutcome(e.w, op); ok && epoch != e.epoch {
			e.tal.fail("outcome: epoch %d, solved at %d", epoch, e.epoch)
			ok = false
		}
	}
	opS.end = time.Now()
	readS.end = opS.end
	e.tr.end(root)
	if e.sid != "" && !keep {
		if _, dok := e.call(e.w, "server.delete", op, "DELETE", "/api/sessions/"+e.sid, nil, nil); !dok {
			ok = false
		}
		e.sid = ""
	}
	return opS, readS, ok
}

// toggleOp sends one batch that toggles spec.Batch seeded-random facts
// (a live fact is removed, a removed one re-added) and re-solves in the
// same request, asking for the changelog only.
func (e *env) toggleOp(op int) (sample, bool) {
	e.tal.attempt()
	idx := e.tog.pick(e.spec.Batch)
	adds, removes := e.tog.split(idx)
	var add, remove strings.Builder
	for _, i := range adds {
		add.WriteString(e.data.lines[i])
		add.WriteByte('\n')
	}
	for _, i := range removes {
		remove.WriteString(e.data.lines[i])
		remove.WriteByte('\n')
	}
	body, err := json.Marshal(struct {
		Add    string          `json:"add,omitempty"`
		Remove string          `json:"remove,omitempty"`
		Solve  json.RawMessage `json:"solve"`
	}{add.String(), remove.String(), e.batchSolve})
	if err != nil {
		e.tal.fail("marshalling batch: %v", err)
		return sample{}, false
	}
	var resp server.BatchResponse
	s := sample{start: time.Now()}
	n, ok := e.call(e.w, "server.batch", op, "POST", "/api/sessions/"+e.sid+"/batch", body, &resp)
	s.end = time.Now()
	if !ok {
		return s, false
	}
	e.respBytes = append(e.respBytes, float64(n))
	// The commit is acknowledged: record it before judging the reply,
	// so the reference replays what the server applied.
	e.tog.flip(idx)
	e.history = append(e.history, idx)
	prev := e.epoch
	e.epoch = resp.Epoch
	switch {
	case resp.Epoch <= prev:
		e.tal.fail("batch: epoch %d after %d", resp.Epoch, prev)
	case resp.Added != len(adds) || resp.Removed != len(removes) || resp.Facts != e.tog.live:
		e.tal.fail("batch: added %d removed %d facts %d, want %d %d %d",
			resp.Added, resp.Removed, resp.Facts, len(adds), len(removes), e.tog.live)
	case resp.Solve == nil || resp.Solve.Epoch != resp.Epoch || resp.Solve.Stats.TotalFacts != e.tog.live:
		e.tal.fail("batch: solve missing or not at the batch's epoch")
	default:
		e.lastKey = keyOf(resp.Solve.Stats)
		return s, true
	}
	return s, false
}

// setUp generates the inputs, starts a server and brings it to the
// state the measured phase starts from. All of it is timed as setup_s.
func setUp(cfg runConfig, tr *tracer) (*env, error) {
	t0 := time.Now()
	s := cfg.spec
	data, err := generate(s, cfg.seed)
	if err != nil {
		return nil, err
	}
	dataDir := ""
	if s.Durable {
		if dataDir, err = os.MkdirTemp(cfg.workDir, "data-"); err != nil {
			return nil, err
		}
	}
	srv, err := newServerProc(cfg.serverBin, dataDir)
	if err != nil {
		return nil, err
	}
	e := &env{
		spec: s, data: data, srv: srv, tr: tr, rtr: tr, tal: &tally{},
		w: newClient(srv.addr), r: newClient(srv.addr),
		tog: newToggles(len(data.quads), cfg.seed),
	}
	req := server.SessionSolveRequest{Solver: s.Solver, ComponentSolve: true}
	if e.solveBody, err = json.Marshal(req); err != nil {
		return nil, err
	}
	req.Delta = true
	if e.batchSolve, err = json.Marshal(req); err != nil {
		return nil, err
	}
	if err := srv.start(); err != nil {
		return nil, err
	}
	if err := srv.awaitListening(30 * time.Second); err != nil {
		e.close()
		return nil, err
	}
	ok := true
	if s.Cold {
		for i := 0; i < s.Warmup && ok; i++ {
			_, _, ok = e.coldOp(-1-i, false)
		}
		e.solveKeys, e.respBytes = nil, nil
	} else {
		e.tal.attempt()
		ok = e.createSession(-1)
		if ok {
			_, ok = e.solve(-1, e.solveBody)
			e.firstSolve = e.lastKey
		}
		for i := 0; i < s.Warmup && ok; i++ {
			_, ok = e.toggleOp(-2 - i)
		}
		e.respBytes = nil
	}
	if !ok {
		first := e.tal.first
		e.close()
		return nil, fmt.Errorf("set-up failed: %s\n%s", first, srv.stderr.String())
	}
	e.tal = &tally{} // warm-up ops belong to set-up, not to the attempts
	e.setup = time.Since(t0)
	return e, nil
}

// phase is what the measured phase collected.
type phase struct {
	ops, reads []sample
	lateMS     []float64 // how late the paced reader sent each read
}

// measure runs the workload's ops until the deadline or, when maxOps is
// non-zero, for exactly maxOps ops. trace, when non-nil, is called
// before each op with its index and may switch e.tr.
func (e *env) measure(d time.Duration, maxOps int, trace func(op int)) phase {
	var p phase
	var wg sync.WaitGroup
	stop := make(chan struct{})
	if e.spec.ReaderHz > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.reads, p.lateMS = e.pacedReader(stop)
		}()
	}
	deadline := time.Now().Add(d)
	for op := 0; (maxOps == 0 && time.Now().Before(deadline)) || op < maxOps; op++ {
		if trace != nil {
			trace(op)
		}
		if e.spec.Cold {
			s, r, ok := e.coldOp(op, false)
			if ok {
				p.ops = append(p.ops, s)
				p.reads = append(p.reads, r)
			}
		} else if s, ok := e.toggleOp(op); ok {
			p.ops = append(p.ops, s)
		}
	}
	close(stop)
	wg.Wait()
	return p
}

// pacedReader reads the outcome on connection 2 on a fixed schedule
// until stop closes. Each read is timed from when it was due, so a
// stall is charged to every read it delays; how late each was actually
// sent is reported beside it.
func (e *env) pacedReader(stop <-chan struct{}) ([]sample, []float64) {
	var reads []sample
	var late []float64
	interval := time.Second / time.Duration(e.spec.ReaderHz)
	start := time.Now()
	var last uint64
	timer := time.NewTimer(0)
	defer timer.Stop()
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if wait := time.Until(due); wait > 0 {
			timer.Reset(wait)
			select {
			case <-stop:
				return reads, late
			case <-timer.C:
			}
		} else {
			select {
			case <-stop:
				return reads, late
			default:
			}
		}
		e.tal.attempt()
		sent := time.Now()
		epoch, ok := e.readOutcome(e.r, -1)
		end := time.Now()
		if ok && epoch < last {
			e.tal.fail("reader: epoch went back from %d to %d", last, epoch)
			ok = false
		}
		if ok {
			last = epoch
			reads = append(reads, sample{start: due, end: end})
			late = append(late, float64(sent.Sub(due))/float64(time.Millisecond))
		}
	}
}

// reference solves, in process and from scratch, the graph the session
// holds after every acknowledged commit: the same upload, then the same
// batches in the same order, so store history, fact ids and epoch are
// the server's. It returns the solve's statistics and the store epoch.
func (e *env) reference() (statKey, uint64, error) {
	sess := core.NewSession()
	if err := sess.LoadGraphText(e.data.tquads); err != nil {
		return statKey{}, 0, err
	}
	if err := sess.LoadProgramText(kgen.ClusteredProgram); err != nil {
		return statKey{}, 0, err
	}
	tog := newToggles(len(e.data.quads), 0)
	for _, idx := range e.history {
		add, remove := tog.split(idx)
		tog.flip(idx)
		if _, err := sess.ApplyBatch(graphOf(e.data.quads, add), graphOf(e.data.quads, remove)); err != nil {
			return statKey{}, 0, err
		}
	}
	solver, err := translate.ParseSolver(e.spec.Solver)
	if err != nil {
		return statKey{}, 0, err
	}
	res, err := sess.Solve(core.SolveOptions{Solver: solver, ComponentSolve: true, Parallelism: childProcs()})
	if err != nil {
		return statKey{}, 0, err
	}
	return keyOf(res.Stats), uint64(sess.Store().Epoch()), nil
}

// checkAgainstReference compares the session's final state with the
// in-process reference. PSL warm starts are approximate, so mixed-rw is
// compared after one coldStart solve over HTTP. It returns the
// reference statistics for the recovery tail to compare against.
func (e *env) checkAgainstReference() (statKey, error) {
	want, epoch, err := e.reference()
	if err != nil {
		return want, fmt.Errorf("reference solve: %w", err)
	}
	e.tal.attempt()
	switch {
	case e.spec.Cold:
		for i, k := range e.solveKeys {
			if !k.equal(want) {
				e.tal.fail("op %d: solve stats %+v, reference %+v", i, k, want)
				break
			}
		}
		return want, nil
	case e.spec.Solver == "psl":
		body, err := json.Marshal(server.SessionSolveRequest{Solver: "psl", ComponentSolve: true, ColdStart: true})
		if err != nil {
			return want, err
		}
		if _, ok := e.solve(len(e.history), body); !ok {
			return want, nil
		}
	}
	if epoch != e.epoch {
		e.tal.fail("final epoch %d, reference %d", e.epoch, epoch)
	} else if !e.lastKey.equal(want) {
		e.tal.fail("final solve stats %+v, reference %+v", e.lastKey, want)
	}
	return want, nil
}

// recoveryTail kills the server with SIGKILL and times, per cycle, from
// exec of the new process to its first solve response: for a durable
// workload the session comes back from the data directory and must hold
// the facts and epoch of the last acknowledged commit; for mixed-rw,
// which has no data directory, the client uploads the dataset again.
// SIGKILL leaves the page cache intact, so this checks that a commit is
// acknowledged only after it was appended, not that the device flushed.
func (e *env) recoveryTail(cycles int, want statKey) (recoverMS, bootMS []float64) {
	if e.spec.Cold {
		// The cold ops deleted their sessions; recover one that stays.
		e.tal.attempt()
		if _, _, ok := e.coldOp(-1, true); !ok {
			return nil, nil
		}
	}
	if !e.spec.Durable {
		want = e.firstSolve
	}
	for i := 0; i < cycles; i++ {
		e.tal.attempt()
		op := -1 - i
		e.srv.kill()
		e.w.hc.CloseIdleConnections()
		e.r.hc.CloseIdleConnections()
		root := e.tr.begin("recover", op)
		t0 := time.Now()
		err := e.srv.start()
		if err == nil {
			err = e.srv.awaitListening(30 * time.Second)
		}
		if err != nil {
			e.tr.end(root)
			e.tal.fail("restart: %v", err)
			return recoverMS, bootMS
		}
		ok := true
		if e.spec.Durable {
			var info server.SessionInfo
			_, ok = e.call(e.w, "server.info", op, "GET", "/api/sessions/"+e.sid, nil, &info)
			if ok && (info.Facts != e.tog.live || info.Epoch != e.epoch) {
				e.tal.fail("after SIGKILL: %d facts at epoch %d, last acknowledged %d at %d",
					info.Facts, info.Epoch, e.tog.live, e.epoch)
				ok = false
			}
		} else {
			ok = e.createSession(op)
		}
		boot := time.Since(t0)
		if ok {
			_, ok = e.solve(op, e.solveBody)
		}
		total := time.Since(t0)
		e.tr.end(root)
		if ok && !e.lastKey.equal(want) {
			e.tal.fail("after restart: solve stats %+v, want %+v", e.lastKey, want)
			ok = false
		}
		if ok {
			recoverMS = append(recoverMS, float64(total)/float64(time.Millisecond))
			bootMS = append(bootMS, float64(boot)/float64(time.Millisecond))
		}
	}
	return recoverMS, bootMS
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return n, err
}
