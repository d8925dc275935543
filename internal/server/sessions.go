package server

import (
	"container/list"
	"crypto/rand"
	"encoding/hex"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/rdf"
	"repro/internal/repair"
	"repro/internal/store"
	"repro/internal/translate"
)

// Stateful sessions: the incremental counterpart of the one-shot
// /api/solve endpoint. A session pins a core.Session — an epoch-versioned
// store plus a cached grounding engine — server-side, so a client can
// stream fact updates and re-solve, paying only for the delta:
//
//	POST   /api/sessions              {dataset?, rules?, tquads?} → {id}
//	GET    /api/sessions/{id}         → session info (snapshot read)
//	GET    /api/sessions/{id}/outcome → last committed outcome (snapshot read)
//	POST   /api/sessions/{id}/facts   {tquads} → adds facts
//	DELETE /api/sessions/{id}/facts   {tquads} → removes facts
//	POST   /api/sessions/{id}/batch   {add?, remove?, solve?} → batched
//	                                   adds+removes (+solve) in one request
//	POST   /api/sessions/{id}/solve   {solver, threshold, parallelism,
//	                                   coldStart, delta} → SolveResponse
//	DELETE /api/sessions/{id}         → drops the session
//
// Sessions live in a bounded LRU table; creating one past the capacity
// evicts the least recently used.
//
// Concurrency: mutations and solves on one session serialize on its
// mutex, but reads never wait behind them — every commit (create,
// fact mutation, solve) publishes an immutable snapshot swapped in
// atomically, and GET handlers serve straight from the latest
// published snapshot. The guarantee is snapshot isolation at the
// session level: a reader only ever observes the state of a fully
// committed epoch, never a torn intermediate, and the epochs it
// observes never move backwards. Solves across *different* sessions
// run concurrently, bounded only by the server's admission gate (see
// admission.go).

// DefaultMaxSessions bounds the LRU session table unless the Server
// overrides it.
const DefaultMaxSessions = 64

// session is one server-held incremental solving session.
type session struct {
	id string
	// mu serializes mutations and solves; core.Session is not safe for
	// concurrent use. Reads do not take it — they load snap.
	mu   sync.Mutex
	sess *core.Session
	elem *list.Element // position in the LRU list
	// snap is the session's last committed state, swapped atomically
	// at every commit while mu is held. Loads need no lock.
	snap atomic.Pointer[sessionSnapshot]
}

// sessionSnapshot is an immutable committed view of a session. An
// Outcome's lists are immutable chunked snapshots (later solves copy the
// chunks they change and never write a shared one), so the snapshot
// stays valid while later solves patch the session's state.
type sessionSnapshot struct {
	info SessionInfo
	// outcome is the last committed solve's result (nil before the
	// first solve).
	outcome *repair.Outcome
	solver  string
	// solveEpoch is the store epoch the outcome reflects.
	solveEpoch uint64
}

// publish swaps in a new committed snapshot. Callers hold ss.mu (so
// the info fields are a consistent cut of the session); oc == nil
// carries the previous solve's outcome forward — fact mutations move
// the store epoch without recommitting an outcome.
func (ss *session) publish(oc *repair.Outcome, solver string) {
	next := &sessionSnapshot{info: SessionInfo{
		ID:    ss.id,
		Facts: ss.sess.Store().Len(),
		Rules: len(ss.sess.Program().Rules),
		Epoch: uint64(ss.sess.Store().Epoch()),
	}}
	if oc != nil {
		next.outcome, next.solver, next.solveEpoch = oc, solver, next.info.Epoch
	} else if prev := ss.snap.Load(); prev != nil {
		next.outcome, next.solver, next.solveEpoch = prev.outcome, prev.solver, prev.solveEpoch
	}
	ss.snap.Store(next)
}

// sessionTable is a mutex-guarded LRU map of live sessions.
type sessionTable struct {
	mu   sync.Mutex
	max  int
	byID map[string]*session
	lru  *list.List // front = most recently used; values are *session
}

func newSessionTable(max int) *sessionTable {
	if max <= 0 {
		max = DefaultMaxSessions
	}
	return &sessionTable{max: max, byID: make(map[string]*session), lru: list.New()}
}

// get returns the session and marks it most recently used.
func (t *sessionTable) get(id string) (*session, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.byID[id]
	if ok {
		t.lru.MoveToFront(s.elem)
	}
	return s, ok
}

// put inserts a new session, evicting the least recently used past
// capacity. It returns the evicted session, if any, so the caller can
// release its durable state.
func (t *sessionTable) put(s *session) (evicted *session) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.elem = t.lru.PushFront(s)
	t.byID[s.id] = s
	if t.lru.Len() > t.max {
		oldest := t.lru.Back()
		t.lru.Remove(oldest)
		evicted = oldest.Value.(*session)
		delete(t.byID, evicted.id)
	}
	return evicted
}

// drop removes the session, returning it if it existed.
func (t *sessionTable) drop(id string) (*session, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.byID[id]
	if !ok {
		return nil, false
	}
	t.lru.Remove(s.elem)
	delete(t.byID, id)
	return s, true
}

// all returns the live sessions in no particular order, without
// touching LRU positions.
func (t *sessionTable) all() []*session {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*session, 0, len(t.byID))
	for _, s := range t.byID {
		out = append(out, s)
	}
	return out
}

func (t *sessionTable) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lru.Len()
}

func newSessionID() string {
	var b [12]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("server: session id entropy unavailable: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}

// CreateSessionRequest seeds a new incremental session. Dataset (a named
// server dataset) and TQuads (inline text) are both optional fact
// sources; Rules defaults to the dataset's program when a dataset is
// given.
type CreateSessionRequest struct {
	Dataset string `json:"dataset,omitempty"`
	TQuads  string `json:"tquads,omitempty"`
	Rules   string `json:"rules,omitempty"`
}

// SessionInfo describes a session's current state. Memory is only
// populated on direct info reads (GET /api/sessions/{id}); commit-time
// snapshots leave it nil to keep publish O(1).
type SessionInfo struct {
	ID     string             `json:"id"`
	Facts  int                `json:"facts"`
	Rules  int                `json:"rules"`
	Epoch  uint64             `json:"epoch"`
	Memory *store.MemoryStats `json:"memory,omitempty"`
}

func (s *Server) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	var req CreateSessionRequest
	if !decodeJSON(w, r, &req, true) {
		return
	}
	sess := core.NewSession()
	rules := req.Rules
	if req.Dataset != "" {
		d, ok := s.dataset(req.Dataset)
		if !ok {
			httpError(w, http.StatusNotFound, "unknown dataset %q", req.Dataset)
			return
		}
		if err := sess.LoadGraph(d.graph); err != nil {
			httpError(w, http.StatusInternalServerError, "loading dataset: %v", err)
			return
		}
		if strings.TrimSpace(rules) == "" {
			rules = d.program
		}
	}
	if req.TQuads != "" {
		if err := sess.LoadGraphText(req.TQuads); err != nil {
			httpError(w, http.StatusBadRequest, "parsing tquads: %v", err)
			return
		}
	}
	if strings.TrimSpace(rules) != "" {
		if err := sess.LoadProgramText(rules); err != nil {
			httpError(w, http.StatusBadRequest, "parsing rules: %v", err)
			return
		}
	}
	ss := &session{id: newSessionID(), sess: sess}
	if s.Durable() {
		if err := s.enableSessionDurability(ss, rules); err != nil {
			httpError(w, http.StatusInternalServerError, "persisting session: %v", err)
			return
		}
	}
	ss.publish(nil, "")
	if evicted := s.sessions.put(ss); evicted != nil {
		s.closeEvicted(evicted)
	}
	writeJSON(w, ss.snap.Load().info)
}

func (s *Server) session(w http.ResponseWriter, r *http.Request) (*session, bool) {
	ss, ok := s.sessions.get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown session %q", r.PathValue("id"))
		return nil, false
	}
	return ss, true
}

// handleSessionInfo serves the session's committed info from the
// published snapshot — it never waits behind an in-flight solve. The
// memory estimate is computed here against the live store (its own
// read lock, not the session mutex), so it reflects the current epoch
// even when it is ahead of the snapshot.
func (s *Server) handleSessionInfo(w http.ResponseWriter, r *http.Request) {
	ss, ok := s.session(w, r)
	if !ok {
		return
	}
	info := ss.snap.Load().info
	m := ss.sess.Store().MemoryStats()
	info.Memory = &m
	writeJSON(w, info)
}

// SessionOutcomeResponse serves the last committed solve's outcome.
type SessionOutcomeResponse struct {
	SolveResponse
	// Solved reports whether the session has committed a solve yet;
	// the embedded outcome fields are only meaningful when true.
	Solved bool   `json:"solved"`
	Solver string `json:"solver,omitempty"`
	// Epoch is the store epoch the outcome reflects — its snapshot
	// version. Readers only ever observe fully committed epochs.
	Epoch uint64 `json:"epoch"`
}

// handleSessionOutcome serves the last committed solve from the
// published snapshot, without blocking behind an in-flight solve: the
// snapshot's outcome is immutable, so rendering it races with nothing.
func (s *Server) handleSessionOutcome(w http.ResponseWriter, r *http.Request) {
	ss, ok := s.session(w, r)
	if !ok {
		return
	}
	snap := ss.snap.Load()
	resp := SessionOutcomeResponse{Epoch: snap.solveEpoch}
	if snap.outcome != nil {
		resp.Solved = true
		resp.Solver = snap.solver
		resp.SolveResponse = s.outcomeResponse(snap.outcome)
	}
	writeJSON(w, resp)
}

func (s *Server) handleDeleteSession(w http.ResponseWriter, r *http.Request) {
	ss, ok := s.sessions.drop(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown session %q", r.PathValue("id"))
		return
	}
	// An in-flight solve may hold ss.mu for seconds; deletion must not
	// wait behind it. Unlink the data directory now — open WAL file
	// descriptors keep working until closed — and close the journal in
	// the background once the lock frees up.
	s.removeSessionData(ss.id)
	go func() {
		ss.mu.Lock()
		defer ss.mu.Unlock()
		ss.sess.Close()
	}()
	writeJSON(w, map[string]bool{"deleted": true})
}

// FactsRequest carries TQuads text for fact addition or removal.
type FactsRequest struct {
	TQuads string `json:"tquads"`
}

// FactsResponse reports the effect of a facts update.
type FactsResponse struct {
	// Added and Removed count the facts that changed liveness; Updated
	// counts existing facts whose confidence was raised.
	Added   int    `json:"added,omitempty"`
	Removed int    `json:"removed,omitempty"`
	Updated int    `json:"updated,omitempty"`
	Facts   int    `json:"facts"`
	Epoch   uint64 `json:"epoch"`
}

// handleSessionFacts adds (POST) or retracts (DELETE) TQuads as one
// batch.
func (s *Server) handleSessionFacts(w http.ResponseWriter, r *http.Request) {
	ss, ok := s.session(w, r)
	if !ok {
		return
	}
	var req FactsRequest
	if !decodeJSON(w, r, &req, false) {
		return
	}
	g, err := rdf.ParseGraphString(req.TQuads)
	if err != nil {
		httpError(w, http.StatusBadRequest, "parsing tquads: %v", err)
		return
	}
	var add, remove rdf.Graph
	if r.Method == http.MethodDelete {
		remove = g
	} else {
		add = g
	}
	ss.mu.Lock()
	resp, ok := applyLocked(w, ss, add, remove)
	ss.mu.Unlock()
	if ok {
		writeJSON(w, resp)
	}
}

// applyLocked applies one batch to the session, makes it durable and
// only then publishes the new epoch, so readers never see a state a
// crash could lose. The caller holds ss.mu. On failure it writes the
// error response and reports false.
func applyLocked(w http.ResponseWriter, ss *session, add, remove rdf.Graph) (FactsResponse, bool) {
	br, err := ss.sess.ApplyBatch(add, remove)
	if err != nil {
		httpError(w, http.StatusBadRequest, "applying batch: %v", err)
		return FactsResponse{}, false
	}
	if err := ss.sess.Sync(); err != nil {
		httpError(w, http.StatusInternalServerError, "persisting batch: %v", err)
		return FactsResponse{}, false
	}
	ss.publish(nil, "")
	st := ss.sess.Store()
	return FactsResponse{
		Added:   br.Added,
		Removed: br.Removed,
		Updated: br.Updated,
		Facts:   st.Len(),
		Epoch:   uint64(st.Epoch()),
	}, true
}

// BatchRequest carries a combined update: TQuads to retract and to
// assert, applied as one batch (removals first), plus an optional
// solve to run in the same request. The whole batch costs one session
// lock acquisition and — on the next solve — one grounding delta, one
// dirty-component set and one outcome patch, however many facts it
// carries.
type BatchRequest struct {
	Add    string `json:"add,omitempty"`
	Remove string `json:"remove,omitempty"`
	// Solve, when present, re-solves right after the batch applies,
	// still under the same lock acquisition.
	Solve *SessionSolveRequest `json:"solve,omitempty"`
}

// BatchResponse reports the batch's net effect and, when requested,
// the solve's result.
type BatchResponse struct {
	FactsResponse
	Solve *SessionSolveResponse `json:"solve,omitempty"`
}

func (s *Server) handleSessionBatch(w http.ResponseWriter, r *http.Request) {
	ss, ok := s.session(w, r)
	if !ok {
		return
	}
	var req BatchRequest
	if !decodeJSON(w, r, &req, false) {
		return
	}
	// Parse everything before taking any lock or slot.
	add, err := rdf.ParseGraphString(req.Add)
	if err != nil {
		httpError(w, http.StatusBadRequest, "parsing add tquads: %v", err)
		return
	}
	remove, err := rdf.ParseGraphString(req.Remove)
	if err != nil {
		httpError(w, http.StatusBadRequest, "parsing remove tquads: %v", err)
		return
	}
	var solver translate.Solver
	if req.Solve != nil {
		if solver, err = parseSolveSolver(req.Solve); err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		// The solve rides the same admission gate as a standalone one.
		if !s.admitSolve(w) {
			return
		}
		defer s.adm.release()
	}

	ss.mu.Lock()
	facts, ok := applyLocked(w, ss, add, remove)
	if !ok {
		ss.mu.Unlock()
		return
	}
	resp := BatchResponse{FactsResponse: facts}
	var res *core.Resolution
	var epoch uint64
	if req.Solve != nil {
		res, epoch, err = s.solveLocked(ss, solver, *req.Solve)
	}
	ss.mu.Unlock()
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, "solving: %v", err)
		return
	}
	if res != nil {
		sr := s.renderSessionSolve(res, epoch, req.Solve.Delta)
		resp.Solve = &sr
	}
	writeJSON(w, resp)
}

// SessionSolveRequest tunes a session solve.
type SessionSolveRequest struct {
	Solver    string  `json:"solver"`
	Threshold float64 `json:"threshold,omitempty"`
	// Parallelism lowers the server's worker pool size for this solve
	// (0 = server default); a value above the server's width is capped
	// at it.
	Parallelism int `json:"parallelism,omitempty"`
	// Deprecated: ignored — every MLN/PSL solve is component-decomposed; kept only until bench/ can be edited
	ComponentSolve bool `json:"componentSolve,omitempty"`
	// ColdStart disables warm-starting from the previous solution (and
	// drops the per-component caches for this solve).
	ColdStart bool `json:"coldStart,omitempty"`
	// Delta requests changelog mode: the response carries only the
	// facts and clusters that entered or left each Outcome list since
	// the session's previous solve (plus statistics), not the full
	// lists. The first solve and any solve after a cache invalidation
	// (coldStart, threshold or solver change) report the full outcome
	// as added, capped per list like the full lists, so rendering it
	// costs O(cap) however large the session.
	Delta bool `json:"delta,omitempty"`
}

// SessionSolveResponse is a SolveResponse plus incremental-path info.
// Across session re-solves only the conflict components a delta dirtied
// are re-solved and re-repaired: stats.Components reports the solver's
// solved/reused split, stats.Repair the read-out stage — its mode
// ("components"), the repaired/reused component split of this re-solve,
// and stage timings — and stats.Outcome how the final Outcome was
// produced: mode "live" (the session keeps one read-out record per
// component and patches the global lists from the re-repaired ones),
// patched/reused split, index/merge timings. Every solve publishes the
// full Outcome snapshot for the session's readers (GET .../outcome);
// delta mode only changes what this response renders.
type SessionSolveResponse struct {
	SolveResponse
	// Incremental reports whether the solve consumed only the delta.
	Incremental bool   `json:"incremental"`
	Epoch       uint64 `json:"epoch"`
	// Delta is the Outcome changelog of this solve (delta mode only);
	// when set, the full kept/removed/inferred/clusters lists are
	// omitted.
	Delta *OutcomeDeltaResponse `json:"delta,omitempty"`
}

// OutcomeDeltaResponse renders an Outcome changelog: the statements
// that entered or left each list since the previous solve, as display
// strings (removed-list entries annotated with their first
// explanation, like the full response's removed list).
type OutcomeDeltaResponse struct {
	AddedKept       []string   `json:"addedKept,omitempty"`
	RemovedKept     []string   `json:"removedKept,omitempty"`
	AddedRemoved    []string   `json:"addedRemoved,omitempty"`
	RemovedRemoved  []string   `json:"removedRemoved,omitempty"`
	AddedInferred   []string   `json:"addedInferred,omitempty"`
	RemovedInferred []string   `json:"removedInferred,omitempty"`
	AddedClusters   [][]string `json:"addedClusters,omitempty"`
	RemovedClusters [][]string `json:"removedClusters,omitempty"`
	// Truncated reports whether any list was capped at the server's
	// per-response fact limit.
	Truncated bool `json:"truncated,omitempty"`
}

// deltaResponse renders the changelog with the server's fact cap
// applied per list. Like outcomeResponse it reads each list through Each
// and stops at the cap, so even a first solve's changelog, which is the
// whole outcome, costs O(cap), not O(n).
func (s *Server) deltaResponse(d *repair.OutcomeDelta) *OutcomeDeltaResponse {
	max := s.MaxFactsInResponse
	resp := &OutcomeDeltaResponse{}
	resp.AddedKept, resp.Truncated = factStrings(d.AddedKept.Each, max, resp.Truncated)
	resp.RemovedKept, resp.Truncated = factStrings(d.RemovedKept.Each, max, resp.Truncated)
	resp.AddedRemoved, resp.Truncated = removedStrings(d.AddedRemoved.Each, max, resp.Truncated)
	resp.RemovedRemoved, resp.Truncated = removedStrings(d.RemovedRemoved.Each, max, resp.Truncated)
	resp.AddedInferred, resp.Truncated = factStrings(d.AddedInferred.Each, max, resp.Truncated)
	resp.RemovedInferred, resp.Truncated = factStrings(d.RemovedInferred.Each, max, resp.Truncated)
	resp.AddedClusters, resp.Truncated = clusterStrings(d.AddedClusters.Each, max, resp.Truncated)
	resp.RemovedClusters, resp.Truncated = clusterStrings(d.RemovedClusters.Each, max, resp.Truncated)
	return resp
}

// parseSolveSolver resolves the request's solver name, defaulting the
// empty string to MLN.
func parseSolveSolver(req *SessionSolveRequest) (translate.Solver, error) {
	if req.Solver == "" {
		req.Solver = "mln"
	}
	return translate.ParseSolver(req.Solver)
}

// solveLocked runs one admitted solve on the session and publishes the
// committed snapshot. The caller holds ss.mu and an admission slot; it
// returns the resolution and the store epoch the outcome reflects.
func (s *Server) solveLocked(ss *session, solver translate.Solver, req SessionSolveRequest) (*core.Resolution, uint64, error) {
	if s.solveGate != nil {
		s.solveGate(ss.id)
	}
	res, err := ss.sess.Solve(core.SolveOptions{
		Solver:      solver,
		Threshold:   req.Threshold,
		Parallelism: s.solveParallelism(req.Parallelism),
		ColdStart:   req.ColdStart,
	})
	if err != nil {
		return nil, 0, err
	}
	ss.publish(res.Outcome, solver.String())
	return res, uint64(ss.sess.Store().Epoch()), nil
}

// renderSessionSolve renders a committed solve. It runs outside the
// session lock: the resolution's outcome is an immutable snapshot.
func (s *Server) renderSessionSolve(res *core.Resolution, epoch uint64, delta bool) SessionSolveResponse {
	resp := SessionSolveResponse{Incremental: res.Incremental, Epoch: epoch}
	if delta {
		// Changelog mode: statistics plus the diff, no full lists.
		resp.SolveResponse = SolveResponse{Stats: res.Stats}
		resp.Delta = s.deltaResponse(res.Delta)
	} else {
		resp.SolveResponse = s.outcomeResponse(res.Outcome)
	}
	return resp
}

func (s *Server) handleSessionSolve(w http.ResponseWriter, r *http.Request) {
	ss, ok := s.session(w, r)
	if !ok {
		return
	}
	var req SessionSolveRequest
	if !decodeJSON(w, r, &req, true) {
		return
	}
	solver, err := parseSolveSolver(&req)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if !s.admitSolve(w) {
		return
	}
	defer s.adm.release()
	ss.mu.Lock()
	res, epoch, err := s.solveLocked(ss, solver, req)
	ss.mu.Unlock()
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, "solving: %v", err)
		return
	}
	writeJSON(w, s.renderSessionSolve(res, epoch, req.Delta))
}
