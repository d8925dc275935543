// Package server implements the TeCoRe Web UI: dataset selection and
// upload, rule and constraint editing (with predicate auto-completion
// and an Allen-relation constraint builder), MAP inference with either
// solver, and the result statistics browser of Figure 8. All endpoints
// are stdlib net/http; JSON APIs back the interactive pieces so the demo
// can also be driven programmatically.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/kgen"
	"repro/internal/logic"
	"repro/internal/par"
	"repro/internal/rdf"
	"repro/internal/repair"
	"repro/internal/rulelang"
	"repro/internal/store"
	"repro/internal/suggest"
	"repro/internal/translate"
)

// Server holds the demo state: named datasets and their default
// programs. It is safe for concurrent use.
type Server struct {
	mu       sync.RWMutex
	datasets map[string]*dataset
	mux      *http.ServeMux
	// MaxFactsInResponse caps the fact lists returned by /api/solve.
	MaxFactsInResponse int
	// parallelism bounds each solve's worker pools (Config.Parallelism).
	parallelism int
	// sessions holds the stateful incremental solving sessions (LRU).
	sessions *sessionTable
	// dataDir, when non-empty, roots the durable session directories
	// (see durable.go); empty means sessions are in-memory only.
	dataDir string
	// adm is the server-wide solve admission gate (see admission.go).
	adm *admission
	// solveGate, when non-nil, is called inside a session solve's
	// critical section (lock and admission slot held, solver not yet
	// run). Test hook: lets the concurrency suite pin a solve
	// in flight deterministically. Never set in production.
	solveGate func(sessionID string)
}

type dataset struct {
	name    string
	graph   rdf.Graph
	stats   store.Stats
	program string // default rules/constraints text
}

// New returns a server preloaded with the paper's running example and
// small generated FootballDB/Wikidata samples.
func New() *Server {
	return NewWithConfig(Config{})
}

// Config tunes a Server.
type Config struct {
	// MaxSessions bounds the stateful session table (default
	// DefaultMaxSessions); the least recently used session is evicted
	// past it.
	MaxSessions int
	// Parallelism bounds each solve's worker pools (0 = GOMAXPROCS,
	// 1 = sequential). A per-request parallelism may lower it, never
	// raise it. Results are identical at every setting.
	Parallelism int
	// MaxConcurrentSolves bounds how many solves run at once across
	// all endpoints and sessions (0 = GOMAXPROCS). Solves past it wait
	// in a bounded queue.
	MaxConcurrentSolves int
	// MaxQueuedSolves bounds the solve wait queue (0 =
	// DefaultMaxQueuedSolves); a solve arriving past both bounds is
	// rejected with 429 and a Retry-After header.
	MaxQueuedSolves int
	// DataDir, when non-empty, makes sessions durable: each one is
	// backed by a WAL + snapshot directory under <DataDir>/sessions/
	// and survives a server restart. Call RecoverSessions once before
	// serving to reopen them.
	DataDir string
}

// NewWithConfig returns a configured server.
func NewWithConfig(cfg Config) *Server {
	s := &Server{
		datasets:           make(map[string]*dataset),
		MaxFactsInResponse: 200,
		parallelism:        cfg.Parallelism,
		sessions:           newSessionTable(cfg.MaxSessions),
		adm:                newAdmission(cfg.MaxConcurrentSolves, cfg.MaxQueuedSolves),
		dataDir:            cfg.DataDir,
	}
	s.mux = http.NewServeMux()
	s.routes()
	s.seed()
	return s
}

// solveParallelism resolves the worker-pool width for an admitted
// solve: a positive per-request setting wins, capped at the server's
// width so a request may lower it but never raise it; otherwise the
// server default is shared across the solves currently holding a slot,
// so K concurrent sessions split the machine instead of oversubscribing
// it K-fold. Worker counts never change results, only wall clock.
func (s *Server) solveParallelism(req int) int {
	if req > 0 {
		return min(req, par.Workers(s.parallelism))
	}
	return par.Share(s.parallelism, s.adm.inflight())
}

// Handler returns the HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

func (s *Server) routes() {
	s.mux.HandleFunc("GET /", s.handleIndex)
	s.mux.HandleFunc("GET /dataset/{name}", s.handleDataset)
	s.mux.HandleFunc("GET /api/datasets", s.handleListDatasets)
	s.mux.HandleFunc("POST /api/datasets", s.handleUpload)
	s.mux.HandleFunc("GET /api/predicates", s.handlePredicates)
	s.mux.HandleFunc("POST /api/constraint", s.handleConstraint)
	s.mux.HandleFunc("POST /api/validate", s.handleValidate)
	s.mux.HandleFunc("POST /api/solve", s.handleSolve)
	s.mux.HandleFunc("GET /api/suggest", s.handleSuggest)
	s.mux.HandleFunc("POST /api/sessions", s.handleCreateSession)
	s.mux.HandleFunc("GET /api/sessions/{id}", s.handleSessionInfo)
	s.mux.HandleFunc("GET /api/sessions/{id}/outcome", s.handleSessionOutcome)
	s.mux.HandleFunc("DELETE /api/sessions/{id}", s.handleDeleteSession)
	s.mux.HandleFunc("POST /api/sessions/{id}/facts", s.handleSessionFacts)
	s.mux.HandleFunc("DELETE /api/sessions/{id}/facts", s.handleSessionFacts)
	s.mux.HandleFunc("POST /api/sessions/{id}/batch", s.handleSessionBatch)
	s.mux.HandleFunc("POST /api/sessions/{id}/solve", s.handleSessionSolve)
}

// SuggestedConstraint is one mined constraint in /api/suggest.
type SuggestedConstraint struct {
	Kind       string  `json:"kind"`
	Rule       string  `json:"rule"`
	Support    int     `json:"support"`
	Violations int     `json:"violations"`
	Confidence float64 `json:"confidence"`
}

// handleSuggest mines candidate constraints from a dataset — the
// "automatic suggestion of constraints" goal of the demo (Section 4).
func (s *Server) handleSuggest(w http.ResponseWriter, r *http.Request) {
	d, ok := s.dataset(r.URL.Query().Get("dataset"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown dataset")
		return
	}
	st := store.New()
	if err := st.AddGraph(d.graph); err != nil {
		httpError(w, http.StatusInternalServerError, "loading dataset: %v", err)
		return
	}
	sugs, err := suggest.Mine(st, suggest.Options{})
	if err != nil {
		httpError(w, http.StatusInternalServerError, "mining: %v", err)
		return
	}
	out := make([]SuggestedConstraint, 0, len(sugs))
	for _, sg := range sugs {
		out = append(out, SuggestedConstraint{
			Kind:       string(sg.Kind),
			Rule:       sg.Text(),
			Support:    sg.Support,
			Violations: sg.Violations,
			Confidence: sg.Confidence,
		})
	}
	writeJSON(w, out)
}

// seed loads the demo datasets.
func (s *Server) seed() {
	running, err := rdf.ParseGraphString(`
CR coach Chelsea [2000,2004] 0.9
CR coach Leicester [2015,2017] 0.7
CR playsFor Palermo [1984,1986] 0.5
CR birthDate 1951 [1951,2017] 1.0
CR coach Napoli [2001,2003] 0.6
`)
	if err != nil {
		panic(fmt.Sprintf("server: seeding running example: %v", err))
	}
	s.addDataset("running-example", running, `
f1: quad(x, playsFor, y, t) -> quad(x, worksFor, y, t) w = 2.5
c2: quad(x, coach, y, t) ^ quad(x, coach, z, t') ^ y != z -> disjoint(t, t') w = inf
`)
	fb := kgen.Football(kgen.FootballConfig{Players: 400, NoiseRatio: 0.3, Seed: 1})
	s.addDataset("footballdb-sample", fb.Graph, kgen.FootballProgram)
	wd := kgen.Wikidata(kgen.WikidataConfig{Scale: 0.001, Seed: 1})
	s.addDataset("wikidata-sample", wd.Graph, kgen.WikidataProgram)
}

func (s *Server) addDataset(name string, g rdf.Graph, program string) error {
	st := store.New()
	if err := st.AddGraph(g); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.datasets[name] = &dataset{name: name, graph: g, stats: st.Stats(), program: strings.TrimSpace(program)}
	return nil
}

func (s *Server) dataset(name string) (*dataset, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	d, ok := s.datasets[name]
	return d, ok
}

func (s *Server) datasetNames() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.datasets))
	for n := range s.datasets {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	http.Error(w, fmt.Sprintf(format, args...), code)
}

// maxBodyBytes bounds every request body the API decodes. Datasets are
// uploaded inline, and a 10⁶-fact TQuads upload is about 100 MB.
const maxBodyBytes = 256 << 20

// maxGeneratedFacts is the same 10⁶-fact budget for generator uploads,
// whose request bodies are tiny whatever dataset they ask for.
const maxGeneratedFacts = 1_000_000

// decodeJSON decodes the request body into req, answering 413 when the
// body exceeds maxBodyBytes and 400 when it is not JSON; ok is false
// once an error reply was written. A declared oversize is refused
// before anything is read; chunked bodies are cut off at the limit.
// allowEmpty accepts an absent body as the zero request. Unknown fields
// are ignored.
func decodeJSON(w http.ResponseWriter, r *http.Request, req any, allowEmpty bool) (ok bool) {
	tooLarge := r.ContentLength > maxBodyBytes
	var err error
	if !tooLarge {
		err = json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(req)
		var limitErr *http.MaxBytesError
		tooLarge = errors.As(err, &limitErr)
	}
	switch {
	case tooLarge:
		httpError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", maxBodyBytes)
	case err == nil, allowEmpty && err == io.EOF:
		return true
	default:
		httpError(w, http.StatusBadRequest, "bad request: %v", err)
	}
	return false
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers are gone; nothing more to do than drop the connection.
		return
	}
}

// --- JSON API ---

// DatasetInfo describes a dataset in /api/datasets.
type DatasetInfo struct {
	Name       string                `json:"name"`
	Facts      int                   `json:"facts"`
	Predicates []store.PredicateStat `json:"predicates"`
	Program    string                `json:"program"`
}

func (s *Server) handleListDatasets(w http.ResponseWriter, r *http.Request) {
	var out []DatasetInfo
	for _, name := range s.datasetNames() {
		d, _ := s.dataset(name)
		out = append(out, DatasetInfo{
			Name: d.name, Facts: d.stats.Facts, Predicates: d.stats.Predicates, Program: d.program,
		})
	}
	writeJSON(w, out)
}

// UploadRequest creates a dataset from TQuads text or a generator.
type UploadRequest struct {
	Name string `json:"name"`
	// TQuads is the dataset content; mutually exclusive with Generate.
	TQuads string `json:"tquads,omitempty"`
	// Generate selects a generator: "football" or "wikidata".
	Generate string  `json:"generate,omitempty"`
	Players  int     `json:"players,omitempty"`
	Scale    float64 `json:"scale,omitempty"`
	Noise    float64 `json:"noise,omitempty"`
	Seed     int64   `json:"seed,omitempty"`
}

func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	var req UploadRequest
	if !decodeJSON(w, r, &req, false) {
		return
	}
	if req.Name == "" {
		httpError(w, http.StatusBadRequest, "dataset name required")
		return
	}
	var (
		g       rdf.Graph
		program string
		err     error
	)
	switch req.Generate {
	case "":
		g, err = rdf.ParseGraphString(req.TQuads)
		if err != nil {
			httpError(w, http.StatusBadRequest, "parsing tquads: %v", err)
			return
		}
	case "football":
		cfg := kgen.FootballConfig{Players: req.Players, NoiseRatio: req.Noise, Seed: req.Seed}
		if !generatorBounded(w, req, cfg.ExpectedFacts()) {
			return
		}
		g, program = kgen.Football(cfg).Graph, kgen.FootballProgram
	case "wikidata":
		cfg := kgen.WikidataConfig{Scale: req.Scale, NoiseRatio: req.Noise, Seed: req.Seed}
		if !generatorBounded(w, req, cfg.ExpectedFacts()) {
			return
		}
		g, program = kgen.Wikidata(cfg).Graph, kgen.WikidataProgram
	default:
		httpError(w, http.StatusBadRequest, "unknown generator %q", req.Generate)
		return
	}
	if err := s.addDataset(req.Name, g, program); err != nil {
		httpError(w, http.StatusBadRequest, "loading dataset: %v", err)
		return
	}
	d, _ := s.dataset(req.Name)
	writeJSON(w, DatasetInfo{Name: d.name, Facts: d.stats.Facts, Predicates: d.stats.Predicates, Program: d.program})
}

// generatorBounded answers 400 and reports false when a generator
// request has a negative parameter or expects more than
// maxGeneratedFacts facts, before anything is generated.
func generatorBounded(w http.ResponseWriter, req UploadRequest, expected float64) bool {
	switch {
	case req.Players < 0 || req.Scale < 0 || req.Noise < 0:
		httpError(w, http.StatusBadRequest, "generator parameters must not be negative")
	case expected > maxGeneratedFacts:
		httpError(w, http.StatusBadRequest, "generator would produce about %.0f facts, over the %d-fact limit", expected, maxGeneratedFacts)
	default:
		return true
	}
	return false
}

// handlePredicates is the auto-completion endpoint of the constraints
// editor (Figure 5): predicates of a dataset filtered by prefix.
func (s *Server) handlePredicates(w http.ResponseWriter, r *http.Request) {
	d, ok := s.dataset(r.URL.Query().Get("dataset"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown dataset")
		return
	}
	prefix := strings.ToLower(r.URL.Query().Get("q"))
	var out []string
	for _, ps := range d.stats.Predicates {
		if prefix == "" || strings.HasPrefix(strings.ToLower(ps.Predicate), prefix) {
			out = append(out, ps.Predicate)
		}
	}
	writeJSON(w, out)
}

// ConstraintRequest drives the Allen constraint builder.
type ConstraintRequest struct {
	Name            string `json:"name"`
	Pred1           string `json:"pred1"`
	Pred2           string `json:"pred2"`
	Relation        string `json:"relation"`
	DistinctObjects bool   `json:"distinctObjects"`
	// Functional builds the one-object-at-a-time constraint instead.
	Functional bool `json:"functional"`
}

func (s *Server) handleConstraint(w http.ResponseWriter, r *http.Request) {
	var req ConstraintRequest
	if !decodeJSON(w, r, &req, false) {
		return
	}
	var (
		rule *logic.Rule
		err  error
	)
	if req.Functional {
		rule, err = core.FunctionalConstraint(req.Name, req.Pred1)
	} else {
		rule, err = core.AllenConstraint(req.Name, req.Pred1, req.Pred2, req.Relation, req.DistinctObjects)
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	text := rule.String()
	if rule.Name != "" {
		text = rule.Name + ": " + text
	}
	writeJSON(w, map[string]string{"rule": text})
}

// ValidateRequest checks program text without solving.
type ValidateRequest struct {
	Rules   string `json:"rules"`
	Solver  string `json:"solver"`
	Dataset string `json:"dataset"`
}

func (s *Server) handleValidate(w http.ResponseWriter, r *http.Request) {
	var req ValidateRequest
	if !decodeJSON(w, r, &req, false) {
		return
	}
	prog, err := rulelang.Parse(req.Rules)
	if err != nil {
		writeJSON(w, map[string]any{"ok": false, "error": err.Error()})
		return
	}
	resp := map[string]any{"ok": true, "rules": len(prog.Rules)}
	if req.Solver != "" {
		solver, err := translate.ParseSolver(req.Solver)
		if err != nil {
			writeJSON(w, map[string]any{"ok": false, "error": err.Error()})
			return
		}
		if err := translate.ValidateFor(solver, prog); err != nil {
			writeJSON(w, map[string]any{"ok": false, "error": err.Error()})
			return
		}
	}
	if d, ok := s.dataset(req.Dataset); ok {
		resp["missingPredicates"] = translate.CheckPredicates(d.stats.Predicates, prog)
	}
	writeJSON(w, resp)
}

// SolveRequest runs conflict resolution on a dataset.
type SolveRequest struct {
	Dataset string `json:"dataset"`
	// Rules overrides the dataset's default program when non-empty.
	Rules     string  `json:"rules,omitempty"`
	Solver    string  `json:"solver"`
	Threshold float64 `json:"threshold,omitempty"`
	// Parallelism lowers the server's worker pool size for this solve
	// (0 = server default); a value above the server's width is capped
	// at it.
	Parallelism int `json:"parallelism,omitempty"`
}

// SolveResponse mirrors the statistics display of Figure 8 plus
// browsable consistent and conflicting statements.
type SolveResponse struct {
	Stats repair.Stats `json:"stats"`
	// The fact lists are omitted (not null) when absent — the session
	// API's delta mode returns a changelog instead of them.
	Kept     []string   `json:"kept,omitempty"`
	Removed  []string   `json:"removed,omitempty"`
	Inferred []string   `json:"inferred,omitempty"`
	Clusters [][]string `json:"clusters,omitempty"`
	// Truncated reports whether fact lists were capped.
	Truncated bool `json:"truncated,omitempty"`
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	var req SolveRequest
	if !decodeJSON(w, r, &req, false) {
		return
	}
	d, ok := s.dataset(req.Dataset)
	if !ok {
		httpError(w, http.StatusNotFound, "unknown dataset %q", req.Dataset)
		return
	}
	solver, err := translate.ParseSolver(req.Solver)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	rules := req.Rules
	if strings.TrimSpace(rules) == "" {
		rules = d.program
	}
	sess := core.NewSession()
	if err := sess.LoadProgramText(rules); err != nil {
		httpError(w, http.StatusBadRequest, "parsing rules: %v", err)
		return
	}
	// Admission comes before the dataset's store is built: a rejected
	// request must not copy the whole dataset into a store first.
	if !s.admitSolve(w) {
		return
	}
	defer s.adm.release()
	if err := sess.LoadGraph(d.graph); err != nil {
		httpError(w, http.StatusInternalServerError, "loading dataset: %v", err)
		return
	}
	res, err := sess.Solve(core.SolveOptions{
		Solver:      solver,
		Threshold:   req.Threshold,
		Parallelism: s.solveParallelism(req.Parallelism),
	})
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, "solving: %v", err)
		return
	}
	writeJSON(w, s.outcomeResponse(res.Outcome))
}

// outcomeResponse renders an Outcome with the server's fact cap
// applied. Each list is read straight from the Outcome's snapshot and
// rendering stops at the cap, so the cost is O(cap), not O(n).
func (s *Server) outcomeResponse(oc *repair.Outcome) SolveResponse {
	resp := SolveResponse{Stats: oc.Stats}
	cap := s.MaxFactsInResponse
	resp.Kept, resp.Truncated = factStrings(oc.Kept.Each, cap, resp.Truncated)
	resp.Removed, resp.Truncated = removedStrings(oc.Removed.Each, cap, resp.Truncated)
	resp.Inferred, resp.Truncated = factStrings(oc.Inferred.Each, cap, resp.Truncated)
	resp.Clusters, resp.Truncated = clusterStrings(oc.Clusters.Each, cap, resp.Truncated)
	return resp
}

// clusterStrings renders conflict clusters as key-string groups with
// the fact cap applied to the cluster count.
func clusterStrings(clusters seq[repair.Cluster], max int, truncated bool) ([][]string, bool) {
	return render(clusters, max, truncated, func(cl repair.Cluster) []string {
		keys := make([]string, 0, len(cl.Keys))
		for _, k := range cl.Keys {
			keys = append(keys, k.String())
		}
		return keys
	})
}

func factStrings(fs seq[repair.Fact], max int, truncated bool) ([]string, bool) {
	return render(fs, max, truncated, func(f repair.Fact) string { return f.Quad.Compact() })
}

// removedStrings annotates removed facts with their first explanation,
// e.g. "(CR, coach, Napoli, [2001,2003]) 0.6 — violates c2 with (...)".
func removedStrings(fs seq[repair.Fact], max int, truncated bool) ([]string, bool) {
	return render(fs, max, truncated, func(f repair.Fact) string {
		line := f.Quad.Compact()
		if len(f.Explanations) > 0 {
			line += " — violates " + f.Explanations[0].String()
		}
		return line
	})
}

// seq is a push iterator over a list: the Each method of an Outcome's
// or a changelog's FactList or ClusterList.
type seq[T any] func(yield func(T) bool)

// render formats at most max elements of each; the flag reports whether
// any list so far was cut short.
func render[T, S any](each seq[T], max int, truncated bool, format func(T) S) ([]S, bool) {
	var out []S
	each(func(x T) bool {
		if len(out) >= max {
			truncated = true
			return false
		}
		out = append(out, format(x))
		return true
	})
	return out, truncated
}

// Connection timeouts of the http.Server that Run starts, generous
// enough for a maxBodyBytes upload and for keep-alive clients that pause
// between requests: a request's header must arrive within
// readHeaderTimeout and the whole request within readTimeout, and an
// idle keep-alive connection is closed after idleTimeout. There is no
// write timeout, since a solve takes as long as it takes.
var (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 5 * time.Minute
	idleTimeout       = 2 * time.Minute
)

// Run serves the UI on addr until ctx is cancelled, then shuts down
// gracefully: in-flight requests get drainTimeout (or as long as they
// need, when 0) to finish, every durable session takes a final
// checkpoint, and every WAL is flushed and closed. Run returns nil on
// a clean shutdown.
func (s *Server) Run(ctx context.Context, addr string, drainTimeout time.Duration) error {
	hs := &http.Server{
		Addr:              addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	sctx := context.Background()
	if drainTimeout > 0 {
		var cancel context.CancelFunc
		sctx, cancel = context.WithTimeout(sctx, drainTimeout)
		defer cancel()
	}
	err := hs.Shutdown(sctx)
	// Requests are drained (or abandoned at the deadline): persist the
	// final state before releasing the WALs.
	if s.Durable() {
		if cerr := s.CheckpointAll(); err == nil {
			err = cerr
		}
	}
	if cerr := s.Close(); err == nil {
		err = cerr
	}
	return err
}
