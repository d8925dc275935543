// Package core orchestrates the TeCoRe pipeline: a Session holds an
// uncertain temporal knowledge graph and a program of temporal inference
// rules and constraints, and Solve runs the translator, a probabilistic
// solver (MLN or PSL) and conflict resolution to produce the most
// probable, expanded, conflict-free knowledge graph together with
// debugging statistics.
//
// It also provides the constraint-builder behind the Web UI's
// constraints editor: pick two predicates and an Allen relation, get the
// corresponding hard constraint.
package core

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/logic"
	"repro/internal/rdf"
	"repro/internal/repair"
	"repro/internal/rulelang"
	"repro/internal/store"
	"repro/internal/translate"
	"repro/internal/wal"
)

// Session accumulates data and program state for conflict resolution.
// It is stateful across solves: the first Solve grounds the program from
// scratch and caches the grounding engine; facts added or removed
// afterwards flow through the store's epoch delta, so later solves
// re-ground only what changed and warm-start the solvers from the
// previous solution. A Session is not safe for concurrent use; wrap it
// in a mutex (as the server's session table does) to share it.
type Session struct {
	st   *store.Store
	prog *logic.Program
	// progVersion invalidates the cached engine on program changes.
	progVersion int
	engine      *solveEngine

	// wal and dataDir are set for durable sessions (OpenSession /
	// EnableDurability): every store mutation is journaled, and
	// Checkpoint/Sync/Close control when it reaches stable storage.
	wal     *wal.Log
	dataDir string

	// budget caps the kernels' search for tests that need a starved
	// kernel: ADMM sweeps under PSL, branch-and-bound nodes under MLN.
	// It is zero (the kernels' defaults) in production, set only by
	// this package's tests before a session's first solve, and not part
	// of the kernel key.
	budget struct{ pslMaxIter, nodeLimit int }
}

// NewSession returns an empty session.
func NewSession() *Session {
	return &Session{st: store.New(), prog: &logic.Program{}}
}

// Store exposes the session's quad store.
func (s *Session) Store() *store.Store { return s.st }

// Program exposes the session's rules and constraints. The result is
// read-only: LoadProgramText and AddRule are the only ways to change the
// program, and the only changes the cached solve engine notices.
func (s *Session) Program() *logic.Program { return s.prog }

// LoadGraph adds the quads of g to the session.
func (s *Session) LoadGraph(g rdf.Graph) error { return s.st.AddGraph(g) }

// LoadGraphText parses TQuads text and adds the facts.
func (s *Session) LoadGraphText(src string) error {
	g, err := rdf.ParseGraphString(src)
	if err != nil {
		return err
	}
	return s.st.AddGraph(g)
}

// LoadGraphReader parses TQuads from r and adds the facts.
func (s *Session) LoadGraphReader(r io.Reader) error {
	g, err := rdf.ParseGraph(r)
	if err != nil {
		return err
	}
	return s.st.AddGraph(g)
}

// LoadProgramText parses rules/constraints in the surface syntax and
// appends them to the session program. Program changes invalidate the
// cached incremental engine; the next Solve re-grounds from scratch.
func (s *Session) LoadProgramText(src string) error {
	prog, err := rulelang.Parse(src)
	if err != nil {
		return err
	}
	s.prog.Rules = append(s.prog.Rules, prog.Rules...)
	s.progVersion++
	return s.prog.Validate()
}

// AddRule appends a single rule after validating it. Like
// LoadProgramText this invalidates the cached incremental engine.
func (s *Session) AddRule(r *logic.Rule) error {
	if err := r.Validate(); err != nil {
		return err
	}
	s.prog.Rules = append(s.prog.Rules, r)
	s.progVersion++
	return s.prog.Validate()
}

// Predicates returns the dataset's predicate statistics (the
// auto-completion source of the constraints editor).
func (s *Session) Predicates() []store.PredicateStat {
	return s.st.Stats().Predicates
}

// MissingPredicates lists rule predicates with no facts in the data.
func (s *Session) MissingPredicates() []string {
	return translate.CheckPredicates(s.Predicates(), s.prog)
}

// SolveOptions tunes a Solve call.
//
// Every solve runs one pipeline on the session engine — ground, sync the
// component plan, run the solver kernel, repair per conflict component,
// patch the live outcome — so a re-solve costs in proportion to the
// conflict a delta actually dirtied. Every kernel solves per component:
// each component gets the engine its solver and shape call for (under
// MLN exact bucket elimination for components of low induced width,
// exact branch-and-bound for the small dense ones elimination refuses
// and local search for the rest, as maxsat.Solve picks; ADMM under PSL;
// the greedy sweep), components solve concurrently
// on the worker pool, and per-component solution caches skip the clean
// ones.
type SolveOptions struct {
	// Solver picks the backend (default SolverMLN).
	Solver translate.Solver
	// Threshold drops derived facts below this propagated confidence.
	Threshold float64
	// Parallelism bounds the solve pipeline's worker pools (grounding,
	// per-component solves and read-outs): 0 uses GOMAXPROCS, 1 forces
	// the sequential path. Results are identical at every setting.
	Parallelism int
	// Deprecated: ignored — every MLN/PSL solve is component-decomposed; kept only until bench/ can be edited
	ComponentSolve bool
	// ColdStart starts the solver kernel from nothing for this solve: no
	// warm start from the previous solution, empty per-component solution
	// caches and an empty read-out cache (repair records and live
	// outcome). Grounding and the component plan still reuse the cached
	// delta state. A solve under another solver is a cold start too. A
	// cold start answers exactly as a fresh session over the same facts
	// does. With warm starts the exact MaxSAT engines still guarantee it
	// (bucket elimination ignores the warm start), and local-search
	// instances — components too wide for elimination — may settle on
	// equally-valid near-identical states. Warm-started PSL reaches a
	// fresh solve's kept and removed facts and removed weight, since its
	// rounding ignores where ADMM stopped (an optimum on the edge of a
	// rounding band excepted); its soft values, and so the confidences of
	// inferred facts, agree only to within ADMM's tolerance.
	ColdStart bool
}

// Resolution is the outcome of a Solve call.
type Resolution struct {
	*repair.Outcome
	// Output carries the raw solver result.
	Output *translate.Output
	// Incremental reports whether the solve consumed a store delta on
	// the cached engine rather than re-grounding from scratch.
	Incremental bool
	// Delta is the Outcome's changelog relative to the session's
	// previous solve: the facts and conflict clusters that entered or
	// left each list. Set on every solve; on the first solve and after a
	// read-out cache invalidation — ColdStart, threshold, solver or
	// kernel change — it reports the full outcome as added.
	// Its lists hold the churn's atom records and decode an entry only
	// when Each visits it, so an unread changelog costs no decoding and
	// a capped read of a full-state one decodes only the cap.
	Delta *repair.OutcomeDelta
}

// AllenConstraint builds the hard constraint the Web UI's editor
// produces: for a subject shared between predicates pred1 and pred2, the
// Allen predicate rel must hold between their validity intervals.
// Supported rel names are the thirteen Allen relations plus "disjoint"
// and "overlap"/"intersects". With distinctObjects set, the constraint
// only fires when the two facts disagree on the object (the y != z guard
// of the paper's c2).
func AllenConstraint(name, pred1, pred2, rel string, distinctObjects bool) (*logic.Rule, error) {
	if !validRuleName(name) {
		return nil, fmt.Errorf("core: invalid rule name %q (letters, digits and underscores only)", name)
	}
	if !validPredicateName(pred1) || !validPredicateName(pred2) {
		return nil, fmt.Errorf("core: invalid predicate name %q/%q", pred1, pred2)
	}
	var src strings.Builder
	if name != "" {
		fmt.Fprintf(&src, "%s: ", name)
	}
	fmt.Fprintf(&src, "quad(x, <%s>, y, t) ^ quad(x, <%s>, z, t')", pred1, pred2)
	if distinctObjects {
		src.WriteString(" ^ y != z")
	}
	fmt.Fprintf(&src, " -> %s(t, t') w = inf", rel)
	r, err := rulelang.ParseRule(src.String())
	if err != nil {
		return nil, fmt.Errorf("core: building Allen constraint: %w", err)
	}
	return r, nil
}

// FunctionalConstraint builds the equality-generating constraint of the
// paper's c3: a subject cannot have two different objects for pred at
// intersecting times (a person cannot be born in two cities).
func FunctionalConstraint(name, pred string) (*logic.Rule, error) {
	if !validRuleName(name) {
		return nil, fmt.Errorf("core: invalid rule name %q (letters, digits and underscores only)", name)
	}
	if !validPredicateName(pred) {
		return nil, fmt.Errorf("core: invalid predicate name %q", pred)
	}
	var src strings.Builder
	if name != "" {
		fmt.Fprintf(&src, "%s: ", name)
	}
	fmt.Fprintf(&src, "quad(x, <%s>, y, t) ^ quad(x, <%s>, z, t') ^ overlap(t, t') -> y = z w = inf", pred, pred)
	r, err := rulelang.ParseRule(src.String())
	if err != nil {
		return nil, fmt.Errorf("core: building functional constraint: %w", err)
	}
	return r, nil
}

func validPredicateName(p string) bool {
	return p != "" && !strings.ContainsAny(p, "<> \t\n")
}

// validRuleName accepts the identifiers the rule grammar allows as rule
// names ("" means anonymous).
func validRuleName(name string) bool {
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r == '_':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
