// Package translate is the TeCoRe Translator's contract with its MAP
// backends: the solver choice (the MLN engine standing in for nRockIt,
// the HL-MRF engine standing in for the nPSL solver, or the greedy
// baseline), the check that a program adheres to the chosen solver's
// expressivity, and the unified MAP output every backend produces. The
// session pipeline (internal/core) grounds the program and runs the
// chosen backend as a kernel over the ground network.
package translate

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/ground"
	"repro/internal/logic"
	"repro/internal/mln"
	"repro/internal/psl"
	"repro/internal/store"
)

// Solver selects the probabilistic-FOL backend.
type Solver uint8

const (
	// SolverMLN is Markov logic with numerical constraints (nRockIt):
	// exact boolean MAP, the more expressive but less scalable engine.
	SolverMLN Solver = iota
	// SolverPSL is probabilistic soft logic with the numerical extension
	// (nPSL): convex soft MAP plus rounding, the scalable engine.
	SolverPSL
	// SolverGreedy is the non-probabilistic greedy repair baseline: keep
	// facts strongest-first, skip constraint violators. Used for quality
	// comparisons against the MAP backends.
	SolverGreedy
)

// String returns "mln" or "psl".
func (s Solver) String() string {
	switch s {
	case SolverMLN:
		return "mln"
	case SolverPSL:
		return "psl"
	case SolverGreedy:
		return "greedy"
	default:
		return fmt.Sprintf("solver(%d)", uint8(s))
	}
}

// ParseSolver resolves a solver name ("mln"/"nrockit", "psl"/"npsl").
func ParseSolver(name string) (Solver, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "mln", "nrockit", "rockit":
		return SolverMLN, nil
	case "psl", "npsl":
		return SolverPSL, nil
	case "greedy", "baseline":
		return SolverGreedy, nil
	}
	return 0, fmt.Errorf("translate: unknown solver %q (want mln, psl or greedy)", name)
}

// ValidateFor verifies the program against the solver's expressivity.
//
// The MLN backend accepts the full language. The PSL backend — following
// the paper's "PSL trades expressiveness for scalability" — requires
// inference rules (atom heads) to carry finite weights: a hard boolean
// implication has no exact hinge-loss counterpart, only constraints
// (condition or falsum heads, which ground to denial clauses) may be
// hard.
func ValidateFor(solver Solver, prog *logic.Program) error {
	if err := prog.Validate(); err != nil {
		return fmt.Errorf("translate: %w", err)
	}
	if solver != SolverPSL {
		return nil
	}
	for _, r := range prog.Rules {
		if r.Head.Kind == logic.HeadAtom && r.Hard() {
			return fmt.Errorf("translate: rule %s: hard inference rules are outside PSL expressivity; give it a finite weight or use the MLN solver", displayName(r))
		}
	}
	return nil
}

func displayName(r *logic.Rule) string {
	if r.Name != "" {
		return r.Name
	}
	return r.String()
}

// CheckPredicates cross-checks the constant predicates mentioned by the
// program against the data's predicate statistics (Store.Stats),
// returning the rule predicates with no matching facts. The Web UI
// surfaces these as likely typos.
func CheckPredicates(preds []store.PredicateStat, prog *logic.Program) []string {
	present := make(map[string]bool, len(preds))
	for _, ps := range preds {
		present[ps.Predicate] = true
	}
	var missing []string
	for _, p := range prog.PredicatesUsed() {
		if !present[p] {
			missing = append(missing, p)
		}
	}
	return missing
}

// Output is the unified MAP result of every backend.
type Output struct {
	// Solver is the backend that produced the result.
	Solver Solver
	// Grounder exposes the atom table the truth vector indexes.
	Grounder *ground.Grounder
	// Clauses is the full ground clause set of the solve. The repair
	// layer reads rule groundings from it instead of re-joining the
	// program; a session engine keeps it alive across solves and sets it
	// on every solve, whichever kernel ran. Both repair.Resolve and the
	// component read-out return an error when it is nil.
	Clauses *ground.ClauseSet
	// Truth is the boolean MAP state per atom id. Every kernel returns
	// a freshly allocated vector and never writes it afterwards — a later
	// solve that warm-starts from it copies it first — so a caller may
	// hold it across solves without a copy (the read-out cache does).
	Truth []bool
	// SoftValues holds PSL's soft truth values (nil for MLN), under the
	// same contract as Truth.
	SoftValues []float64
	// MLN carries backend detail when Solver is SolverMLN, and when it is
	// SolverGreedy, whose sweep runs on the same component loop: its
	// Cost and RuleViolations score the greedy state under the MLN
	// priors, and HardSatisfied may be false.
	MLN *mln.Result
	// PSL carries backend detail when Solver == SolverPSL.
	PSL *psl.Result
	// Runtime is the end-to-end inference time including grounding.
	Runtime time.Duration
}

// TruthDelta reports whether the solver produced its MAP state under the
// plan's change-set scope (see engine.Run): every atom outside the
// scoped components carries the previous solve's truth — and on PSL its
// soft value — bit-for-bit.
func (o *Output) TruthDelta() bool {
	return (o.MLN != nil && o.MLN.TruthDelta) || (o.PSL != nil && o.PSL.TruthDelta)
}
