// Package tecore is the public API of this reproduction of TeCoRe
// (Temporal Conflict Resolution in Knowledge Graphs, VLDB 2017): a system
// for temporal inference and conflict resolution in uncertain temporal
// knowledge graphs (utkgs).
//
// A utkg is a set of temporal facts — RDF triples with a validity
// interval and a confidence value:
//
//	(CR, coach, Chelsea, [2000,2004]) 0.9
//
// TeCoRe combines such data with temporal inference rules and
// constraints written in a Datalog-style language with Allen's interval
// relations and arithmetic conditions:
//
//	f1: quad(x, playsFor, y, t) -> quad(x, worksFor, y, t) w = 2.5
//	c2: quad(x, coach, y, t) ^ quad(x, coach, z, t') ^ y != z
//	      -> disjoint(t, t') w = inf
//
// and computes — via MAP inference on a Markov-logic backend (nRockIt
// stand-in) or a probabilistic-soft-logic backend (nPSL stand-in) — the
// most probable, expanded, conflict-free knowledge graph, along with
// debugging statistics.
//
// Quickstart:
//
//	s := tecore.NewSession()
//	_ = s.LoadGraphText(data)         // TQuads text
//	_ = s.LoadProgramText(rules)      // rules + constraints
//	res, err := s.Solve(tecore.SolveOptions{Solver: tecore.SolverMLN})
//	res.Removed.Each(func(f tecore.Fact) bool { // also res.Kept, res.Inferred
//		fmt.Println(f.Quad.Compact(), f.Explanations)
//		return true
//	})
//	fmt.Println(res.Stats.KeptFacts, res.Stats.RemovedFacts)
package tecore

import (
	"io"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ground"
	"repro/internal/kgen"
	"repro/internal/logic"
	"repro/internal/rdf"
	"repro/internal/repair"
	"repro/internal/rulelang"
	"repro/internal/suggest"
	"repro/internal/temporal"
	"repro/internal/translate"
	"repro/internal/wal"
)

// Session accumulates a knowledge graph and a program of rules and
// constraints; Solve runs conflict resolution. See core.Session.
type Session = core.Session

// NewSession returns an empty session.
func NewSession() *Session { return core.NewSession() }

// OpenSession opens a durable session rooted at dir, recovering the
// persisted store (snapshot + WAL replay) if the directory holds one
// and creating an empty durable session otherwise. Rules are not
// persisted — load the program after opening. Use Session.Checkpoint
// to compact the journal and Session.Close before discarding.
func OpenSession(dir string) (*Session, error) { return core.OpenSession(dir) }

// RecoveryStats reports what opening a durable session found: whether
// a snapshot was loaded, the watermark epoch, and the replayed WAL
// suffix.
type RecoveryStats = wal.RecoveryStats

// SolveOptions tunes a Solve call: backend, derived-fact threshold,
// parallelism and cold start. Every backend runs at its package
// defaults.
type SolveOptions = core.SolveOptions

// Resolution is the outcome of conflict resolution: kept, removed and
// inferred facts plus statistics and the raw solver output.
type Resolution = core.Resolution

// BatchResult reports the net effect of a Session.ApplyBatch call:
// facts that changed liveness and facts whose confidence was raised.
type BatchResult = core.BatchResult

// Solver selects the probabilistic backend.
type Solver = translate.Solver

// Available solvers: MLN (nRockIt stand-in, exact boolean MAP) and PSL
// (nPSL stand-in, scalable convex approximation).
const (
	SolverMLN = translate.SolverMLN
	SolverPSL = translate.SolverPSL
)

// ParseSolver resolves a solver name ("mln"/"nrockit", "psl"/"npsl").
func ParseSolver(name string) (Solver, error) { return translate.ParseSolver(name) }

// Quad is an uncertain temporal fact.
type Quad = rdf.Quad

// Graph is a set of quads (a utkg).
type Graph = rdf.Graph

// Term is an RDF term (IRI, literal or blank node).
type Term = rdf.Term

// NewIRI builds an IRI term.
func NewIRI(iri string) Term { return rdf.NewIRI(iri) }

// NewQuad assembles a quad from compact IRI names.
func NewQuad(s, p, o string, iv Interval, conf float64) Quad {
	return rdf.NewQuad(s, p, o, iv, conf)
}

// Interval is a closed interval over the discrete time domain.
type Interval = temporal.Interval

// NewInterval returns the validated interval [start, end].
func NewInterval(start, end int64) (Interval, error) { return temporal.New(start, end) }

// MustInterval is NewInterval for literals in examples and tests.
func MustInterval(start, end int64) Interval { return temporal.MustNew(start, end) }

// ParseGraph reads a TQuads document.
func ParseGraph(r io.Reader) (Graph, error) { return rdf.ParseGraph(r) }

// ParseGraphString reads a TQuads document from a string.
func ParseGraphString(s string) (Graph, error) { return rdf.ParseGraphString(s) }

// WriteGraph serialises a graph as TQuads text.
func WriteGraph(w io.Writer, g Graph) error { return rdf.WriteGraph(w, g) }

// Program is a set of rules and constraints.
type Program = logic.Program

// Rule is a weighted temporal formula.
type Rule = logic.Rule

// ParseRules parses rules/constraints in the surface syntax.
func ParseRules(src string) (*Program, error) { return rulelang.Parse(src) }

// FormatRules renders a program back to parseable text.
func FormatRules(p *Program) string { return rulelang.Format(p) }

// AllenConstraint builds the constraint the Web UI's editor produces:
// the Allen predicate rel must hold between the intervals of pred1 and
// pred2 facts sharing a subject. With distinctObjects, the constraint
// only fires when the objects differ (the paper's y != z guard).
func AllenConstraint(name, pred1, pred2, rel string, distinctObjects bool) (*Rule, error) {
	return core.AllenConstraint(name, pred1, pred2, rel, distinctObjects)
}

// FunctionalConstraint builds the equality-generating constraint of the
// paper's c3: one object per subject at intersecting times.
func FunctionalConstraint(name, pred string) (*Rule, error) {
	return core.FunctionalConstraint(name, pred)
}

// Outcome is the conflict-resolution result embedded in Resolution.
type Outcome = repair.Outcome

// Stats summarises a debugging run (Figure 8 of the paper).
type Stats = repair.Stats

// ComponentStats summarises the per-conflict-component solve of the
// solver kernel — MLN, PSL or greedy — component count and sizes, the
// engine each ran on, the solved/reused split; available as
// Stats.Components on every solve.
type ComponentStats = ground.ComponentStats

// PlanStats summarises the solve-plan stage of a solve: whether the
// plan was patched in place ("maintained") or built from scratch
// ("rebuilt", only the first solve of a session engine),
// the atoms that entered and left the live set, the partition-patch
// counts, and the sync wall time;
// available as Stats.Plan on every solve. PatchedComponents and
// DroppedComponents are the change set
// the solver stage and the read-out (repair plus live outcome, one pass
// over one cache) scope their one pass to when their caches are exactly
// one maintained sync behind; after the first build — or any sync a stage
// did not see — that stage visits every component.
type PlanStats = engine.PlanStats

// GroundStats summarises the grounding stage of a solve — total wall
// time and, per rule, the chosen join order with its candidate and
// emitted-grounding counts; available as Stats.Ground (nil when the
// solve did no grounding work).
type GroundStats = ground.GroundStats

// RuleGroundStats is one rule's entry in GroundStats.
type RuleGroundStats = ground.RuleGroundStats

// RepairStats summarises the conflict-resolution read-out stage — mode
// (whole-graph or per-component), the repaired/reused component split,
// and stage timings; available as Stats.Repair.
type RepairStats = repair.RepairStats

// Repair modes reported in RepairStats.Mode.
const (
	RepairWholeGraph = repair.RepairWholeGraph
	RepairComponents = repair.RepairComponents
)

// OutcomeStats summarises how the final Outcome was produced —
// delta-patched ("live", every solve) on the session's read-out cache,
// whose one record per conflict component the global lists always sum
// to — with the patched/reused component split and the index and merge
// timings; available as Stats.Outcome. OutcomeAssembled is the
// from-scratch merge of the whole-graph read-out, repair.Resolve (the
// test oracle).
type OutcomeStats = repair.OutcomeStats

// Outcome read-out modes reported in OutcomeStats.Mode.
const (
	OutcomeAssembled = repair.OutcomeAssembled
	OutcomeLive      = repair.OutcomeLive
)

// OutcomeDelta is the changelog of a solve: the facts and conflict
// clusters that entered or left each Outcome list relative to the
// session's previous solve; available as Resolution.Delta. Its lists
// are FactLists and ClusterLists like the Outcome's: immutable, safe to
// hold, read with Len and Each, and decoded only as they are visited.
type OutcomeDelta = repair.OutcomeDelta

// Fact is a resolved fact with provenance.
type Fact = repair.Fact

// Cluster is one connected group of conflicting statements, identified
// by its union-find root atom.
type Cluster = repair.Cluster

// FactList and ClusterList are the Outcome's lists: immutable snapshots
// in ascending id order, held as compact atom records in chunks shared
// between a session's successive Outcomes. Read them with Len and Each,
// which decodes each Fact or Cluster as it visits it — a reader that
// stops after a page decodes a page; with Go 1.23 or newer, the method
// value (res.Kept.Each) is an iter.Seq to range over or pass to
// slices.Collect.
type (
	FactList    = repair.FactList
	ClusterList = repair.ClusterList
)

// Dataset is a generated evaluation dataset with gold noise labels.
type Dataset = kgen.Dataset

// FootballConfig parameterises the FootballDB-profile generator.
type FootballConfig = kgen.FootballConfig

// WikidataConfig parameterises the Wikidata-profile generator.
type WikidataConfig = kgen.WikidataConfig

// ClusteredConfig parameterises the clustered-conflict generator: many
// small independent conflict clusters with a tunable inter-cluster
// bridge rate — the structure the component-decomposed solver exploits.
type ClusteredConfig = kgen.ClusteredConfig

// GenerateFootball builds a FootballDB-profile dataset (>13K playsFor,
// >6K birthDate facts at default scale) with optional labelled noise.
func GenerateFootball(cfg FootballConfig) *Dataset { return kgen.Football(cfg) }

// GenerateWikidata builds a Wikidata-profile dataset with the paper's
// per-relation cardinalities scaled by cfg.Scale.
func GenerateWikidata(cfg WikidataConfig) *Dataset { return kgen.Wikidata(cfg) }

// GenerateClustered builds a clustered-conflict dataset: cfg.Clusters
// independent conflict clusters of cfg.ClusterSize facts each, merged
// pairwise with probability cfg.BridgeRate.
func GenerateClustered(cfg ClusteredConfig) *Dataset { return kgen.Clustered(cfg) }

// FootballProgram is the standard constraint set for the football
// profile (no two teams at once, single birth date, born before plays).
const FootballProgram = kgen.FootballProgram

// WikidataProgram is the standard constraint set for the Wikidata
// profile.
const WikidataProgram = kgen.WikidataProgram

// ClusteredProgram is the standard constraint set for the clustered
// profile: a player plays for one club at a time (the intra-cluster
// conflicts) and a club fields one of the generated players at a time
// (the constraint bridge facts violate across clusters).
const ClusteredProgram = kgen.ClusteredProgram

// ConstraintSuggestion is a mined candidate constraint with its support
// statistics.
type ConstraintSuggestion = suggest.Suggestion

// SuggestOptions tunes the constraint miner.
type SuggestOptions = suggest.Options

// SuggestConstraints mines candidate temporal constraints from the
// session's data — the "automatic derivation or suggestion of
// constraints" the paper proposes as a demonstration goal. Suggestions
// come sorted by confidence; review them before adding via AddRule.
func SuggestConstraints(s *Session, opts SuggestOptions) ([]ConstraintSuggestion, error) {
	return suggest.Mine(s.Store(), opts)
}
