// Package repair interprets a MAP state as a conflict resolution of the
// input knowledge graph: which facts form the most probable consistent
// subset, which were removed as noise, which implicit facts inference
// made explicit, and the debugging statistics the TeCoRe UI displays
// (Figure 8 of the paper: total facts, conflicting facts, per-constraint
// violation counts, conflict clusters). Derived facts get a propagated
// confidence and can be filtered by a user threshold.
//
// The read-out decomposes along the conflict components of the ground
// network exactly like the solvers do: every piece — fact
// classification, confidence propagation, conflict clusters,
// explanations and violation counts — is computed per clause-connected
// scope (resolveUnit) and merged deterministically (assembleOutcome).
// BeginComponents/Finish (see components.go) is the read-out of every
// session solve, whichever solver kernel produced the MAP state: one
// unit per conflict component, held in a cache that is also the live
// outcome, so an incremental update re-repairs and re-splices only the
// components it dirtied. Resolve
// runs one unit over the whole graph; it shares no partition, cache or
// live state with the component read-out and is kept as the
// differential oracle the tests compare it against.
//
// Units and lists hold atom records, not rendered facts (record.go): a
// Fact or Cluster is decoded from the atom table's keys only when a
// reader iterates an Outcome's FactList or ClusterList, so the resident
// read-out costs 16 bytes per kept fact, and a response that renders a
// page of each list decodes a page.
package repair

import (
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/engine"
	"repro/internal/ground"
	"repro/internal/rdf"
	"repro/internal/translate"
)

// Options tunes conflict resolution.
type Options struct {
	// Threshold drops derived facts whose propagated confidence falls
	// below it (0 keeps everything).
	Threshold float64
	// Parallelism bounds the worker pool of the component-decomposed
	// read-out (ResolveComponents): 0 uses GOMAXPROCS, 1 forces the
	// sequential path. The Outcome is identical at every setting.
	Parallelism int
}

// confidenceRounds bounds the derived-confidence propagation
// iterations. Propagation normally reaches its fixpoint — which is
// unique and independent of clause iteration order — well within the
// bound; the bound only cuts off pathological cascades.
const confidenceRounds = 64

// Fact is a resolved fact with its provenance.
type Fact struct {
	Quad rdf.Quad
	// Derived reports whether the fact was inferred rather than given.
	Derived bool
	// AtomID is the ground atom behind the fact.
	AtomID ground.AtomID
	// Explanations justify a removal: the constraint groundings that
	// would be violated were the fact kept (empty for kept/inferred
	// facts).
	Explanations []Explanation
}

// Explanation names a constraint grounding responsible for a removal.
type Explanation struct {
	// Rule is the constraint's name.
	Rule string
	// Partners are the other statements of the violated grounding (all
	// kept in the final state).
	Partners []rdf.FactKey
}

// String renders the explanation: "c2 with (CR, coach, Chelsea, ...)".
func (e Explanation) String() string {
	s := e.Rule
	for i, p := range e.Partners {
		if i == 0 {
			s += " with "
		} else {
			s += ", "
		}
		s += p.String()
	}
	return s
}

// Repair modes reported in RepairStats.Mode.
const (
	// RepairWholeGraph is one read-out pass over the full ground
	// program.
	RepairWholeGraph = "whole-graph"
	// RepairComponents is the component-decomposed read-out with
	// per-component caching (ResolveComponents).
	RepairComponents = "components"
)

// RepairStats summarises the conflict-resolution read-out stage — the
// incremental counterpart of the solver's ComponentStats.
type RepairStats struct {
	// Mode reports how the read-out ran: RepairWholeGraph or
	// RepairComponents.
	Mode string
	// Components is the number of conflict components the read-out was
	// decomposed into (component mode only).
	Components int
	// Repaired counts components whose read-out was recomputed this
	// solve; Reused counts components whose cached read-out was kept.
	// In whole-graph mode Repaired is 1.
	Repaired int
	Reused   int
	// Analysis is the time spent computing (or reusing) the per-scope
	// read-outs — conflict analysis, confidence propagation, violation
	// counts; Merge is the deterministic merge into the final Outcome;
	// Total is the whole read-out stage including orchestration.
	Analysis time.Duration
	Merge    time.Duration
	Total    time.Duration
}

// Stats summarises the debugging run, mirroring the result statistics
// display of the demo.
type Stats struct {
	// TotalFacts is the number of input facts.
	TotalFacts int
	// KeptFacts is the number of input facts in the consistent subset.
	KeptFacts int
	// RemovedFacts counts input facts dropped as conflicting noise.
	RemovedFacts int
	// RemovedWeight is the total confidence mass removed.
	RemovedWeight float64
	// InferredFacts counts derived facts surviving the threshold.
	InferredFacts int
	// ThresholdFiltered counts derived facts dropped by the threshold.
	ThresholdFiltered int
	// ConflictClusters is the number of connected groups of mutually
	// conflicting facts.
	ConflictClusters int
	// RuleViolations counts residual violated groundings per rule (soft
	// rules; hard constraints are satisfied by construction).
	RuleViolations map[string]int
	// Solver names the backend used.
	Solver string
	// Runtime is the solver's inference time.
	Runtime time.Duration
	// Ground summarises the grounding stage: join wall time plus
	// per-rule plans, candidate counts and emission counts. Nil when the
	// solve did no grounding work (an empty delta).
	Ground *ground.GroundStats
	// Components summarises the solver kernel's per-component solve —
	// component count, size histogram, solved/reused split and
	// per-engine tallies. Set on every session solve; nil when the
	// output came from a whole-network oracle.
	Components *ground.ComponentStats
	// Repair summarises the conflict-resolution read-out stage: how it
	// ran (whole-graph or per-component), the repaired/reused component
	// split, and stage timings.
	Repair *RepairStats
	// Outcome summarises how the final Outcome was produced: assembled
	// from scratch (sort/merge of every read-out unit) or delta-patched
	// on the session's live outcome, with the patched/reused component
	// split and the index/merge timings.
	Outcome *OutcomeStats
	// Plan summarises how the solve obtained its component decomposition
	// plan: delta-maintained on the session engine or built from scratch
	// on its first solve, with splice/patch counts and the sync timing.
	// Set on every session solve; nil only from the read-out entry
	// points called outside a session (Resolve, ResolveComponents).
	Plan *engine.PlanStats
}

// Outcome is the full result of temporal conflict resolution. The lists
// are immutable snapshots: a session's later solves never change an
// Outcome already handed out.
type Outcome struct {
	// Kept are the input facts in the most probable consistent subset.
	Kept FactList
	// Removed are the input facts identified as conflicting noise.
	Removed FactList
	// Inferred are derived facts (threshold applied), with propagated
	// confidences in Quad.Confidence.
	Inferred FactList
	// Clusters groups the statements involved in each conflict
	// component (facts connected by violated-or-resolving constraint
	// groundings).
	Clusters ClusterList
	// Stats is the summary.
	Stats Stats
}

// ConsistentGraph returns kept plus inferred facts as a graph — the
// expanded, conflict-free utkg of Figure 7.
func (o *Outcome) ConsistentGraph() rdf.Graph {
	g := make(rdf.Graph, 0, o.Kept.Len()+o.Inferred.Len())
	add := func(f Fact) bool {
		g = append(g, f.Quad)
		return true
	}
	o.Kept.Each(add)
	o.Inferred.Each(add)
	return g
}

// countLists sets the summary statistics the lists determine, given the
// exact sum of the removed facts' confidences.
func (o *Outcome) countLists(removedWeight *engine.ExactSum) {
	o.Stats.KeptFacts = o.Kept.Len()
	o.Stats.RemovedFacts = o.Removed.Len()
	o.Stats.TotalFacts = o.Kept.Len() + o.Removed.Len()
	o.Stats.InferredFacts = o.Inferred.Len()
	o.Stats.RemovedWeight = removedWeight.Float64()
	o.Stats.ConflictClusters = o.Clusters.Len()
}

// clauseVisitor walks a scope's live clauses in stable slot order —
// ForEachSlot for the whole graph, ForEachSlots over a component's
// ComponentSlots for one component.
type clauseVisitor func(fn func(slot int32, c *ground.Clause) bool)

// unit is the conflict-resolution read-out of one clause-connected
// scope: a single conflict component, or the whole graph, held as
// records (see record.go). Each list is sorted by id; violations is nil
// when every grounding of the scope is satisfied.
type unit struct {
	kept, inferred    []fact
	removed           []removedFact
	thresholdFiltered int
	clusters          []cluster
	violations        map[string]int
}

// Selectors of a unit's lists, for gather.
func keptOf(u *unit) []fact           { return u.kept }
func removedOf(u *unit) []removedFact { return u.removed }
func inferredOf(u *unit) []fact       { return u.inferred }
func clustersOf(u *unit) []cluster    { return u.clusters }

// Cluster is one connected group of conflicting statements, tagged with
// its union-find root — a deterministic cross-scope merge order and a
// stable identity for the live outcome's delta changelog.
type Cluster struct {
	// Root is the union-find root atom of the group; roots are unique
	// across disjoint scopes, so they order and identify clusters.
	Root ground.AtomID
	// Keys are the statements of the group, sorted.
	Keys []rdf.FactKey
}

// newOutcome seeds an Outcome with the solver-side statistics.
func newOutcome(out *translate.Output) *Outcome {
	oc := &Outcome{Stats: Stats{
		Solver:  out.Solver.String(),
		Runtime: out.Runtime,
		Repair:  &RepairStats{Mode: RepairWholeGraph, Repaired: 1},
		Outcome: &OutcomeStats{Mode: OutcomeAssembled},
	}}
	if out.MLN != nil {
		oc.Stats.Components = out.MLN.Components
	} else if out.PSL != nil {
		oc.Stats.Components = out.PSL.Components
	}
	return oc
}

// liveAtoms lists the non-retracted atoms in ascending id order — the
// whole-graph scope.
func liveAtoms(atoms *ground.AtomTable) []ground.AtomID {
	scope := make([]ground.AtomID, 0, atoms.Len())
	for i := 0; i < atoms.Len(); i++ {
		if !atoms.Info(ground.AtomID(i)).Retracted {
			scope = append(scope, ground.AtomID(i))
		}
	}
	return scope
}

// Resolve interprets the translator output as a conflict resolution —
// one read-out unit over the whole graph, the differential oracle of the
// component read-out. The output must carry the full ground clause set
// the MAP state was solved over.
func Resolve(out *translate.Output, opts Options) (*Outcome, error) {
	if out.Clauses == nil {
		return nil, fmt.Errorf("repair: whole-graph read-out needs the solve's clause set (solver %v kept none)", out.Solver)
	}
	start := time.Now()
	oc := newOutcome(out)
	rs := oc.Stats.Repair

	analysisStart := time.Now()
	atoms := out.Grounder.Atoms()
	u := resolveUnit(out, liveAtoms(atoms), out.Clauses.ForEachSlot, make([]float64, atoms.Len()), opts)
	rs.Analysis = time.Since(analysisStart)

	mergeStart := time.Now()
	assembleOutcome(oc, []*unit{&u}, atoms.KeyView())
	rs.Merge = time.Since(mergeStart)
	os := oc.Stats.Outcome
	os.Patched = 1
	os.Merge = rs.Merge
	os.Total = rs.Merge
	rs.Total = time.Since(start)
	return oc, nil
}

// resolveUnit computes the read-out of one clause-connected scope from
// the scope's atoms and its clauses: scoped confidences, fact
// classification, conflict clusters with removal explanations, and
// residual violation counts. conf is shared across scopes and indexed
// by atom id; a unit writes only its own scope's entries, so disjoint
// scopes can resolve concurrently.
func resolveUnit(out *translate.Output, scope []ground.AtomID, forEach clauseVisitor, conf []float64, opts Options) unit {
	propagateConfidences(out, scope, forEach, conf)
	u := classifyScope(out, scope, conf, opts)

	// Conflict analysis over the scope's constraint groundings (the
	// all-negative clauses) and violation counts over all of them.
	atoms := out.Grounder.Atoms()
	scan := newConflictScan(atoms, out.Truth)
	forEach(func(_ int32, c *ground.Clause) bool {
		if !c.Satisfied(func(a ground.AtomID) bool { return out.Truth[a] }) {
			if u.violations == nil {
				u.violations = make(map[string]int)
			}
			u.violations[c.Rule]++
		}
		for _, l := range c.Lits {
			if !l.Neg {
				return true // inference clause
			}
		}
		scan.process(c)
		return true
	})
	u.attachAnalysis(scan)
	return u
}

// classifyScope partitions the scope's atoms into kept/removed/inferred
// fact records given the MAP state and the already-propagated
// confidences. No statement key is decoded: records carry atom ids.
func classifyScope(out *translate.Output, scope []ground.AtomID, conf []float64, opts Options) unit {
	atoms := out.Grounder.Atoms()
	var u unit
	for _, a := range scope {
		if atoms.IsEvidence(a) {
			f := fact{id: a, conf: atoms.Confidence(a)}
			if out.Truth[a] {
				u.kept = append(u.kept, f)
			} else {
				u.removed = append(u.removed, removedFact{fact: f})
			}
			continue
		}
		if !out.Truth[a] {
			continue
		}
		c := conf[a]
		if c < opts.Threshold {
			u.thresholdFiltered++
			continue
		}
		u.inferred = append(u.inferred, fact{id: a, derived: true, conf: c})
	}
	return u
}

// attachAnalysis folds a finished conflict scan into the unit: derived
// clusters, and removal explanations onto the removed facts.
func (u *unit) attachAnalysis(scan *conflictScan) {
	u.clusters = scan.clusters()
	for i := range u.removed {
		u.removed[i].ex = scan.explanations[u.removed[i].id]
	}
}

// assembleOutcome merges read-out units into the Outcome, rendered
// through view: each list is the bulk build of the units' records in id
// order, and the statistics are recomputed over it — so the merged
// result is byte-identical to a single whole-graph unit over the same
// state, and identical at every parallelism setting.
func assembleOutcome(oc *Outcome, units []*unit, view ground.KeyView) {
	oc.Kept = FactList{view: view, facts: newList(gather(units, keptOf))}
	oc.Removed = FactList{view: view, removed: newList(gather(units, removedOf))}
	oc.Inferred = FactList{view: view, facts: newList(gather(units, inferredOf))}
	oc.Clusters = ClusterList{view: view, clusters: newList(gather(units, clustersOf))}
	oc.Stats.RuleViolations = make(map[string]int)
	var w engine.ExactSum
	for _, u := range units {
		oc.Stats.ThresholdFiltered += u.thresholdFiltered
		for rule, n := range u.violations {
			oc.Stats.RuleViolations[rule] += n
		}
		for _, f := range u.removed {
			w.Add(f.conf)
		}
	}
	oc.countLists(&w)
}

// propagateConfidences assigns confidences to the scope's atoms. PSL's
// soft values are used directly. For MLN the confidence propagates
// through supporting rule groundings: a derivation is as credible as
// its weakest premise, attenuated by the rule's weight (σ(w));
// alternative derivations take the maximum. Evidence atoms keep their
// input confidence. Inference clauses never cross conflict components,
// so scoped propagation reaches the same fixpoint as a whole-graph
// pass.
func propagateConfidences(out *translate.Output, scope []ground.AtomID, forEach clauseVisitor, conf []float64) {
	atoms := out.Grounder.Atoms()
	if out.SoftValues != nil {
		for _, a := range scope {
			if atoms.IsEvidence(a) {
				conf[a] = atoms.Confidence(a)
			} else {
				conf[a] = out.SoftValues[a]
			}
		}
		return
	}
	for _, a := range scope {
		if atoms.IsEvidence(a) {
			conf[a] = atoms.Confidence(a)
		} else {
			conf[a] = 0
		}
	}

	// MLN: propagate along inference clauses (¬b1 ∨ ... ∨ ¬bn ∨ h).
	type support struct {
		head ground.AtomID
		body []ground.AtomID
		att  float64 // σ(w)
	}
	var supports []support
	forEach(func(_ int32, c *ground.Clause) bool {
		var head ground.AtomID = -1
		var body []ground.AtomID
		for _, l := range c.Lits {
			if l.Neg {
				body = append(body, l.Atom)
			} else if head == -1 {
				head = l.Atom
			} else {
				head = -1 // multi-positive clause: not an implication shape
				break
			}
		}
		if head < 0 || atoms.IsEvidence(head) || !out.Truth[head] {
			return true
		}
		att := 1.0
		if !math.IsInf(c.Weight, 1) {
			att = 1 / (1 + math.Exp(-c.Weight))
		}
		supports = append(supports, support{head: head, body: body, att: att})
		return true
	})
	for round := 0; round < confidenceRounds; round++ {
		changed := false
		for _, s := range supports {
			m := 1.0
			for _, b := range s.body {
				if !out.Truth[b] {
					m = 0
					break
				}
				if conf[b] < m {
					m = conf[b]
				}
			}
			v := m * s.att
			if v > conf[s.head]+1e-12 {
				conf[s.head] = v
				changed = true
			}
		}
		if !changed {
			break
		}
	}
}

// conflictScan folds constraint groundings into the cluster structure
// (connected components over groundings that caused removals) and
// per-removed-atom explanations: the groundings whose other members all
// survived, so keeping the removed fact would violate the constraint.
type conflictScan struct {
	atoms        *ground.AtomTable
	truth        []bool
	parent       map[ground.AtomID]ground.AtomID
	explanations map[ground.AtomID][]exPart
	removed      []ground.AtomID // scratch, reused across clauses
}

func newConflictScan(atoms *ground.AtomTable, truth []bool) *conflictScan {
	return &conflictScan{
		atoms:        atoms,
		truth:        truth,
		parent:       make(map[ground.AtomID]ground.AtomID),
		explanations: make(map[ground.AtomID][]exPart),
	}
}

func (s *conflictScan) find(a ground.AtomID) ground.AtomID {
	if s.parent[a] == a {
		return a
	}
	r := s.find(s.parent[a])
	s.parent[a] = r
	return r
}

func (s *conflictScan) union(a, b ground.AtomID) {
	for _, x := range [2]ground.AtomID{a, b} {
		if _, ok := s.parent[x]; !ok {
			s.parent[x] = x
		}
	}
	ra, rb := s.find(a), s.find(b)
	if ra != rb {
		s.parent[ra] = rb
	}
}

// process folds one constraint grounding into the cluster structure
// and, when exactly one member was removed, into that member's
// explanations (restoring it would violate the grounding against kept
// facts). Clauses are visited in place — materialising a copy of every
// constraint grounding per solve dominated incremental re-solves.
func (s *conflictScan) process(c *ground.Clause) {
	s.removed = s.removed[:0]
	for _, l := range c.Lits {
		if !s.truth[l.Atom] {
			s.removed = append(s.removed, l.Atom)
		}
	}
	if len(s.removed) == 0 {
		return
	}
	for i := 1; i < len(c.Lits); i++ {
		s.union(c.Lits[0].Atom, c.Lits[i].Atom)
	}
	if len(s.removed) == 1 {
		a := s.removed[0]
		ex, n := s.explanations[a], len(s.explanations[a])
		for _, l := range c.Lits {
			if l.Atom != a {
				ex = append(ex, exPart{rule: c.Rule, partner: l.Atom})
			}
		}
		if len(ex) == n {
			ex = append(ex, exPart{rule: c.Rule, partner: -1})
		}
		ex[len(ex)-1].end = true
		s.explanations[a] = ex
	}
}

// clusters derives the connected groups, each tagged with its root and
// its members sorted by statement key. CompareKeys orders exactly as
// rdf.FactKey.Compare on the decoded keys, without decoding them.
func (s *conflictScan) clusters() []cluster {
	groups := make(map[ground.AtomID][]ground.AtomID)
	var roots []ground.AtomID
	for a := range s.parent {
		r := s.find(a)
		if _, ok := groups[r]; !ok {
			roots = append(roots, r)
		}
		groups[r] = append(groups[r], a)
	}
	slices.Sort(roots)
	out := make([]cluster, 0, len(roots))
	for _, r := range roots {
		members := groups[r]
		slices.SortFunc(members, s.atoms.CompareKeys)
		out = append(out, cluster{root: r, members: members})
	}
	return out
}
