package repair

import (
	"fmt"
	"reflect"
	"sort"
	"time"

	"repro/internal/engine"
	"repro/internal/ground"
	"repro/internal/rdf"
)

// Delta-maintained Outcome.
//
// After the solver and repair stages went component-incremental (PRs
// 3–4), assembling the final Outcome — the sort/merge of every
// component's kept/removed/inferred facts and conflict clusters — was
// the last whole-graph work on the update path. LiveOutcome removes it:
// the session keeps one live outcome whose global fact lists and cluster
// list stay sorted across solves, and each re-solve applies a Patch per
// component in the analysis scope (subtract the component's previous
// contribution, splice in the new one) — the planner's change set on a
// chained update, every component on a first or re-anchoring solve, one
// sync for both — instead of rebuilding everything. The materialized
// Outcome is byte-identical to what whole-graph assembly produces over
// the same units, and every patch also feeds an OutcomeDelta changelog
// so callers can consume diffs instead of snapshots.

// Outcome read-out modes reported in OutcomeStats.Mode.
const (
	// OutcomeAssembled is the from-scratch sort/merge of every read-out
	// unit (whole-graph Resolve, and ResolveComponents without a live
	// outcome — the test oracle and one-shot callers outside a session).
	OutcomeAssembled = "assembled"
	// OutcomeLive is the delta-patched read-out: per-component patches
	// applied to the session's live outcome.
	OutcomeLive = "live"
	// OutcomeDeltaOnly is the live path with materialization skipped
	// (Options.DeltaOnly): the Outcome carries exact counts and the
	// changelog but nil fact/cluster lists.
	OutcomeDeltaOnly = "live-delta"
)

// OutcomeStats summarises how the final Outcome was produced — the
// read-out counterpart of RepairStats for the merge stage.
type OutcomeStats struct {
	// Mode reports how the Outcome was built: OutcomeAssembled or
	// OutcomeLive.
	Mode string
	// Patched counts components whose contribution was (re)applied to
	// the live outcome this solve; Reused counts components whose held
	// contribution was kept untouched. In assembled mode Patched is the
	// number of units merged.
	Patched int
	Reused  int
	// Index is the time spent maintaining the global indices (patch
	// subtraction, splices, changelog); Merge is the materialization of
	// the Outcome from them (assembled mode folds everything into Merge);
	// Total is the whole stage.
	Index time.Duration
	Merge time.Duration
	Total time.Duration
}

// Patch is one conflict component's contribution to the Outcome: its
// classified facts, conflict clusters and violation counts. Applying a
// patch replaces the component's previous contribution wholesale. A
// Patch is immutable once applied — its slices are shared with the
// repair cache and with materialized Outcomes.
type Patch struct {
	// Component is the conflict component's stable key (its smallest
	// atom id).
	Component ground.AtomID
	// Kept, Removed and Inferred are the component's classified facts
	// (any order; the live outcome sorts on application).
	Kept, Removed, Inferred []Fact
	// Clusters are the component's conflict clusters.
	Clusters []Cluster
	// Violations counts the component's residual violated groundings
	// per rule.
	Violations map[string]int
	// ThresholdFiltered counts derived facts the threshold dropped.
	ThresholdFiltered int
}

// OutcomeDelta is the changelog of one live-outcome update: the facts
// and conflict clusters that entered or left each list relative to the
// previous materialized Outcome. A fact whose content changed (e.g. a
// derived confidence moved) appears in both the Removed (old content)
// and Added (new content) lists; an untouched fact appears in neither,
// even when its component was re-patched. Fact lists are sorted by atom
// id, cluster lists by cluster root.
type OutcomeDelta struct {
	AddedKept   []Fact
	RemovedKept []Fact

	AddedRemoved   []Fact
	RemovedRemoved []Fact

	AddedInferred   []Fact
	RemovedInferred []Fact

	AddedClusters   [][]rdf.FactKey
	RemovedClusters [][]rdf.FactKey
}

// Empty reports whether the update changed nothing.
func (d *OutcomeDelta) Empty() bool {
	return len(d.AddedKept) == 0 && len(d.RemovedKept) == 0 &&
		len(d.AddedRemoved) == 0 && len(d.RemovedRemoved) == 0 &&
		len(d.AddedInferred) == 0 && len(d.RemovedInferred) == 0 &&
		len(d.AddedClusters) == 0 && len(d.RemovedClusters) == 0
}

// factClass names the outcome list a fact belongs to.
type factClass uint8

const (
	classKept factClass = iota + 1
	classRemoved
	classInferred
)

// LiveOutcome is a delta-maintained conflict-resolution result: global
// kept/removed/inferred lists sorted by atom id, the cluster list
// sorted by root, and per-component held patches under the engine
// cache's (component key, generation, membership) invariant — the
// fourth consumer of that invariant after the MLN, PSL and repair
// caches. Construct with NewLiveOutcome. Not safe for concurrent use.
// The owner must drop it whenever the repair component cache is dropped
// (ColdStart, threshold, solver kernel or tuning changes).
type LiveOutcome struct {
	// held stores each component's applied patch; Lookup hits prove the
	// held contribution belongs to an unchanged component, and its
	// generation is the plan generation the live outcome was last synced
	// against.
	held *engine.Cache[*Patch]

	// Global indices. The fact slices are copy-on-write: every sync
	// builds new backing arrays, so slices handed out by a previous
	// materialization remain valid snapshots.
	kept, removed, inferred []Fact
	clusters                []Cluster
	// clusterKeys is the materialized snapshot of clusters, rebuilt
	// only when a sync changes them (an unchanged cluster list is the
	// common case on single-fact updates that dirty a cluster-free
	// region).
	clusterKeys [][]rdf.FactKey

	violations        map[string]int
	thresholdFiltered int

	// delta is the changelog of the most recent sync; patched/reused is
	// its component split.
	delta   OutcomeDelta
	patched int
	reused  int

	// deferSplices, when set, makes apply accumulate each sync's churn
	// into the pending lists below instead of splicing the global
	// fact/cluster lists immediately — the delta-only serving mode,
	// where per-update cost stays proportional to the churn while the
	// violation counts and changelog remain exact and eager. The
	// next flush (any materializing solve) applies the composed pending
	// splice; the resulting lists are element-identical to what
	// step-by-step splicing would have produced.
	deferSplices     bool
	pendRmK, pendAdK []Fact
	pendRmR, pendAdR []Fact
	pendRmI, pendAdI []Fact
	pendRmC, pendAdC []Cluster
	// removedWeight tracks Stats.RemovedWeight across deferred syncs by
	// subtract-and-add; float drift is re-anchored to the exactly summed
	// value on every materialization.
	removedWeight float64
}

// NewLiveOutcome returns an empty live outcome; its first sync reports
// the full state as added.
func NewLiveOutcome() *LiveOutcome {
	return &LiveOutcome{
		held:        engine.NewCache[*Patch](),
		kept:        []Fact{},
		removed:     []Fact{},
		inferred:    []Fact{},
		clusters:    []Cluster{},
		clusterKeys: [][]rdf.FactKey{},
		violations:  make(map[string]int),
	}
}

// Delta returns the changelog of the most recent sync. The returned
// struct's slices are immutable snapshots.
func (lo *LiveOutcome) Delta() *OutcomeDelta {
	d := lo.delta
	return &d
}

// sync reconciles the live outcome with one solve's plan over scope —
// the components the repair analysis visited (see engine.Plan.Scope;
// the caller established that the held patches were settled against the
// generation the scope was asked for). A visited component whose
// read-out is provably unchanged (reusable by the caller's criteria AND
// held under an unchanged (key, generation, membership)) keeps its
// contribution; every other visited component is re-patched from fresh,
// components outside the scope stand without being re-proven, and
// components that left the partition are retired. reusable and fresh
// are indexed by position in scope.
func (lo *LiveOutcome) sync(plan *engine.Plan, scope []int32, reusable func(k int) bool, fresh func(k int) *Patch) {
	lo.patched = 0
	var subtract, add []*Patch
	for k, ci := range scope {
		comp := &plan.Comps[ci]
		if reusable(k) {
			if _, ok := lo.held.Lookup(comp); ok {
				continue
			}
		}
		p := fresh(k)
		lo.patched++
		if op, ok := lo.held.Peek(comp.Key); ok {
			subtract = append(subtract, op)
		}
		add = append(add, p)
		lo.held.Put(comp, p)
	}
	lo.held.Settle(plan, func(p *Patch) { subtract = append(subtract, p) })
	lo.reused = len(plan.Comps) - lo.patched
	lo.apply(subtract, add)
}

// apply removes the subtracted patches' contributions and splices in
// the added ones, maintaining the sorted global lists, the violation
// counts and the changelog. With deferSplices set the
// list splices are composed into the pending churn instead (flush
// applies them); everything else stays eager.
func (lo *LiveOutcome) apply(subtract, add []*Patch) {
	lo.delta = OutcomeDelta{}
	if len(subtract) == 0 && len(add) == 0 {
		return
	}

	for _, p := range subtract {
		for rule, n := range p.Violations {
			if lo.violations[rule] -= n; lo.violations[rule] == 0 {
				delete(lo.violations, rule)
			}
		}
		lo.thresholdFiltered -= p.ThresholdFiltered
	}
	for _, p := range add {
		for rule, n := range p.Violations {
			lo.violations[rule] += n
		}
		lo.thresholdFiltered += p.ThresholdFiltered
	}

	// Gather per-class removal/addition lists in deterministic (atom
	// id) order.
	collect := func(sel func(*Patch) []Fact) (rm, ad []Fact) {
		for _, p := range subtract {
			rm = append(rm, sel(p)...)
		}
		for _, p := range add {
			ad = append(ad, sel(p)...)
		}
		sortFacts(rm)
		sortFacts(ad)
		return rm, ad
	}
	rmK, adK := collect(func(p *Patch) []Fact { return p.Kept })
	rmR, adR := collect(func(p *Patch) []Fact { return p.Removed })
	rmI, adI := collect(func(p *Patch) []Fact { return p.Inferred })

	// Cancel the facts a re-patched component carries over unchanged:
	// what remains is the true churn, which keeps the splice window
	// proportional to the delta, not to the dirtied component. A fully-cancelled class skips its copy-on-
	// write rebuild entirely, the dominant per-update cost on large
	// graphs.
	factID := func(f Fact) ground.AtomID { return f.AtomID }
	rmK, adK = cancelCommon(rmK, adK, factID)
	rmR, adR = cancelCommon(rmR, adR, factID)
	rmI, adI = cancelCommon(rmI, adI, factID)

	// RemovedWeight churn is ∝ delta; the exact sum re-anchors it on
	// every materialization.
	for i := range rmR {
		lo.removedWeight -= rmR[i].Quad.Confidence
	}
	for i := range adR {
		lo.removedWeight += adR[i].Quad.Confidence
	}

	var rmC, adC []Cluster
	for _, p := range subtract {
		rmC = append(rmC, p.Clusters...)
	}
	for _, p := range add {
		adC = append(adC, p.Clusters...)
	}
	sort.Slice(rmC, func(i, j int) bool { return rmC[i].Root < rmC[j].Root })
	sort.Slice(adC, func(i, j int) bool { return adC[i].Root < adC[j].Root })
	rmC, adC = cancelCommon(rmC, adC, func(c Cluster) ground.AtomID { return c.Root })

	// Compose this sync's churn into the pending splice; flush applies
	// it to the global lists — immediately on a materializing solve,
	// deferred across delta-only ones.
	clusterID := func(c Cluster) ground.AtomID { return c.Root }
	lo.pendRmK, lo.pendAdK = composeChurn(lo.pendRmK, lo.pendAdK, rmK, adK, factID)
	lo.pendRmR, lo.pendAdR = composeChurn(lo.pendRmR, lo.pendAdR, rmR, adR, factID)
	lo.pendRmI, lo.pendAdI = composeChurn(lo.pendRmI, lo.pendAdI, rmI, adI, factID)
	lo.pendRmC, lo.pendAdC = composeChurn(lo.pendRmC, lo.pendAdC, rmC, adC, clusterID)
	if !lo.deferSplices {
		lo.flush()
	}

	// Changelog: after cancellation the remaining lists ARE the true
	// churn (every carried-over fact and cluster cancelled above; ids
	// map 1:1 to statements and groups), already in deterministic id
	// order.
	lo.delta.RemovedKept, lo.delta.AddedKept = rmK, adK
	lo.delta.RemovedRemoved, lo.delta.AddedRemoved = rmR, adR
	lo.delta.RemovedInferred, lo.delta.AddedInferred = rmI, adI
	lo.delta.RemovedClusters = clusterKeyLists(rmC)
	lo.delta.AddedClusters = clusterKeyLists(adC)
}

// flush applies the composed pending churn to the global sorted lists
// (one copy-on-write splice per touched list) and clears it. Because
// composeChurn keeps, per id, only the latest content and cancels
// additions that were later removed, the flushed lists are element-
// identical to what splicing each sync individually would produce.
func (lo *LiveOutcome) flush() {
	factID := func(f Fact) ground.AtomID { return f.AtomID }
	if len(lo.pendRmK) > 0 || len(lo.pendAdK) > 0 {
		lo.kept = splice(lo.kept, lo.pendRmK, lo.pendAdK, factID)
		lo.pendRmK, lo.pendAdK = nil, nil
	}
	if len(lo.pendRmR) > 0 || len(lo.pendAdR) > 0 {
		lo.removed = splice(lo.removed, lo.pendRmR, lo.pendAdR, factID)
		lo.pendRmR, lo.pendAdR = nil, nil
	}
	if len(lo.pendRmI) > 0 || len(lo.pendAdI) > 0 {
		lo.inferred = splice(lo.inferred, lo.pendRmI, lo.pendAdI, factID)
		lo.pendRmI, lo.pendAdI = nil, nil
	}
	if len(lo.pendRmC) > 0 || len(lo.pendAdC) > 0 {
		lo.clusters = splice(lo.clusters, lo.pendRmC, lo.pendAdC, func(c Cluster) ground.AtomID { return c.Root })
		lo.pendRmC, lo.pendAdC = nil, nil
		keys := make([][]rdf.FactKey, 0, len(lo.clusters))
		for _, c := range lo.clusters {
			keys = append(keys, c.Keys)
		}
		lo.clusterKeys = keys
	}
}

// composeChurn folds one sync's churn (rm, ad — each sorted by id, the
// true churn after cancellation) into the pending churn (R, A) held
// against the last flushed lists, preserving visible-state equivalence:
// splice(flushed, R', A') == splice(splice(flushed, R, A), rm, ad). An
// id removed now either cancels a pending addition that never reached
// the flushed lists, or marks a flushed element for removal; an id
// added now joins the pending additions (possibly paired with a pending
// removal of the same id — content replacement, which splice applies as
// remove-then-insert). Both returned sides stay sorted and id-unique.
func composeChurn[T any](R, A, rm, ad []T, id func(T) ground.AtomID) ([]T, []T) {
	if len(rm) == 0 && len(ad) == 0 {
		return R, A
	}
	// Split rm: ids present in A cancel those pending additions; the
	// rest are removals of flushed elements.
	keptA := A
	var rmBase []T
	if len(A) == 0 {
		rmBase = rm
	} else {
		keptA = make([]T, 0, len(A))
		i, j := 0, 0
		for i < len(A) || j < len(rm) {
			switch {
			case i == len(A):
				rmBase = append(rmBase, rm[j])
				j++
			case j == len(rm):
				keptA = append(keptA, A[i])
				i++
			case id(A[i]) == id(rm[j]):
				i++
				j++
			case id(A[i]) < id(rm[j]):
				keptA = append(keptA, A[i])
				i++
			default:
				rmBase = append(rmBase, rm[j])
				j++
			}
		}
	}
	return mergeByID(R, rmBase, id), mergeByID(keptA, ad, id)
}

// mergeByID merges two id-sorted, id-disjoint lists.
func mergeByID[T any](a, b []T, id func(T) ground.AtomID) []T {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return b
	}
	out := make([]T, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if id(a[i]) < id(b[j]) {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// clusterKeyLists projects clusters onto their member statements, the
// shape the changelog exposes; nil stays nil so Empty() keeps working.
func clusterKeyLists(cs []Cluster) [][]rdf.FactKey {
	if len(cs) == 0 {
		return nil
	}
	out := make([][]rdf.FactKey, 0, len(cs))
	for _, c := range cs {
		out = append(out, c.Keys)
	}
	return out
}

// cancelCommon drops the elements present with identical content on
// both sides of a patch application. Both inputs are sorted by a
// unique id (an atom keeps its id across retraction and revival and
// maps to one statement; a cluster root identifies one group), so a
// linear merge finds every carried-over element; a fully-cancelled
// side comes back nil, letting the caller skip its list entirely.
func cancelCommon[T any](rm, ad []T, id func(T) ground.AtomID) ([]T, []T) {
	i, j := 0, 0
	var outRm, outAd []T
	for i < len(rm) && j < len(ad) {
		a, b := rm[i], ad[j]
		switch ia, ib := id(a), id(b); {
		case ia == ib:
			if !reflect.DeepEqual(a, b) {
				outRm = append(outRm, a)
				outAd = append(outAd, b)
			}
			i++
			j++
		case ia < ib:
			outRm = append(outRm, a)
			i++
		default:
			outAd = append(outAd, b)
			j++
		}
	}
	outRm = append(outRm, rm[i:]...)
	outAd = append(outAd, ad[j:]...)
	return outRm, outAd
}

// splice returns global with rm's elements removed and ad's inserted,
// preserving ascending id order. Both rm and ad must be sorted by id,
// every rm id must be present in global, and no ad id may collide with
// a surviving element. Copy-on-write: the result is a fresh backing
// array, with the untouched prefix and suffix block-copied and only the
// affected id window merged element-wise.
func splice[T any](global, rm, ad []T, id func(T) ground.AtomID) []T {
	if len(rm) == 0 && len(ad) == 0 {
		return global
	}
	var min, max ground.AtomID
	first := true
	for _, s := range [2][]T{rm, ad} {
		if len(s) == 0 {
			continue
		}
		if lo, hi := id(s[0]), id(s[len(s)-1]); first {
			min, max, first = lo, hi, false
		} else {
			if lo < min {
				min = lo
			}
			if hi > max {
				max = hi
			}
		}
	}
	lo := sort.Search(len(global), func(i int) bool { return id(global[i]) >= min })
	hi := sort.Search(len(global), func(i int) bool { return id(global[i]) > max })

	out := make([]T, 0, len(global)-len(rm)+len(ad))
	out = append(out, global[:lo]...)
	ai, ri := 0, 0
	for _, x := range global[lo:hi] {
		for ai < len(ad) && id(ad[ai]) < id(x) {
			out = append(out, ad[ai])
			ai++
		}
		if ri < len(rm) && id(rm[ri]) == id(x) {
			ri++
			continue
		}
		out = append(out, x)
	}
	out = append(out, ad[ai:]...)
	out = append(out, global[hi:]...)
	return out
}

// materialize renders the live state into oc, byte-identical to
// assembleOutcome over the same per-component units: the fact and
// cluster slices are the maintained sorted snapshots, and the
// summary statistics are recomputed in that same merged order (the
// float accumulation of RemovedWeight is order-sensitive, so it is
// summed rather than maintained).
func (lo *LiveOutcome) materialize(oc *Outcome) {
	lo.flush()
	oc.Kept, oc.Removed, oc.Inferred = lo.kept, lo.removed, lo.inferred
	oc.Stats.KeptFacts = len(oc.Kept)
	oc.Stats.RemovedFacts = len(oc.Removed)
	oc.Stats.TotalFacts = len(oc.Kept) + len(oc.Removed)
	oc.Stats.InferredFacts = len(oc.Inferred)
	oc.Stats.ThresholdFiltered = lo.thresholdFiltered
	for _, f := range oc.Removed {
		oc.Stats.RemovedWeight += f.Quad.Confidence
	}
	lo.removedWeight = oc.Stats.RemovedWeight
	oc.Stats.RuleViolations = make(map[string]int, len(lo.violations))
	for rule, n := range lo.violations {
		oc.Stats.RuleViolations[rule] = n
	}
	oc.Clusters = lo.clusterKeys
	oc.Stats.ConflictClusters = len(oc.Clusters)
}

// materializeCounts fills oc.Stats from the maintained aggregates
// without flushing the pending splices or attaching the global lists —
// the delta-only read-out: Kept/Removed/Inferred/Clusters stay nil, the
// integer counts and violation map are exact, and RemovedWeight is the
// incrementally tracked value (it may differ from the exactly summed
// one in the last floating-point bits until the next materialization).
func (lo *LiveOutcome) materializeCounts(oc *Outcome) {
	kept := len(lo.kept) - len(lo.pendRmK) + len(lo.pendAdK)
	removed := len(lo.removed) - len(lo.pendRmR) + len(lo.pendAdR)
	inferred := len(lo.inferred) - len(lo.pendRmI) + len(lo.pendAdI)
	oc.Stats.KeptFacts = kept
	oc.Stats.RemovedFacts = removed
	oc.Stats.TotalFacts = kept + removed
	oc.Stats.InferredFacts = inferred
	oc.Stats.ThresholdFiltered = lo.thresholdFiltered
	oc.Stats.RemovedWeight = lo.removedWeight
	oc.Stats.RuleViolations = make(map[string]int, len(lo.violations))
	for rule, n := range lo.violations {
		oc.Stats.RuleViolations[rule] = n
	}
	oc.Stats.ConflictClusters = len(lo.clusters) - len(lo.pendRmC) + len(lo.pendAdC)
}

// checkInvariants validates the live outcome's deterministic-order and
// agreement invariants: each list strictly ascending in its id, every
// statement in exactly one list, and the held per-component patches
// summing to the global state. Used by the tests and FuzzOutcomePatch;
// not on the hot path.
func (lo *LiveOutcome) checkInvariants() error {
	// Pending deferred churn is not an invariant violation — land it
	// first (a visible-state no-op) so lists and patches agree.
	lo.flush()
	classOf := make(map[rdf.FactKey]factClass)
	for _, l := range []struct {
		name  string
		facts []Fact
		class factClass
	}{
		{"kept", lo.kept, classKept},
		{"removed", lo.removed, classRemoved},
		{"inferred", lo.inferred, classInferred},
	} {
		for i, f := range l.facts {
			if i > 0 && l.facts[i-1].AtomID >= f.AtomID {
				return fmt.Errorf("%s not strictly ascending at %d (atom %d after %d)",
					l.name, i, f.AtomID, l.facts[i-1].AtomID)
			}
			if cls, dup := classOf[f.Quad.Fact()]; dup {
				return fmt.Errorf("%s fact %v is also listed under class %d", l.name, f.Quad.Fact(), cls)
			}
			classOf[f.Quad.Fact()] = l.class
		}
	}
	total := len(classOf)
	for i := range lo.clusters {
		if i > 0 && lo.clusters[i-1].Root >= lo.clusters[i].Root {
			return fmt.Errorf("clusters not strictly ascending at %d", i)
		}
	}
	held := 0
	var err error
	lo.held.Each(func(k ground.AtomID, p *Patch) {
		if p.Component != k {
			err = fmt.Errorf("held patch keyed %d claims component %d", k, p.Component)
		}
		held += len(p.Kept) + len(p.Removed) + len(p.Inferred)
	})
	if err != nil {
		return err
	}
	if held != total {
		return fmt.Errorf("held patches sum to %d facts, lists hold %d", held, total)
	}
	return nil
}
