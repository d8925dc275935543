package repair

import (
	"reflect"
	"sort"
	"time"

	"repro/internal/ground"
	"repro/internal/rdf"
)

// Delta-maintained Outcome.
//
// A session's ComponentCache is its live outcome: one record per conflict
// component (the cached read-out unit) plus global kept/removed/inferred
// lists sorted by atom id and a cluster list sorted by root, which always
// equal the sum of the held units. Each re-solve's one read-out pass
// collects the units leaving the outcome (the stale unit of every
// re-repaired component, and the units of components that left the
// partition) and those entering it; Finish subtracts the one set and
// splices in the other instead of re-assembling everything. The
// materialized Outcome is byte-identical to what whole-graph assembly
// produces over the same units, and every update also feeds an
// OutcomeDelta changelog so callers can consume diffs instead of
// snapshots.

// Outcome read-out modes reported in OutcomeStats.Mode.
const (
	// OutcomeAssembled is the from-scratch sort/merge of every read-out
	// unit (whole-graph Resolve, and ResolveComponents without a cache —
	// the test oracle).
	OutcomeAssembled = "assembled"
	// OutcomeLive is the delta-patched read-out: per-component units
	// applied to the cache's live lists.
	OutcomeLive = "live"
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
	// Index is the time spent maintaining the global indices (unit
	// subtraction, splices, changelog); Merge is the materialization of
	// the Outcome from them (assembled mode folds everything into Merge);
	// Total is the whole stage.
	Index time.Duration
	Merge time.Duration
	Total time.Duration
}

// OutcomeDelta is the changelog of one live-outcome update: the facts
// and conflict clusters that entered or left each list relative to the
// previous materialized Outcome. A fact whose content changed (e.g. a
// derived confidence moved) appears in both the Removed (old content)
// and Added (new content) lists; an untouched fact appears in neither,
// even when its component was re-repaired. Fact lists are sorted by atom
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

// apply removes the subtracted units' contributions and splices in the
// added ones, maintaining the sorted global lists, the violation counts
// and the changelog. The list splices are copy-on-write, so slices
// handed out by a previous materialization remain valid snapshots.
func (c *ComponentCache) apply(subtract, add []*unit) {
	c.delta = OutcomeDelta{}
	if len(subtract) == 0 && len(add) == 0 {
		return
	}

	for _, u := range subtract {
		for rule, n := range u.violations {
			if c.violations[rule] -= n; c.violations[rule] == 0 {
				delete(c.violations, rule)
			}
		}
		c.thresholdFiltered -= u.thresholdFiltered
	}
	for _, u := range add {
		for rule, n := range u.violations {
			c.violations[rule] += n
		}
		c.thresholdFiltered += u.thresholdFiltered
	}

	// Gather per-class removal/addition lists in deterministic (atom
	// id) order.
	collect := func(sel func(*unit) []Fact) (rm, ad []Fact) {
		for _, u := range subtract {
			rm = append(rm, sel(u)...)
		}
		for _, u := range add {
			ad = append(ad, sel(u)...)
		}
		sortFacts(rm)
		sortFacts(ad)
		return rm, ad
	}
	rmK, adK := collect(func(u *unit) []Fact { return u.kept })
	rmR, adR := collect(func(u *unit) []Fact { return u.removed })
	rmI, adI := collect(func(u *unit) []Fact { return u.inferred })

	// Cancel the facts a re-repaired component carries over unchanged:
	// what remains is the true churn, which keeps the splice window
	// proportional to the delta, not to the dirtied component. A
	// fully-cancelled class skips its copy-on-write rebuild entirely, the
	// dominant per-update cost on large graphs.
	factID := func(f Fact) ground.AtomID { return f.AtomID }
	rmK, adK = cancelCommon(rmK, adK, factID)
	rmR, adR = cancelCommon(rmR, adR, factID)
	rmI, adI = cancelCommon(rmI, adI, factID)
	c.kept = splice(c.kept, rmK, adK, factID)
	c.removed = splice(c.removed, rmR, adR, factID)
	c.inferred = splice(c.inferred, rmI, adI, factID)

	var rmC, adC []Cluster
	for _, u := range subtract {
		rmC = append(rmC, u.clusters...)
	}
	for _, u := range add {
		adC = append(adC, u.clusters...)
	}
	sort.Slice(rmC, func(i, j int) bool { return rmC[i].Root < rmC[j].Root })
	sort.Slice(adC, func(i, j int) bool { return adC[i].Root < adC[j].Root })
	clusterID := func(c Cluster) ground.AtomID { return c.Root }
	rmC, adC = cancelCommon(rmC, adC, clusterID)
	if len(rmC) > 0 || len(adC) > 0 {
		c.clusters = splice(c.clusters, rmC, adC, clusterID)
		keys := make([][]rdf.FactKey, 0, len(c.clusters))
		for _, cl := range c.clusters {
			keys = append(keys, cl.Keys)
		}
		c.clusterKeys = keys
	}

	// Changelog: after cancellation the remaining lists ARE the true
	// churn (every carried-over fact and cluster cancelled above; ids
	// map 1:1 to statements and groups), already in deterministic id
	// order.
	c.delta.RemovedKept, c.delta.AddedKept = rmK, adK
	c.delta.RemovedRemoved, c.delta.AddedRemoved = rmR, adR
	c.delta.RemovedInferred, c.delta.AddedInferred = rmI, adI
	c.delta.RemovedClusters = clusterKeyLists(rmC)
	c.delta.AddedClusters = clusterKeyLists(adC)
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
// both sides of a unit application. Both inputs are sorted by a
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
func (c *ComponentCache) materialize(oc *Outcome) {
	oc.Kept, oc.Removed, oc.Inferred = c.kept, c.removed, c.inferred
	oc.Stats.KeptFacts = len(oc.Kept)
	oc.Stats.RemovedFacts = len(oc.Removed)
	oc.Stats.TotalFacts = len(oc.Kept) + len(oc.Removed)
	oc.Stats.InferredFacts = len(oc.Inferred)
	oc.Stats.ThresholdFiltered = c.thresholdFiltered
	for _, f := range oc.Removed {
		oc.Stats.RemovedWeight += f.Quad.Confidence
	}
	oc.Stats.RuleViolations = make(map[string]int, len(c.violations))
	for rule, n := range c.violations {
		oc.Stats.RuleViolations[rule] = n
	}
	oc.Clusters = c.clusterKeys
	oc.Stats.ConflictClusters = len(oc.Clusters)
}
