package repair

import (
	"reflect"
	"time"
)

// Delta-maintained Outcome.
//
// A session's ComponentCache is its live outcome: one record per conflict
// component (the cached read-out unit) plus the global kept, removed,
// inferred and cluster Lists, which always equal the sum of the held
// units. Each re-solve's one read-out pass collects the units leaving the
// outcome (the stale unit of every re-repaired component, and the units
// of components that left the partition) and those entering it; Finish
// cancels what they share and splices the rest into the Lists, copying
// only the chunks the churned ids land in, and moves the exact sum of
// the removed confidences by the same churn. Publishing is O(churn) plus
// an O(n/B) chunk-slice copy, and a published Outcome is a frozen
// snapshot. It is byte-identical to whole-graph assembly over the same
// units, and every update also feeds an OutcomeDelta changelog so
// callers can consume diffs instead of snapshots.

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
	// Index is the time spent maintaining the global lists (unit
	// subtraction, chunk splices, changelog); Merge is the materialization
	// of the Outcome from them (assembled mode folds everything into Merge);
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
// id, cluster lists by cluster root. The slices share no backing array
// with the Outcome's Lists.
type OutcomeDelta struct {
	AddedKept   []Fact
	RemovedKept []Fact

	AddedRemoved   []Fact
	RemovedRemoved []Fact

	AddedInferred   []Fact
	RemovedInferred []Fact

	AddedClusters   []Cluster
	RemovedClusters []Cluster
}

// Empty reports whether the update changed nothing.
func (d *OutcomeDelta) Empty() bool {
	return len(d.AddedKept) == 0 && len(d.RemovedKept) == 0 &&
		len(d.AddedRemoved) == 0 && len(d.RemovedRemoved) == 0 &&
		len(d.AddedInferred) == 0 && len(d.RemovedInferred) == 0 &&
		len(d.AddedClusters) == 0 && len(d.RemovedClusters) == 0
}

// apply removes the subtracted units' contributions and splices in the
// added ones, maintaining the global lists, the violation counts and the
// changelog. The lists are copy-on-write (see List), so an Outcome handed
// out by a previous materialization remains a valid snapshot.
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

	// Cancel the elements a re-repaired component carries over unchanged:
	// what remains is the true churn, so only the chunks it lands in are
	// rebuilt, and a fully-cancelled list is not touched at all. What
	// remains is also the changelog — ids map 1:1 to statements and
	// groups, already in id order. On an empty cache the added side is the
	// bulk build's one sorted array.
	rmK, adK := cancelCommon(gather(subtract, keptOf), gather(add, keptOf))
	rmR, adR := cancelCommon(gather(subtract, removedOf), gather(add, removedOf))
	rmI, adI := cancelCommon(gather(subtract, inferredOf), gather(add, inferredOf))
	rmC, adC := cancelCommon(gather(subtract, clustersOf), gather(add, clustersOf))
	c.kept = c.kept.splice(rmK, adK)
	c.removed = c.removed.splice(rmR, adR)
	c.inferred = c.inferred.splice(rmI, adI)
	c.clusters = c.clusters.splice(rmC, adC)
	for _, f := range rmR {
		c.removedWeight.sub(f.Quad.Confidence)
	}
	for _, f := range adR {
		c.removedWeight.add(f.Quad.Confidence)
	}
	c.delta = OutcomeDelta{
		RemovedKept: rmK, AddedKept: adK,
		RemovedRemoved: rmR, AddedRemoved: adR,
		RemovedInferred: rmI, AddedInferred: adI,
		RemovedClusters: rmC, AddedClusters: adC,
	}
}

// cancelCommon drops the elements present with identical content on
// both sides of a unit application. Both inputs are sorted by a unique
// id (an atom keeps its id across retraction and revival and maps to one
// statement; a cluster root identifies one group), so a linear merge
// finds every carried-over element; a fully-cancelled side comes back
// nil, letting the caller skip its list entirely.
func cancelCommon[T listItem](rm, ad []T) ([]T, []T) {
	if len(rm) == 0 || len(ad) == 0 {
		return rm, ad
	}
	i, j := 0, 0
	var outRm, outAd []T
	for i < len(rm) && j < len(ad) {
		a, b := rm[i], ad[j]
		switch ia, ib := a.listID(), b.listID(); {
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

// materialize renders the live state into oc, byte-identical to
// assembleOutcome over the same per-component units: the lists are the
// maintained snapshots, and the maintained removed weight is exact, so
// it rounds to assembly's RemovedWeight. O(#rules).
func (c *ComponentCache) materialize(oc *Outcome) {
	oc.Kept, oc.Removed, oc.Inferred, oc.Clusters = c.kept, c.removed, c.inferred, c.clusters
	oc.Stats.ThresholdFiltered = c.thresholdFiltered
	oc.Stats.RuleViolations = make(map[string]int, len(c.violations))
	for rule, n := range c.violations {
		oc.Stats.RuleViolations[rule] = n
	}
	oc.countLists(&c.removedWeight)
}
