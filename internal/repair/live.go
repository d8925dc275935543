package repair

import (
	"slices"
	"time"

	"repro/internal/ground"
)

// Delta-maintained Outcome.
//
// A session's ComponentCache is its live outcome: one record per conflict
// component (the ids and counters of its read-out unit, see held) plus
// the global kept, removed, inferred and cluster Lists of atom records,
// which always hold exactly the ids of the held records. Each re-solve's
// one read-out pass collects the records leaving the outcome (the stale
// record of every re-repaired component, and the records of components
// that left the partition) and the fresh units entering it; Finish looks
// the leaving records up in the Lists, cancels what they share with the
// fresh units and splices the rest into the Lists, copying only the chunks the churned ids land in, and
// moves the exact sum of the removed confidences by the same churn. It
// publishes the Lists with a key view of the atom table captured at that
// moment, so a published Outcome is a frozen snapshot that renders its
// facts on read. Publishing is O(churn) plus an O(n/B) chunk-slice copy.
// The Outcome is byte-identical to whole-graph assembly over the same
// units. The churn itself — the records spliced out and in — is handed
// out as the update's OutcomeDelta changelog, undecoded and through the
// same view, so callers can consume diffs instead of snapshots and pay
// for decoding only the entries they read.

// Outcome read-out modes reported in OutcomeStats.Mode.
const (
	// OutcomeAssembled is the from-scratch sort/merge of the whole-graph
	// read-out unit: Resolve, the test oracle.
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
	// Index is the time spent maintaining the global lists: looking up
	// the leaving records, cancelling what a re-repaired component
	// carries over, and splicing the churn into the chunks; the churn's
	// records are handed out as the changelog, wrapped, not decoded.
	// Merge is the time spent publishing the Outcome from the lists:
	// O(#rules), no record is copied or decoded. Assembled mode folds the
	// whole sort/merge into Merge. Total is the whole stage.
	Index time.Duration
	Merge time.Duration
	Total time.Duration
}

// OutcomeDelta is the changelog of one live-outcome update: the facts
// and conflict clusters that entered or left each list relative to the
// previous materialized Outcome. A fact whose content changed (e.g. a
// derived confidence moved) appears in both the Removed (old content)
// and Added (new content) lists; an untouched fact appears in neither,
// even when its component was re-repaired. Fact lists ascend by atom
// id, cluster lists by cluster root. Like the Outcome's, the lists hold
// atom records and decode each entry as Each visits it, through the
// view captured when the Outcome was published: a first solve's
// changelog is the whole outcome, but a reader that stops after a page
// decodes a page. They are immutable, safe to hold and to read from any
// goroutine while later solves run.
type OutcomeDelta struct {
	AddedKept   FactList
	RemovedKept FactList

	AddedRemoved   FactList
	RemovedRemoved FactList

	AddedInferred   FactList
	RemovedInferred FactList

	AddedClusters   ClusterList
	RemovedClusters ClusterList
}

// Empty reports whether the update changed nothing.
func (d *OutcomeDelta) Empty() bool {
	return d.AddedKept.Len() == 0 && d.RemovedKept.Len() == 0 &&
		d.AddedRemoved.Len() == 0 && d.RemovedRemoved.Len() == 0 &&
		d.AddedInferred.Len() == 0 && d.RemovedInferred.Len() == 0 &&
		d.AddedClusters.Len() == 0 && d.RemovedClusters.Len() == 0
}

// held is what a component's cache record keeps of its read-out unit
// once the live lists hold the unit's records: the ids to subtract them
// by, list by list, and the unit's counters. The records themselves are
// looked up in the lists when they leave.
type held struct {
	// ids are the kept, removed and inferred fact ids, then the cluster
	// roots; each run ascends, and the counts split them.
	ids                        []ground.AtomID
	nKept, nRemoved, nInferred int32
	thresholdFiltered          int32
	violations                 map[string]int
}

// hold returns the unit's held form.
func (u *unit) hold() held {
	h := held{
		ids:               make([]ground.AtomID, 0, len(u.kept)+len(u.removed)+len(u.inferred)+len(u.clusters)),
		nKept:             int32(len(u.kept)),
		nRemoved:          int32(len(u.removed)),
		nInferred:         int32(len(u.inferred)),
		thresholdFiltered: int32(u.thresholdFiltered),
		violations:        u.violations,
	}
	for _, f := range u.kept {
		h.ids = append(h.ids, f.id)
	}
	for _, f := range u.removed {
		h.ids = append(h.ids, f.id)
	}
	for _, f := range u.inferred {
		h.ids = append(h.ids, f.id)
	}
	for _, c := range u.clusters {
		h.ids = append(h.ids, c.root)
	}
	return h
}

// Selectors of a held record's id runs, for gatherIDs.
func keptIDs(h *held) []ground.AtomID    { return h.ids[:h.nKept] }
func removedIDs(h *held) []ground.AtomID { return h.ids[h.nKept : h.nKept+h.nRemoved] }
func inferredIDs(h *held) []ground.AtomID {
	return h.ids[h.nKept+h.nRemoved : h.nKept+h.nRemoved+h.nInferred]
}
func clusterIDs(h *held) []ground.AtomID { return h.ids[h.nKept+h.nRemoved+h.nInferred:] }

// gatherIDs merges the held records' sel runs into one ascending slice.
// Ids are unique across records.
func gatherIDs(hs []held, sel func(*held) []ground.AtomID) []ground.AtomID {
	var ids []ground.AtomID
	for i := range hs {
		ids = append(ids, sel(&hs[i])...)
	}
	slices.Sort(ids)
	return ids
}

// apply removes the subtracted records' contributions and splices in
// the added units, maintaining the global lists and the violation
// counts, and returns the changelog: the records it spliced out and in,
// to be decoded through view. The lists are copy-on-write (see List), so an
// Outcome handed out by a previous materialization remains a valid
// snapshot.
func (c *ComponentCache) apply(subtract []held, add []*unit, view ground.KeyView) *OutcomeDelta {
	if len(subtract) == 0 && len(add) == 0 {
		return &OutcomeDelta{}
	}

	for _, h := range subtract {
		for rule, n := range h.violations {
			if c.violations[rule] -= n; c.violations[rule] == 0 {
				delete(c.violations, rule)
			}
		}
		c.thresholdFiltered -= int(h.thresholdFiltered)
	}
	for _, u := range add {
		for rule, n := range u.violations {
			c.violations[rule] += n
		}
		c.thresholdFiltered += u.thresholdFiltered
	}

	// The leaving records are the lists' own, looked up by the held ids.
	// Cancel the elements a re-repaired component carries over unchanged:
	// what remains is the true churn, so only the chunks it lands in are
	// rebuilt, and a fully-cancelled list is not touched at all (it keeps
	// the old records, so no record is held twice). What remains is also
	// the changelog — ids map 1:1 to statements and groups, already in id
	// order — handed out as it is: splice shares nothing with its inputs.
	// On an empty cache the added side is the bulk build's one sorted
	// array.
	rmK, adK := cancelCommon(c.kept.lookup(gatherIDs(subtract, keptIDs)), gather(add, keptOf))
	rmR, adR := cancelCommon(c.removed.lookup(gatherIDs(subtract, removedIDs)), gather(add, removedOf))
	rmI, adI := cancelCommon(c.inferred.lookup(gatherIDs(subtract, inferredIDs)), gather(add, inferredOf))
	rmC, adC := cancelCommon(c.clusters.lookup(gatherIDs(subtract, clusterIDs)), gather(add, clustersOf))
	c.kept = c.kept.splice(rmK, adK)
	c.removed = c.removed.splice(rmR, adR)
	c.inferred = c.inferred.splice(rmI, adI)
	c.clusters = c.clusters.splice(rmC, adC)
	for _, f := range rmR {
		c.removedWeight.Sub(f.conf)
	}
	for _, f := range adR {
		c.removedWeight.Add(f.conf)
	}
	facts := func(fs []fact) FactList { return FactList{view: view, facts: readOnly(fs)} }
	removed := func(fs []removedFact) FactList { return FactList{view: view, removed: readOnly(fs)} }
	clusters := func(cs []cluster) ClusterList { return ClusterList{view: view, clusters: readOnly(cs)} }
	return &OutcomeDelta{
		RemovedKept: facts(rmK), AddedKept: facts(adK),
		RemovedRemoved: removed(rmR), AddedRemoved: removed(adR),
		RemovedInferred: facts(rmI), AddedInferred: facts(adI),
		RemovedClusters: clusters(rmC), AddedClusters: clusters(adC),
	}
}

// cancelCommon drops the elements present with identical content on
// both sides of a unit application. Both inputs are sorted by a unique
// id (an atom keeps its id across retraction and revival and maps to one
// statement; a cluster root identifies one group), so a linear merge
// finds every carried-over element; a fully-cancelled side comes back
// nil, letting the caller skip its list entirely.
func cancelCommon[T listItem[T]](rm, ad []T) ([]T, []T) {
	if len(rm) == 0 || len(ad) == 0 {
		return rm, ad
	}
	i, j := 0, 0
	var outRm, outAd []T
	for i < len(rm) && j < len(ad) {
		a, b := rm[i], ad[j]
		switch ia, ib := a.listID(), b.listID(); {
		case ia == ib:
			if !a.equal(b) {
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

// materialize publishes the live state into oc, to be rendered through
// view, byte-identical to assembleOutcome over the same per-component units:
// the lists are the maintained snapshots, and the maintained removed
// weight is exact, so it rounds to assembly's RemovedWeight. O(#rules).
func (c *ComponentCache) materialize(oc *Outcome, view ground.KeyView) {
	oc.Kept = FactList{view: view, facts: c.kept}
	oc.Removed = FactList{view: view, removed: c.removed}
	oc.Inferred = FactList{view: view, facts: c.inferred}
	oc.Clusters = ClusterList{view: view, clusters: c.clusters}
	oc.Stats.ThresholdFiltered = c.thresholdFiltered
	oc.Stats.RuleViolations = make(map[string]int, len(c.violations))
	for rule, n := range c.violations {
		oc.Stats.RuleViolations[rule] = n
	}
	oc.countLists(&c.removedWeight)
}
