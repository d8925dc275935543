// Package baseline implements the greedy conflict-resolution baseline
// that probabilistic repair systems are implicitly compared against:
// keep facts in descending confidence order, skipping any fact whose
// acceptance would violate a hard constraint against already-kept facts,
// then forward-propagate inference rules over the kept set.
//
// Greedy repair is locally optimal per conflict pair but ignores global
// structure (a kept strong fact can force out several weaker facts whose
// combined weight exceeds it), so MAP inference removes at most the
// weight greedy removes; the quality gap is measured by the
// BenchmarkE10_GreedyVsMAP ablation.
package baseline

import (
	"sort"
	"time"

	"repro/internal/ground"
)

// Result is the greedy state over the ground network, shaped like the
// probabilistic backends' results.
type Result struct {
	// Truth assigns a boolean to every atom id.
	Truth []bool
	// RemovedWeight is the total confidence of rejected evidence facts.
	RemovedWeight float64
	// Removed counts rejected evidence facts.
	Removed int
	// Runtime is the wall-clock solve time.
	Runtime time.Duration
}

// Solve runs greedy repair over a closed grounder's atom table and its
// full ground clause set (Close forward-chained the inference rules, so
// the table is complete). Retracted atoms stay false. Confidence ties
// break by backing fact id, so the sweep order depends on the store
// alone, not on the order the atoms were interned in.
func Solve(atoms *ground.AtomTable, cs *ground.ClauseSet) *Result {
	start := time.Now()
	n := atoms.Len()

	// Split clauses: all-negative hard clauses are constraints checked
	// during the greedy sweep; clauses with exactly one positive literal
	// are implications used for propagation afterwards.
	type implication struct {
		body []ground.AtomID
		head ground.AtomID
	}
	var denials []denial
	var implications []implication
	byAtom := make([][]int32, n) // atom -> denial indexes
	cs.ForEach(func(c *ground.Clause) bool {
		if !c.Hard() {
			return true // greedy ignores soft structure beyond confidences
		}
		var pos []ground.AtomID
		var neg []ground.AtomID
		for _, l := range c.Lits {
			if l.Neg {
				neg = append(neg, l.Atom)
			} else {
				pos = append(pos, l.Atom)
			}
		}
		switch {
		case len(pos) == 0:
			di := int32(len(denials))
			denials = append(denials, denial{members: neg})
			for _, a := range neg {
				byAtom[a] = append(byAtom[a], di)
			}
		case len(pos) == 1:
			implications = append(implications, implication{body: neg, head: pos[0]})
		}
		return true
	})

	// Greedy sweep over evidence atoms, strongest first.
	order := atoms.EvidenceAtoms()
	sort.Slice(order, func(i, j int) bool {
		ci, cj := atoms.Confidence(order[i]), atoms.Confidence(order[j])
		if ci != cj {
			return ci > cj
		}
		return atoms.BackingFact(order[i]) < atoms.BackingFact(order[j])
	})
	res := &Result{Truth: make([]bool, n)}
	for _, a := range order {
		if violates(a, res.Truth, denials, byAtom) {
			res.Removed++
			res.RemovedWeight += atoms.Confidence(a)
			continue
		}
		res.Truth[a] = true
	}

	// Forward-propagate hard implications over the kept set, rejecting
	// derivations that would breach a denial (the body's weakest member
	// is dropped in that case — mirroring how greedy pipelines handle
	// rule-induced conflicts).
	for changed := true; changed; {
		changed = false
		for _, imp := range implications {
			if res.Truth[imp.head] {
				continue
			}
			all := true
			for _, b := range imp.body {
				if !res.Truth[b] {
					all = false
					break
				}
			}
			if !all {
				continue
			}
			if violates(imp.head, res.Truth, denials, byAtom) {
				weakest, wConf := ground.AtomID(-1), 2.0
				for _, b := range imp.body {
					if info := atoms.Info(b); info.Evidence && info.Conf < wConf {
						weakest, wConf = b, info.Conf
					}
				}
				if weakest >= 0 {
					res.Truth[weakest] = false
					res.Removed++
					res.RemovedWeight += wConf
					changed = true
				}
				continue
			}
			res.Truth[imp.head] = true
			changed = true
		}
	}
	res.Runtime = time.Since(start)
	return res
}

// denial is an all-negative hard clause: its members cannot all hold.
type denial struct{ members []ground.AtomID }

// violates reports whether setting atom a true would complete a denial
// whose other members are all currently true.
func violates(a ground.AtomID, truth []bool, denials []denial, byAtom [][]int32) bool {
	for _, di := range byAtom[a] {
		complete := true
		for _, m := range denials[di].members {
			if m != a && !truth[m] {
				complete = false
				break
			}
		}
		if complete {
			return true
		}
	}
	return false
}
