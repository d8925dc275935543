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
//
// The sweep reads hard clauses only, and clauses never cross conflict
// components, so it decomposes exactly along the solve plan: the session
// runs SolveComponent once per component on the MLN component loop
// (mln.SolveComponents), and Solve — the whole-network test oracle —
// runs the same Sweep once over every live atom.
package baseline

import (
	"cmp"
	"slices"

	"repro/internal/ground"
)

// Engine names the greedy kernel in component statistics.
const Engine = "greedy"

// Result is the greedy state over the whole ground network.
type Result struct {
	// Truth assigns a boolean to every atom id.
	Truth []bool
	// RemovedWeight is the total confidence of the evidence facts the
	// final state drops.
	RemovedWeight float64
	// Removed counts the evidence facts the final state drops.
	Removed int
}

// Solve runs greedy repair over a closed grounder's atom table and its
// full ground clause set (Close forward-chained the inference rules, so
// the table is complete): one Sweep over every live atom in canonical
// order, with the clauses in canonical clause order. Retracted atoms
// stay false.
func Solve(atoms *ground.AtomTable, cs *ground.ClauseSet) *Result {
	order := ground.CanonicalAtoms(atoms)
	varOf := ground.CanonicalVarMap(atoms, order)
	clauses, _ := cs.ComponentClauses(order, func(a ground.AtomID) int32 { return varOf[a] })
	res := &Result{Truth: make([]bool, atoms.Len())}
	for v, kept := range Sweep(atoms, order, clauses) {
		a := order[v]
		res.Truth[a] = kept
		if info := atoms.Info(a); info.Evidence && !kept {
			res.Removed++
			res.RemovedWeight += info.Conf
		}
	}
	return res
}

// SolveComponent is the greedy kernel of the component loop
// (mln.Kernel): Sweep over one conflict component. It takes no warm
// start.
func SolveComponent(atoms *ground.AtomTable, vars []ground.AtomID, clauses []ground.Clause, _ []bool) ([]bool, string, error) {
	return Sweep(atoms, vars, clauses), Engine, nil
}

// Sweep runs greedy repair over one subproblem and returns the truth of
// each of its variables. vars are the subproblem's atoms in canonical
// order (ground.CanonicalAtoms, or a plan component's Atoms) and clauses
// its ground clauses in canonical clause order with literals numbered by
// position in vars (ground.ClauseSet.ComponentClauses). Both orders
// depend on the live network alone, not on the order atoms and clauses
// were interned in, so the answer does too: confidence ties break by
// canonical order (backing fact id), and implications — whose order
// decides which of two conflicting derivations survives — are walked in
// clause order.
func Sweep(atoms *ground.AtomTable, vars []ground.AtomID, clauses []ground.Clause) []bool {
	// Split clauses: all-negative hard clauses are constraints checked
	// during the greedy sweep; clauses with exactly one positive literal
	// are implications used for propagation afterwards. Soft structure
	// beyond confidences is ignored.
	type implication struct {
		body []ground.AtomID
		head ground.AtomID
	}
	var denials []denial
	var implications []implication
	byVar := make([][]int32, len(vars)) // var -> denial indexes
	for i := range clauses {
		c := &clauses[i]
		if !c.Hard() {
			continue
		}
		var pos, neg []ground.AtomID
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
			for _, v := range neg {
				byVar[v] = append(byVar[v], di)
			}
		case len(pos) == 1:
			implications = append(implications, implication{body: neg, head: pos[0]})
		}
	}

	// Greedy sweep over evidence atoms, strongest first; the stable sort
	// keeps canonical order among equal confidences.
	var order []ground.AtomID
	for v, a := range vars {
		if atoms.IsEvidence(a) {
			order = append(order, ground.AtomID(v))
		}
	}
	conf := func(v ground.AtomID) float64 { return atoms.Confidence(vars[v]) }
	slices.SortStableFunc(order, func(x, y ground.AtomID) int { return cmp.Compare(conf(y), conf(x)) })
	truth := make([]bool, len(vars))
	for _, v := range order {
		truth[v] = !violates(v, truth, denials, byVar)
	}

	// Forward-propagate hard implications over the kept set, rejecting
	// derivations that would breach a denial (the body's weakest member
	// is dropped in that case — mirroring how greedy pipelines handle
	// rule-induced conflicts).
	for changed := true; changed; {
		changed = false
		for _, imp := range implications {
			if truth[imp.head] {
				continue
			}
			all := true
			for _, b := range imp.body {
				if !truth[b] {
					all = false
					break
				}
			}
			if !all {
				continue
			}
			if violates(imp.head, truth, denials, byVar) {
				weakest, wConf := ground.AtomID(-1), 2.0
				for _, b := range imp.body {
					if info := atoms.Info(vars[b]); info.Evidence && info.Conf < wConf {
						weakest, wConf = b, info.Conf
					}
				}
				if weakest >= 0 {
					truth[weakest] = false
					changed = true
				}
				continue
			}
			truth[imp.head] = true
			changed = true
		}
	}
	return truth
}

// denial is an all-negative hard clause: its members cannot all hold.
type denial struct{ members []ground.AtomID }

// violates reports whether setting variable v true would complete a
// denial whose other members are all currently true.
func violates(v ground.AtomID, truth []bool, denials []denial, byVar [][]int32) bool {
	for _, di := range byVar[v] {
		complete := true
		for _, m := range denials[di].members {
			if m != v && !truth[m] {
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
