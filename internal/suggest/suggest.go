// Package suggest mines candidate temporal constraints from the data —
// the "automatic derivation or suggestion of constraints and inference
// rules" the paper's demonstration goals call for (Section 4).
//
// The miner inspects same-subject fact pairs and proposes three
// constraint families when the data overwhelmingly supports them:
//
//   - disjointness (the paper's c2): for a predicate p, distinct-object
//     fact pairs almost never overlap in time;
//   - functional / equality-generating (c3): overlapping fact pairs of p
//     almost always agree on the object;
//   - inter-predicate Allen dependencies (c1): between predicates p and
//     q, one Allen relation dominates (e.g. birthDate contains playsFor).
//
// Each suggestion reports its support (pairs inspected), violations
// (counter-examples) and confidence, so a domain expert can review it in
// the UI before adding it to the program — noisy facts mean perfect
// confidence is rare and the defaults tolerate a small violation rate.
package suggest

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/store"
	"repro/internal/temporal"
)

// Options tunes the miner.
type Options struct {
	// MinSupport is the minimum number of same-subject pairs a pattern
	// needs before it is considered (default 20).
	MinSupport int
	// MinConfidence is the minimum fraction of supporting pairs
	// (default 0.9).
	MinConfidence float64
	// MaxPairsPerPredicate caps the pairs sampled per predicate to bound
	// mining cost on large graphs (default 50000).
	MaxPairsPerPredicate int
}

func (o Options) withDefaults() Options {
	if o.MinSupport == 0 {
		o.MinSupport = 20
	}
	if o.MinConfidence == 0 {
		o.MinConfidence = 0.9
	}
	if o.MaxPairsPerPredicate == 0 {
		o.MaxPairsPerPredicate = 50000
	}
	return o
}

// Kind labels a suggestion family.
type Kind string

// Suggestion kinds.
const (
	KindDisjoint   Kind = "disjoint"
	KindFunctional Kind = "functional"
	KindAllen      Kind = "allen"
)

// Suggestion is a mined candidate constraint.
type Suggestion struct {
	// Kind is the constraint family.
	Kind Kind
	// Predicate1 and Predicate2 are the predicates involved (equal for
	// disjoint/functional suggestions).
	Predicate1, Predicate2 string
	// Relation is the dominating Allen relation for KindAllen.
	Relation temporal.Relation
	// Support is the number of same-subject pairs inspected.
	Support int
	// Violations is the number of counter-example pairs.
	Violations int
	// Confidence is (Support-Violations)/Support.
	Confidence float64
	// Rule is the ready-to-add constraint.
	Rule *logic.Rule
}

// Text renders the suggestion's rule in the surface syntax.
func (s *Suggestion) Text() string {
	if s.Rule.Name != "" {
		return s.Rule.Name + ": " + s.Rule.String()
	}
	return s.Rule.String()
}

// Mine inspects the store and returns suggestions sorted by descending
// confidence, then support.
func Mine(st *store.Store, opts Options) ([]Suggestion, error) {
	opts = opts.withDefaults()
	var out []Suggestion

	preds := st.PredicateIDs()
	for _, p := range preds {
		s, err := mineSamePredicate(st, p, opts)
		if err != nil {
			return nil, err
		}
		out = append(out, s...)
	}
	for i, p := range preds {
		for j, q := range preds {
			if i == j {
				continue
			}
			s, err := mineAllenPair(st, p, q, opts)
			if err != nil {
				return nil, err
			}
			out = append(out, s...)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Confidence != out[j].Confidence {
			return out[i].Confidence > out[j].Confidence
		}
		if out[i].Support != out[j].Support {
			return out[i].Support > out[j].Support
		}
		return out[i].Text() < out[j].Text()
	})
	return out, nil
}

// samePredPairs visits same-subject pairs of facts with predicate p
// (each unordered pair once), up to the configured cap.
func samePredPairs(st *store.Store, p store.TermID, cap int,
	visit func(o1, o2 store.TermID, iv1, iv2 temporal.Interval)) {

	bySubject := make(map[store.TermID][]store.FactID)
	for _, id := range st.PredicateFacts(p) {
		s, _, _ := st.EncodedTriple(id)
		bySubject[s] = append(bySubject[s], id)
	}
	// Deterministic subject order.
	subjects := make([]store.TermID, 0, len(bySubject))
	for s := range bySubject {
		subjects = append(subjects, s)
	}
	sort.Slice(subjects, func(i, j int) bool { return subjects[i] < subjects[j] })

	seen := 0
	for _, s := range subjects {
		ids := bySubject[s]
		for i := 0; i < len(ids); i++ {
			for j := i + 1; j < len(ids); j++ {
				if seen >= cap {
					return
				}
				seen++
				_, _, o1 := st.EncodedTriple(ids[i])
				_, _, o2 := st.EncodedTriple(ids[j])
				visit(o1, o2, st.Interval(ids[i]), st.Interval(ids[j]))
			}
		}
	}
}

// mineSamePredicate proposes disjointness and functional constraints
// for one predicate.
func mineSamePredicate(st *store.Store, p store.TermID, opts Options) ([]Suggestion, error) {
	pred := st.Terms()[p].Value

	distinctPairs, distinctOverlaps := 0, 0
	overlapPairs, overlapDisagree := 0, 0
	samePredPairs(st, p, opts.MaxPairsPerPredicate, func(o1, o2 store.TermID, iv1, iv2 temporal.Interval) {
		if o1 != o2 {
			distinctPairs++
			if iv1.Intersects(iv2) {
				distinctOverlaps++
			}
		}
		if iv1.Intersects(iv2) {
			overlapPairs++
			if o1 != o2 {
				overlapDisagree++
			}
		}
	})

	var out []Suggestion
	if distinctPairs >= opts.MinSupport {
		conf := 1 - float64(distinctOverlaps)/float64(distinctPairs)
		if conf >= opts.MinConfidence {
			rule, err := core.AllenConstraint(suggestName("disjoint", pred, ""), pred, pred, "disjoint", true)
			if err != nil {
				return nil, fmt.Errorf("suggest: %w", err)
			}
			out = append(out, Suggestion{
				Kind: KindDisjoint, Predicate1: pred, Predicate2: pred,
				Support: distinctPairs, Violations: distinctOverlaps, Confidence: conf,
				Rule: rule,
			})
		}
	}
	if overlapPairs >= opts.MinSupport {
		conf := 1 - float64(overlapDisagree)/float64(overlapPairs)
		if conf >= opts.MinConfidence {
			rule, err := core.FunctionalConstraint(suggestName("functional", pred, ""), pred)
			if err != nil {
				return nil, fmt.Errorf("suggest: %w", err)
			}
			out = append(out, Suggestion{
				Kind: KindFunctional, Predicate1: pred, Predicate2: pred,
				Support: overlapPairs, Violations: overlapDisagree, Confidence: conf,
				Rule: rule,
			})
		}
	}
	return out, nil
}

// mineAllenPair proposes a dominating Allen relation between two
// predicates on shared subjects.
func mineAllenPair(st *store.Store, p, q store.TermID, opts Options) ([]Suggestion, error) {
	pred1 := st.Terms()[p].Value
	pred2 := st.Terms()[q].Value

	// Group q-facts by subject once.
	qBySubject := make(map[store.TermID][]store.FactID)
	for _, id := range st.PredicateFacts(q) {
		s, _, _ := st.EncodedTriple(id)
		qBySubject[s] = append(qBySubject[s], id)
	}

	var counts [temporal.NumRelations]int
	total := 0
	for _, pid := range st.PredicateFacts(p) {
		if total >= opts.MaxPairsPerPredicate {
			break
		}
		s, _, _ := st.EncodedTriple(pid)
		for _, qid := range qBySubject[s] {
			counts[temporal.RelationBetween(st.Interval(pid), st.Interval(qid))]++
			total++
		}
	}
	if total < opts.MinSupport {
		return nil, nil
	}
	best, bestCount := temporal.Relation(0), 0
	for r, c := range counts {
		if c > bestCount {
			best, bestCount = temporal.Relation(r), c
		}
	}
	conf := float64(bestCount) / float64(total)
	if conf < opts.MinConfidence {
		return nil, nil
	}
	rule, err := core.AllenConstraint(suggestName("allen", pred1, pred2), pred1, pred2, best.String(), false)
	if err != nil {
		return nil, fmt.Errorf("suggest: %w", err)
	}
	return []Suggestion{{
		Kind: KindAllen, Predicate1: pred1, Predicate2: pred2, Relation: best,
		Support: total, Violations: total - bestCount, Confidence: conf,
		Rule: rule,
	}}, nil
}

// suggestName derives a grammar-safe rule name from predicate IRIs.
func suggestName(kind, p1, p2 string) string {
	name := "suggested_" + kind + "_" + sanitize(p1)
	if p2 != "" {
		name += "_" + sanitize(p2)
	}
	return name
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9':
			out = append(out, r)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}
