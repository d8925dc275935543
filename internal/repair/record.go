package repair

import (
	"slices"

	"repro/internal/ground"
	"repro/internal/rdf"
)

// Read-out records.
//
// The read-out holds what it computes as atom records, never as rendered
// facts: a kept or inferred fact is a 16-byte pointer-free record (atom,
// derived flag, confidence), a removed fact adds its explanations (one
// 24-byte part per partner atom), a cluster is its root and its member
// atoms. A session holds each record once, in the chunks of the live
// lists; a component's cache record keeps only the ids (see held).
// Statement keys are decoded only when a reader iterates a FactList or
// ClusterList, through the frozen ground.KeyView captured when the
// Outcome was published, so a response that renders a page of entries
// decodes a page, and a published Outcome renders the same values
// however far the atom table has grown since.

// fact is a kept, removed or inferred fact as the read-out holds it.
type fact struct {
	id      ground.AtomID
	derived bool
	// conf is the fact's confidence at solve time: the input confidence
	// of an evidence fact (which a later InternEvidence may raise), the
	// propagated one of a derived fact.
	conf float64
}

// removedFact is a removed input fact with the explanations of its
// removal: runs of parts, one run per violated grounding in clause
// visiting order.
type removedFact struct {
	fact
	ex []exPart
}

// exPart is one partner of a removal explanation: the rule of the
// grounding and one of its other atoms, in clause-literal order; end
// closes the grounding's run. A grounding with no other atom is a single
// part with partner -1.
type exPart struct {
	rule    string
	partner ground.AtomID
	end     bool
}

// cluster is a conflict cluster: its union-find root and its members,
// sorted by statement key (ground.AtomTable.CompareKeys).
type cluster struct {
	root    ground.AtomID
	members []ground.AtomID
}

func (f fact) listID() ground.AtomID        { return f.id }
func (r removedFact) listID() ground.AtomID { return r.id }
func (c cluster) listID() ground.AtomID     { return c.root }

func (f fact) equal(o fact) bool { return f == o }

func (r removedFact) equal(o removedFact) bool {
	return r.fact == o.fact && slices.Equal(r.ex, o.ex)
}

func (c cluster) equal(o cluster) bool {
	return c.root == o.root && slices.Equal(c.members, o.members)
}

// render decodes the record into the Fact a reader sees.
func (f fact) render(v ground.KeyView) Fact {
	k := v.Key(f.id)
	return Fact{
		Quad: rdf.Quad{Subject: k.S, Predicate: k.P, Object: k.O,
			Interval: k.Interval, Confidence: f.conf},
		Derived: f.derived,
		AtomID:  f.id,
	}
}

func (r removedFact) render(v ground.KeyView) Fact {
	f := r.fact.render(v)
	if len(r.ex) == 0 {
		return f
	}
	// Two allocations: the explanations, and one array their partner
	// keys are cut from.
	groundings, partners := 0, 0
	for _, p := range r.ex {
		if p.end {
			groundings++
		}
		if p.partner >= 0 {
			partners++
		}
	}
	f.Explanations = make([]Explanation, 0, groundings)
	keys := make([]rdf.FactKey, 0, partners)
	start := 0
	for _, p := range r.ex {
		if p.partner >= 0 {
			keys = append(keys, v.Key(p.partner))
		}
		if p.end {
			e := Explanation{Rule: p.rule}
			if len(keys) > start {
				e.Partners = keys[start:len(keys):len(keys)]
			}
			f.Explanations = append(f.Explanations, e)
			start = len(keys)
		}
	}
	return f
}

func (c cluster) render(v ground.KeyView) Cluster {
	keys := make([]rdf.FactKey, len(c.members))
	for i, a := range c.members {
		keys[i] = v.Key(a)
	}
	return Cluster{Root: c.root, Keys: keys}
}

// FactList is one of an Outcome's fact lists: an immutable snapshot in
// ascending atom id order. Read it with Len and Each; each call to Each
// decodes the facts it visits.
type FactList struct {
	view ground.KeyView
	// One of the two is empty: kept and inferred facts carry no
	// explanations, removed facts do.
	facts   List[fact]
	removed List[removedFact]
}

// Len returns the number of facts.
func (l FactList) Len() int { return l.facts.Len() + l.removed.Len() }

// Each calls fn on the facts in ascending atom id order until fn returns
// false.
func (l FactList) Each(fn func(Fact) bool) {
	if l.removed.Len() > 0 {
		l.removed.Each(func(r removedFact) bool { return fn(r.render(l.view)) })
		return
	}
	l.facts.Each(func(f fact) bool { return fn(f.render(l.view)) })
}

// ClusterList is an Outcome's conflict clusters: an immutable snapshot in
// ascending root order. Read it with Len and Each.
type ClusterList struct {
	view     ground.KeyView
	clusters List[cluster]
}

// Len returns the number of clusters.
func (l ClusterList) Len() int { return l.clusters.Len() }

// Each calls fn on the clusters in ascending root order until fn returns
// false.
func (l ClusterList) Each(fn func(Cluster) bool) {
	l.clusters.Each(func(c cluster) bool { return fn(c.render(l.view)) })
}
