package ground

import (
	"sort"
	"time"
)

// GroundStats summarises the grounder's join work since the last
// TakeStats: wall time across all grounding phases plus a per-rule
// breakdown with the chosen join plans. The session solve path attaches
// it as repair.Stats.Ground; `tecore infer -explain-plan` prints it.
type GroundStats struct {
	// Total is wall time summed over the grounding phases that ran:
	// forward-chaining rounds, clause emission, and seminaive delta
	// passes (planning included).
	Total time.Duration
	// Rules is the per-rule breakdown, sorted by rule name.
	Rules []RuleGroundStats
}

// RuleGroundStats is one rule's grounding profile.
type RuleGroundStats struct {
	// Rule is the rule or constraint name.
	Rule string
	// Order is the rule's most recent join plan: body-atom indexes in
	// join order (seminaive delta passes pin the delta position first).
	Order []int
	// Candidates counts the depth-0 candidates fed into this rule's
	// joins across all phases.
	Candidates int64
	// Emitted counts groundings that reached emission: derived-head
	// candidates during closure, clause candidates during grounding. A
	// grounding pruned by an Allen filter in the store match (a body
	// condition that fails, a constraint head that holds) never reaches
	// emission and is not counted.
	Emitted int64
	// Time is join wall time summed over this rule's tasks.
	Time time.Duration
	// Tasks is the number of join tasks run for this rule.
	Tasks int
}

// ruleStat returns (creating on first use) the mutable per-rule entry.
func (g *Grounder) ruleStat(name string) *RuleGroundStats {
	if g.statRules == nil {
		g.statRules = make(map[string]*RuleGroundStats)
	}
	rs, ok := g.statRules[name]
	if !ok {
		rs = &RuleGroundStats{Rule: name}
		g.statRules[name] = rs
	}
	return rs
}

// notePlan records a rule's chosen join order. Called at
// plan time (a sequential point); the latest plan wins, so after a fresh
// solve the entries show the full-grounding plans and after an
// incremental solve the delta-pass plans.
func (g *Grounder) notePlan(name string, order []int) {
	rs := g.ruleStat(name)
	rs.Order = append(rs.Order[:0], order...)
}

// noteTaskStats folds per-task counters into the per-rule stats. Called
// at the end of a phase (a sequential point); each task was touched by
// exactly one worker, so the reads need no synchronisation.
func (g *Grounder) noteTaskStats(tasks []joinTask) {
	for i := range tasks {
		t := &tasks[i]
		rs := g.ruleStat(t.rule.Name)
		rs.Tasks++
		rs.Time += t.elapsed
		rs.Candidates += int64(len(t.mainIDs) + len(t.derivedIDs) + len(t.seedAtoms))
		rs.Emitted += t.emitted
	}
}

// TakeStats returns the grounding statistics accumulated since the last
// call and resets the counters. Never nil; a grounder that did no work
// returns zero totals and no rules.
func (g *Grounder) TakeStats() *GroundStats {
	gs := &GroundStats{Total: g.statTotal}
	names := make([]string, 0, len(g.statRules))
	for n := range g.statRules {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		gs.Rules = append(gs.Rules, *g.statRules[n])
	}
	g.statTotal = 0
	g.statRules = nil
	return gs
}
