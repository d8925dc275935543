// Package kgen generates the evaluation datasets of the TeCoRe demo as
// deterministic synthetic equivalents:
//
//   - a FootballDB profile — American-football player careers with
//     playsFor spells (>13K facts at default scale) and birthDate facts
//     (>6K), matching the relations the paper scraped from
//     footballdb.com;
//   - a Wikidata profile — the five temporal relations the demo uses
//     (playsFor, educatedAt, memberOf, occupation, spouse) with the
//     paper's per-relation cardinalities, scaled by a factor.
//
// Each generator injects configurable noise (overlapping spells,
// duplicate birth dates, pre-birth careers, simultaneous spouses) and
// retains gold labels for every injected fact, enabling the
// precision/recall evaluation of the paper's "as many erroneous temporal
// facts as the correct ones" setting. Generation is fully deterministic
// given a seed.
package kgen

import (
	"fmt"
	"math/rand"

	"repro/internal/rdf"
	"repro/internal/temporal"
)

// Dataset is a generated uncertain temporal knowledge graph with gold
// noise labels.
type Dataset struct {
	// Graph holds every generated fact, clean and noisy.
	Graph rdf.Graph
	// Noise marks the statements injected as noise.
	Noise map[rdf.FactKey]bool
	// Profile names the generator ("football" or "wikidata").
	Profile string
}

// NoiseCount returns the number of injected noisy facts.
func (d *Dataset) NoiseCount() int { return len(d.Noise) }

// CleanCount returns the number of non-noise facts.
func (d *Dataset) CleanCount() int { return len(d.Graph) - len(d.Noise) }

// FootballConfig parameterises the FootballDB-profile generator.
type FootballConfig struct {
	// Players is the number of players (default 6500, matching the
	// paper's >13K playsFor + >6K birthDate facts).
	Players int
	// Teams is the size of the team pool (default 40).
	Teams int
	// NoiseRatio is the expected number of injected noisy facts per
	// clean fact (1.0 reproduces the paper's highly noisy setting).
	NoiseRatio float64
	// Seed drives the deterministic RNG (default 1).
	Seed int64
}

func (c FootballConfig) withDefaults() FootballConfig {
	if c.Players == 0 {
		c.Players = 6500
	}
	if c.Teams == 0 {
		c.Teams = 40
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

const (
	horizonYear = 2017
	minBirth    = 1950
)

// footballCleanPerPlayer is the mean clean facts per player: a birth date
// and the career spells left once the horizon cuts late careers short.
const footballCleanPerPlayer = 3.7

// ExpectedFacts estimates how many facts Football(c) generates, without
// generating them, so a caller can refuse a request before paying for it.
func (c FootballConfig) ExpectedFacts() float64 {
	c = c.withDefaults()
	return float64(c.Players) * footballCleanPerPlayer * (1 + c.NoiseRatio)
}

// Football generates a FootballDB-profile dataset.
func Football(cfg FootballConfig) *Dataset {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	ds := &Dataset{Profile: "football", Noise: make(map[rdf.FactKey]bool)}

	teams := make([]string, cfg.Teams)
	for i := range teams {
		teams[i] = fmt.Sprintf("team/%03d", i)
	}

	for p := 0; p < cfg.Players; p++ {
		player := fmt.Sprintf("player/%05d", p)
		birth := int64(minBirth + rng.Intn(45))
		birthIv := temporal.MustNew(birth, horizonYear)
		ds.add(rdf.Quad{
			Subject:    rdf.NewIRI(player),
			Predicate:  rdf.NewIRI("birthDate"),
			Object:     rdf.Integer(birth),
			Interval:   birthIv,
			Confidence: 0.9 + 0.1*rng.Float64(),
		}, false)

		spells := careerSpells(rng, birth)
		for _, sp := range spells {
			ds.add(rdf.Quad{
				Subject:    rdf.NewIRI(player),
				Predicate:  rdf.NewIRI("playsFor"),
				Object:     rdf.NewIRI(teams[rng.Intn(len(teams))]),
				Interval:   sp,
				Confidence: 0.5 + 0.5*rng.Float64(),
			}, false)
		}

		// Noise injection, gold-labelled.
		injectFootballNoise(ds, rng, cfg, player, birth, teams, spells)
	}
	return ds
}

// careerSpells produces 1-5 sequential non-overlapping spells starting
// at age 17-23.
func careerSpells(rng *rand.Rand, birth int64) []temporal.Interval {
	var spells []temporal.Interval
	year := birth + 17 + int64(rng.Intn(7))
	n := 1 + rng.Intn(5)
	for s := 0; s < n && year < horizonYear; s++ {
		dur := int64(1 + rng.Intn(6))
		end := year + dur - 1
		if end > horizonYear {
			end = horizonYear
		}
		spells = append(spells, temporal.MustNew(year, end))
		year = end + 1 + int64(rng.Intn(2))
	}
	return spells
}

func injectFootballNoise(ds *Dataset, rng *rand.Rand, cfg FootballConfig,
	player string, birth int64, teams []string, spells []temporal.Interval) {

	cleanFacts := 1 + len(spells)
	injections := poissonish(rng, cfg.NoiseRatio*float64(cleanFacts))
	for i := 0; i < injections; i++ {
		switch rng.Intn(3) {
		case 0: // overlapping spell with a different team
			if len(spells) == 0 {
				continue
			}
			base := spells[rng.Intn(len(spells))]
			start := base.Start + int64(rng.Intn(int(base.Duration())))
			iv := temporal.MustNew(start, start+int64(rng.Intn(4)))
			ds.add(rdf.Quad{
				Subject:    rdf.NewIRI(player),
				Predicate:  rdf.NewIRI("playsFor"),
				Object:     rdf.NewIRI(teams[rng.Intn(len(teams))] + "/alt"),
				Interval:   iv,
				Confidence: 0.5 + 0.4*rng.Float64(),
			}, true)
		case 1: // duplicate birth date with a different year
			wrong := birth + 1 + int64(rng.Intn(10))
			ds.add(rdf.Quad{
				Subject:    rdf.NewIRI(player),
				Predicate:  rdf.NewIRI("birthDate"),
				Object:     rdf.Integer(wrong),
				Interval:   temporal.MustNew(wrong, horizonYear),
				Confidence: 0.5 + 0.4*rng.Float64(),
			}, true)
		default: // spell before birth
			start := birth - 5 - int64(rng.Intn(10))
			ds.add(rdf.Quad{
				Subject:    rdf.NewIRI(player),
				Predicate:  rdf.NewIRI("playsFor"),
				Object:     rdf.NewIRI(teams[rng.Intn(len(teams))]),
				Interval:   temporal.MustNew(start, start+2),
				Confidence: 0.5 + 0.4*rng.Float64(),
			}, true)
		}
	}
}

// poissonish draws a small non-negative integer with the given mean —
// enough fidelity for noise injection without a full Poisson sampler.
func poissonish(rng *rand.Rand, mean float64) int {
	n := int(mean)
	if rng.Float64() < mean-float64(n) {
		n++
	}
	return n
}

func (d *Dataset) add(q rdf.Quad, noise bool) {
	d.Graph = append(d.Graph, q)
	if noise {
		d.Noise[q.Fact()] = true
	}
}

// FootballProgram is the constraint set used with the FootballDB profile:
// a player cannot play for two teams at once (cf. the paper's c2), has a
// single birth date (cf. c3), and cannot play before being born (an
// inclusion dependency with an inequality).
const FootballProgram = `
noTwoTeams: quad(x, playsFor, y, t) ^ quad(x, playsFor, z, t') ^ y != z -> disjoint(t, t') w = inf
oneBirth: quad(x, birthDate, y, t) ^ quad(x, birthDate, z, t') -> y = z w = inf
bornBeforePlays: quad(x, birthDate, y, t) ^ quad(x, playsFor, z, t') ^ start(t') < start(t) -> false w = inf
`

// ClusteredConfig parameterises the clustered-conflict generator: many
// small, mutually independent conflict clusters with a tunable bridge
// rate — the component structure real utkgs exhibit and the
// component-decomposed solver exploits.
type ClusteredConfig struct {
	// Clusters is the number of conflict clusters (default 100). Each
	// cluster is one player whose overlapping spells conflict only with
	// each other, so without bridges the ground network has exactly one
	// conflict component per cluster (plus singleton atoms).
	Clusters int
	// ClusterSize is the number of playsFor facts per cluster (default
	// 6): a chain of boundary-overlapping spells (each conflicts with
	// the next, keeping the cluster's clause graph connected) plus noisy
	// alt spells overlapping random chain positions.
	ClusterSize int
	// BridgeRate is the probability that a cluster is bridged to its
	// successor (default 0): a bridge is one playsFor fact placing the
	// next cluster's player at this cluster's first club at overlapping
	// times, so its oneClubAtATime grounding connects it into the next
	// cluster and its oneStarPlayer grounding into this one — merging
	// the two components.
	BridgeRate float64
	// Seed drives the deterministic RNG (default 1).
	Seed int64
}

func (c ClusteredConfig) withDefaults() ClusteredConfig {
	if c.Clusters == 0 {
		c.Clusters = 100
	}
	if c.ClusterSize == 0 {
		c.ClusterSize = 6
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Clustered generates a clustered-conflict dataset. Facts within a
// cluster share one subject and chain through boundary overlaps, so the
// cluster grounds into exactly one conflict component under
// ClusteredProgram; bridges (see ClusteredConfig.BridgeRate) merge
// adjacent clusters. Conflict-inducing facts (overlapping alt spells,
// bridges) carry gold noise labels.
func Clustered(cfg ClusteredConfig) *Dataset {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	ds := &Dataset{Profile: "clustered", Noise: make(map[rdf.FactKey]bool)}

	nChain := (cfg.ClusterSize + 1) / 2
	firstSpell := make([]temporal.Interval, cfg.Clusters)
	firstClub := make([]string, cfg.Clusters)
	for c := 0; c < cfg.Clusters; c++ {
		subj := fmt.Sprintf("player/%05d", c)
		// Chain: each spell starts the year the previous one ends, so
		// adjacent spells overlap at the boundary and every cluster is
		// one clause-connected conflict component.
		year := int64(1990 + rng.Intn(6))
		spells := make([]temporal.Interval, 0, nChain)
		for s := 0; s < nChain; s++ {
			dur := int64(2 + rng.Intn(4))
			iv := temporal.MustNew(year, year+dur)
			spells = append(spells, iv)
			club := fmt.Sprintf("club/%05d/%d", c, s)
			if s == 0 {
				firstSpell[c], firstClub[c] = iv, club
			}
			ds.add(rdf.Quad{
				Subject:    rdf.NewIRI(subj),
				Predicate:  rdf.NewIRI("playsFor"),
				Object:     rdf.NewIRI(club),
				Interval:   iv,
				Confidence: 0.7 + 0.3*rng.Float64(),
			}, false)
			year += dur
		}
		// Noise: alt spells overlapping a random chain position.
		for s := nChain; s < cfg.ClusterSize; s++ {
			base := spells[rng.Intn(len(spells))]
			start := base.Start + int64(rng.Intn(int(base.Duration())))
			ds.add(rdf.Quad{
				Subject:    rdf.NewIRI(subj),
				Predicate:  rdf.NewIRI("playsFor"),
				Object:     rdf.NewIRI(fmt.Sprintf("club/%05d/%d/alt", c, s)),
				Interval:   temporal.MustNew(start, start+1+int64(rng.Intn(3))),
				Confidence: 0.5 + 0.25*rng.Float64(),
			}, true)
		}
	}
	// Bridges: the next cluster's player also plays for this cluster's
	// first club, at times overlapping both clusters' first spells. The
	// oneClubAtATime grounding ties the fact into its own cluster, the
	// oneStarPlayer grounding into this one — one component.
	for c := 0; c+1 < cfg.Clusters; c++ {
		if rng.Float64() >= cfg.BridgeRate {
			continue
		}
		a, b := firstSpell[c], firstSpell[c+1]
		lo, hi := a.Start, b.End
		if b.Start < lo {
			lo = b.Start
		}
		if a.End > hi {
			hi = a.End
		}
		ds.add(rdf.Quad{
			Subject:    rdf.NewIRI(fmt.Sprintf("player/%05d", c+1)),
			Predicate:  rdf.NewIRI("playsFor"),
			Object:     rdf.NewIRI(firstClub[c]),
			Interval:   temporal.MustNew(lo, hi),
			Confidence: 0.5 + 0.25*rng.Float64(),
		}, true)
	}
	return ds
}

// ClusteredProgram is the constraint set used with the clustered
// profile: a player plays for one club at a time (the intra-cluster
// conflicts) and a club fields one of the generated players at a time
// (the constraint bridge facts violate across clusters).
const ClusteredProgram = `
oneClubAtATime: quad(x, playsFor, y, t) ^ quad(x, playsFor, z, t') ^ y != z -> disjoint(t, t') w = inf
oneStarPlayer: quad(x, playsFor, y, t) ^ quad(z, playsFor, y, t') ^ x != z -> disjoint(t, t') w = inf
`

// WikidataConfig parameterises the Wikidata-profile generator.
type WikidataConfig struct {
	// Scale multiplies the paper's per-relation cardinalities
	// (playsFor >4M, spouse >20K, memberOf >23K, educatedAt >6K,
	// occupation >4.5K). Scale 1.0 generates the full extract; the
	// default 0.01 keeps tests fast.
	Scale float64
	// NoiseRatio is the expected injected noise per clean fact
	// (default 0.042, which reproduces Figure 8's ≈8.1% conflicting
	// facts: each injected fact implicates roughly one clean fact).
	NoiseRatio float64
	// Seed drives the deterministic RNG (default 1).
	Seed int64
}

func (c WikidataConfig) withDefaults() WikidataConfig {
	if c.Scale == 0 {
		c.Scale = 0.01
	}
	if c.NoiseRatio == 0 {
		c.NoiseRatio = 0.042
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Paper cardinalities for the Wikidata extract (Section 4).
const (
	wikidataPlaysFor   = 4_000_000
	wikidataSpouse     = 20_000
	wikidataMemberOf   = 23_000
	wikidataEducatedAt = 6_000
	wikidataOccupation = 4_500
)

// ExpectedFacts estimates how many facts Wikidata(c) generates, without
// generating them. Every relation but occupation draws at most one noisy
// fact per clean one, so noise beyond 1 adds nothing.
func (c WikidataConfig) ExpectedFacts() float64 {
	c = c.withDefaults()
	noisy := float64(wikidataPlaysFor + wikidataSpouse + wikidataMemberOf + wikidataEducatedAt)
	return c.Scale * (noisy*(1+min(c.NoiseRatio, 1)) + wikidataOccupation)
}

// Wikidata generates a Wikidata-profile dataset.
func Wikidata(cfg WikidataConfig) *Dataset {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	ds := &Dataset{Profile: "wikidata", Noise: make(map[rdf.FactKey]bool)}

	gen := func(relation string, count int, genFact func(subj string, i int)) {
		for i := 0; i < count; i++ {
			genFact(fmt.Sprintf("entity/%s/%06d", relation, i), i)
		}
	}

	scale := func(n int) int {
		v := int(float64(n) * cfg.Scale)
		if v < 1 {
			v = 1
		}
		return v
	}

	// playsFor: career spells like the football profile; one subject may
	// produce several facts, so divide the target count by the mean
	// spells per player (~3).
	players := scale(wikidataPlaysFor) / 3
	if players < 1 {
		players = 1
	}
	for p := 0; p < players; p++ {
		subj := fmt.Sprintf("entity/athlete/%07d", p)
		birth := int64(minBirth + rng.Intn(45))
		for _, sp := range careerSpells(rng, birth) {
			ds.add(rdf.Quad{
				Subject:    rdf.NewIRI(subj),
				Predicate:  rdf.NewIRI("playsFor"),
				Object:     rdf.NewIRI(fmt.Sprintf("club/%04d", rng.Intn(2000))),
				Interval:   sp,
				Confidence: 0.5 + 0.5*rng.Float64(),
			}, false)
			if rng.Float64() < cfg.NoiseRatio*1.0 {
				// Overlapping spell at a different club.
				start := sp.Start + int64(rng.Intn(int(sp.Duration())))
				ds.add(rdf.Quad{
					Subject:    rdf.NewIRI(subj),
					Predicate:  rdf.NewIRI("playsFor"),
					Object:     rdf.NewIRI(fmt.Sprintf("club/%04d/alt", rng.Intn(2000))),
					Interval:   temporal.MustNew(start, start+int64(rng.Intn(3))),
					Confidence: 0.5 + 0.4*rng.Float64(),
				}, true)
			}
		}
	}

	// spouse: marriage intervals; noise = overlapping second marriage.
	gen("spouse", scale(wikidataSpouse), func(subj string, i int) {
		start := int64(1960 + rng.Intn(50))
		dur := int64(1 + rng.Intn(30))
		end := start + dur
		if end > horizonYear {
			end = horizonYear
		}
		ds.add(rdf.Quad{
			Subject:    rdf.NewIRI(subj),
			Predicate:  rdf.NewIRI("spouse"),
			Object:     rdf.NewIRI(fmt.Sprintf("person/%06d", rng.Intn(500000))),
			Interval:   temporal.MustNew(start, end),
			Confidence: 0.6 + 0.4*rng.Float64(),
		}, false)
		if rng.Float64() < cfg.NoiseRatio {
			mid := start + int64(rng.Intn(int(end-start+1)))
			ds.add(rdf.Quad{
				Subject:    rdf.NewIRI(subj),
				Predicate:  rdf.NewIRI("spouse"),
				Object:     rdf.NewIRI(fmt.Sprintf("person/%06d/alt", rng.Intn(500000))),
				Interval:   temporal.MustNew(mid, mid+int64(rng.Intn(5))),
				Confidence: 0.5 + 0.4*rng.Float64(),
			}, true)
		}
	})

	// memberOf: band/organisation memberships; simultaneous memberships
	// are legal, so noise is instead a membership that starts before the
	// member's founding-style lower bound — modelled as a fact whose
	// interval precedes 1900 (violating a range constraint).
	gen("memberOf", scale(wikidataMemberOf), func(subj string, i int) {
		start := int64(1950 + rng.Intn(60))
		ds.add(rdf.Quad{
			Subject:    rdf.NewIRI(subj),
			Predicate:  rdf.NewIRI("memberOf"),
			Object:     rdf.NewIRI(fmt.Sprintf("org/%05d", rng.Intn(30000))),
			Interval:   temporal.MustNew(start, start+int64(1+rng.Intn(20))),
			Confidence: 0.6 + 0.4*rng.Float64(),
		}, false)
		if rng.Float64() < cfg.NoiseRatio {
			old := int64(1800 + rng.Intn(90))
			ds.add(rdf.Quad{
				Subject:    rdf.NewIRI(subj),
				Predicate:  rdf.NewIRI("memberOf"),
				Object:     rdf.NewIRI(fmt.Sprintf("org/%05d", rng.Intn(30000))),
				Interval:   temporal.MustNew(old, old+2),
				Confidence: 0.5 + 0.3*rng.Float64(),
			}, true)
		}
	})

	// occupation: one or two occupations with long validity.
	gen("occupation", scale(wikidataOccupation), func(subj string, i int) {
		start := int64(1960 + rng.Intn(50))
		ds.add(rdf.Quad{
			Subject:    rdf.NewIRI(subj),
			Predicate:  rdf.NewIRI("occupation"),
			Object:     rdf.NewIRI(fmt.Sprintf("occ/%03d", rng.Intn(400))),
			Interval:   temporal.MustNew(start, horizonYear),
			Confidence: 0.7 + 0.3*rng.Float64(),
		}, false)
	})

	// educatedAt: study periods; noise = overlapping enrolment at a
	// second institution (constraint-violating for the demo's purposes).
	gen("educatedAt", scale(wikidataEducatedAt), func(subj string, i int) {
		start := int64(1960 + rng.Intn(50))
		end := start + int64(2+rng.Intn(5))
		ds.add(rdf.Quad{
			Subject:    rdf.NewIRI(subj),
			Predicate:  rdf.NewIRI("educatedAt"),
			Object:     rdf.NewIRI(fmt.Sprintf("school/%04d", rng.Intn(5000))),
			Interval:   temporal.MustNew(start, end),
			Confidence: 0.6 + 0.4*rng.Float64(),
		}, false)
		if rng.Float64() < cfg.NoiseRatio {
			ds.add(rdf.Quad{
				Subject:    rdf.NewIRI(subj),
				Predicate:  rdf.NewIRI("educatedAt"),
				Object:     rdf.NewIRI(fmt.Sprintf("school/%04d/alt", rng.Intn(5000))),
				Interval:   temporal.MustNew(start+1, end+1),
				Confidence: 0.5 + 0.3*rng.Float64(),
			}, true)
		}
	})

	return ds
}

// WikidataProgram is the constraint set used with the Wikidata profile.
const WikidataProgram = `
noTwoClubs: quad(x, playsFor, y, t) ^ quad(x, playsFor, z, t') ^ y != z -> disjoint(t, t') w = inf
noBigamy: quad(x, spouse, y, t) ^ quad(x, spouse, z, t') ^ y != z -> disjoint(t, t') w = inf
oneSchoolAtATime: quad(x, educatedAt, y, t) ^ quad(x, educatedAt, z, t') ^ y != z -> disjoint(t, t') w = inf
modernMembership: quad(x, memberOf, y, t) ^ start(t) < 1900 -> false w = inf
`
