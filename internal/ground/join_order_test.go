package ground

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/kgen"
	"repro/internal/logic"
	"repro/internal/rdf"
	"repro/internal/rulelang"
	"repro/internal/store"
)

// quickstartProgram is the program of examples/quickstart: Figure 4's
// inference rules and Figure 6's constraints.
const quickstartProgram = `
f1: quad(x, playsFor, y, t) -> quad(x, worksFor, y, t) w = 2.5
f2: quad(x, worksFor, y, t) ^ quad(y, locatedIn, z, t') ^ overlaps(t, t') -> quad(x, livesIn, z, intersect(t, t')) w = 1.6
c1: quad(x, birthDate, y, t) ^ quad(x, deathDate, z, t') -> before(t, t') w = inf
c2: quad(x, coach, y, t) ^ quad(x, coach, z, t') ^ y != z -> disjoint(t, t') w = inf
c3: quad(x, bornIn, y, t) ^ quad(x, bornIn, z, t') ^ overlap(t, t') -> y = z w = inf
`

// joinOrders renders the join order the planner records for every rule
// of prog at the grounder's current state: cold (nothing pinned), then
// with each body position pinned first, as the seminaive delta passes
// plan it. Orders are read back from RuleGroundStats.Order.
func joinOrders(t *testing.T, g *Grounder, prog *logic.Program) []string {
	t.Helper()
	g.refreshViews()
	g.TakeStats()
	plan := func(r *logic.Rule, first int) []int {
		if _, err := g.compileRule(r, first); err != nil {
			t.Fatal(err)
		}
		return g.TakeStats().Rules[0].Order
	}
	var out []string
	for _, r := range prog.Rules {
		line := fmt.Sprintf("%s cold %v", r.Name, plan(r, -1))
		for i := range r.Body {
			line += fmt.Sprintf(" pin%d %v", i, plan(r, i))
		}
		out = append(out, line)
	}
	return out
}

func loadFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestJoinOrdersPinned pins the join orders the planner picks for the
// shipped programs on their data: on the evidence alone (the plans of
// Close's full pass), and after Close + GroundProgram (the cold
// clause-emission plans, read from the phase's own stats, and the pinned
// plans of later delta passes). A planner edit that changes
// any of these changes the grounder's traffic on real workloads; update
// the table only with a measured reason.
func TestJoinOrdersPinned(t *testing.T) {
	runningData := loadFile(t, "../../testdata/running-example.tq")
	cases := []struct {
		name  string
		graph func() rdf.Graph
		prog  string
		want  []string
	}{
		{
			name: "clustered-sparse",
			graph: func() rdf.Graph {
				return kgen.Clustered(kgen.ClusteredConfig{Clusters: 4000, ClusterSize: 6, BridgeRate: 0.1, Seed: 1}).Graph
			},
			prog: kgen.ClusteredProgram,
			want: []string{
				"oneClubAtATime cold [0 1] pin0 [0 1] pin1 [1 0]",
				"oneStarPlayer cold [0 1] pin0 [0 1] pin1 [1 0]",
				"oneClubAtATime emit [0 1]",
				"oneStarPlayer emit [0 1]",
				"oneClubAtATime cold [0 1] pin0 [0 1] pin1 [1 0]",
				"oneStarPlayer cold [0 1] pin0 [0 1] pin1 [1 0]",
			},
		},
		{
			name: "clustered-dense",
			graph: func() rdf.Graph {
				return kgen.Clustered(kgen.ClusteredConfig{Clusters: 50, ClusterSize: 60, BridgeRate: 0.1, Seed: 1}).Graph
			},
			prog: kgen.ClusteredProgram,
			want: []string{
				"oneClubAtATime cold [0 1] pin0 [0 1] pin1 [1 0]",
				"oneStarPlayer cold [0 1] pin0 [0 1] pin1 [1 0]",
				"oneClubAtATime emit [0 1]",
				"oneStarPlayer emit [0 1]",
				"oneClubAtATime cold [0 1] pin0 [0 1] pin1 [1 0]",
				"oneStarPlayer cold [0 1] pin0 [0 1] pin1 [1 0]",
			},
		},
		{
			name: "football",
			graph: func() rdf.Graph {
				return kgen.Football(kgen.FootballConfig{Players: 300, NoiseRatio: 0.6, Seed: 3}).Graph
			},
			prog: kgen.FootballProgram,
			want: []string{
				"noTwoTeams cold [0 1] pin0 [0 1] pin1 [1 0]",
				"oneBirth cold [0 1] pin0 [0 1] pin1 [1 0]",
				"bornBeforePlays cold [0 1] pin0 [0 1] pin1 [1 0]",
				"bornBeforePlays emit [0 1]",
				"noTwoTeams emit [0 1]",
				"oneBirth emit [0 1]",
				"noTwoTeams cold [0 1] pin0 [0 1] pin1 [1 0]",
				"oneBirth cold [0 1] pin0 [0 1] pin1 [1 0]",
				"bornBeforePlays cold [0 1] pin0 [0 1] pin1 [1 0]",
			},
		},
		{
			name: "wikidata",
			graph: func() rdf.Graph {
				return kgen.Wikidata(kgen.WikidataConfig{Scale: 0.002, Seed: 1}).Graph
			},
			prog: kgen.WikidataProgram,
			want: []string{
				"noTwoClubs cold [0 1] pin0 [0 1] pin1 [1 0]",
				"noBigamy cold [0 1] pin0 [0 1] pin1 [1 0]",
				"oneSchoolAtATime cold [0 1] pin0 [0 1] pin1 [1 0]",
				"modernMembership cold [0] pin0 [0]",
				"modernMembership emit [0]",
				"noBigamy emit [0 1]",
				"noTwoClubs emit [0 1]",
				"oneSchoolAtATime emit [0 1]",
				"noTwoClubs cold [0 1] pin0 [0 1] pin1 [1 0]",
				"noBigamy cold [0 1] pin0 [0 1] pin1 [1 0]",
				"oneSchoolAtATime cold [0 1] pin0 [0 1] pin1 [1 0]",
				"modernMembership cold [0] pin0 [0]",
			},
		},
		{
			name: "running-example",
			graph: func() rdf.Graph {
				g, err := rdf.ParseGraphString(runningData)
				if err != nil {
					t.Fatal(err)
				}
				return g
			},
			prog: loadFile(t, "../../testdata/running-example.tcr"),
			want: []string{
				"f1 cold [0] pin0 [0]",
				"f2 cold [0] pin0 [0]",
				"f3 cold [0] pin0 [0]",
				"c1 cold [1 0] pin0 [0 1] pin1 [1 0]",
				"c2 cold [0 1] pin0 [0 1] pin1 [1 0]",
				"c3 cold [0 1] pin0 [0 1] pin1 [1 0]",
				"c1 emit [1 0]",
				"c2 emit [0 1]",
				"c3 emit [0 1]",
				"f1 emit [0]",
				"f2 emit [0]",
				"f3 emit [0]",
				"f1 cold [0] pin0 [0]",
				"f2 cold [0] pin0 [0]",
				"f3 cold [0] pin0 [0]",
				"c1 cold [1 0] pin0 [0 1] pin1 [1 0]",
				"c2 cold [0 1] pin0 [0 1] pin1 [1 0]",
				"c3 cold [0 1] pin0 [0 1] pin1 [1 0]",
			},
		},
		{
			name: "quickstart",
			graph: func() rdf.Graph {
				g, err := rdf.ParseGraphString(runningData)
				if err != nil {
					t.Fatal(err)
				}
				return g
			},
			prog: quickstartProgram,
			want: []string{
				"f1 cold [0] pin0 [0]",
				"f2 cold [0 1] pin0 [0 1] pin1 [1 0]",
				"c1 cold [1 0] pin0 [0 1] pin1 [1 0]",
				"c2 cold [0 1] pin0 [0 1] pin1 [1 0]",
				"c3 cold [0 1] pin0 [0 1] pin1 [1 0]",
				"c1 emit [1 0]",
				"c2 emit [0 1]",
				"c3 emit [0 1]",
				"f1 emit [0]",
				"f2 emit [1 0]",
				"f1 cold [0] pin0 [0]",
				"f2 cold [1 0] pin0 [0 1] pin1 [1 0]",
				"c1 cold [1 0] pin0 [0 1] pin1 [1 0]",
				"c2 cold [0 1] pin0 [0 1] pin1 [1 0]",
				"c3 cold [0 1] pin0 [0 1] pin1 [1 0]",
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			st := store.New()
			if err := st.AddGraph(c.graph()); err != nil {
				t.Fatal(err)
			}
			prog := rulelang.MustParse(c.prog)
			g := New(st)
			got := joinOrders(t, g, prog)
			if _, err := g.Close(prog); err != nil {
				t.Fatal(err)
			}
			g.TakeStats()
			if _, err := g.GroundProgram(prog); err != nil {
				t.Fatal(err)
			}
			for _, rs := range g.TakeStats().Rules {
				got = append(got, fmt.Sprintf("%s emit %v", rs.Rule, rs.Order))
			}
			got = append(got, joinOrders(t, g, prog)...)
			if g, w := strings.Join(got, "\n"), strings.Join(c.want, "\n"); g != w {
				t.Errorf("join orders changed:\n got:\n%s\nwant:\n%s", g, w)
			}
		})
	}
}
