package main

import (
	"encoding/json"
	"math/rand"
	"strings"

	"repro/internal/kgen"
	"repro/internal/rdf"
	"repro/internal/server"
)

// spec is one workload: a generated dataset shape and the traffic that
// is driven over it. The sizes are chosen so that on the two-core build
// host one set-up does about two seconds of real work and the measured
// phase collects at least a hundred samples per gated median within
// run_seconds (see README.md, "Why these sizes").
type spec struct {
	Name string
	Why  string

	// Dataset: kgen.Clustered with BridgeRate 0.1.
	Clusters    int
	ClusterSize int

	Solver  string
	Durable bool // server runs with -data-dir -checkpoint 0
	// Cold workloads upload, solve and read back a fresh session per
	// op; the others keep one session and stream batches into it.
	Cold bool
	// Batch is the number of facts one update op toggles.
	Batch int
	// ReaderHz paces a reader on a second connection beside the writer
	// of an update workload. A cold workload's reads are the GET step of
	// its ops.
	ReaderHz int
	// Recoveries is the number of kill-and-restart cycles in the
	// recovery tail: more where a cycle is cheap, because the median of
	// a few process starts is the noisiest number in the run.
	Recoveries int
	// Warmup ops run before the measured phase and belong to set-up.
	Warmup int
	// TracedOpsPerSecond fixes the traced run's op count (times
	// -seconds), so its counts and bytes repeat exactly.
	TracedOpsPerSecond float64
}

const bridgeRate = 0.1

var workloads = []spec{
	{
		Name:               "cold-sparse",
		Why:                "upload-and-debug flow on ~3.6k small exact components: parse, store, ground, plan and repair read-out do the work, the optimiser almost none",
		Clusters:           4000,
		ClusterSize:        6,
		Solver:             "mln",
		Durable:            true,
		Cold:               true,
		Warmup:             6,
		Recoveries:         11,
		TracedOpsPerSecond: 0.75,
	},
	{
		Name:               "cold-dense",
		Why:                "same flow on ~45 components of 60-180 atoms, all local search: maxsat/mln is most of the op, so a solver change moves this and leaves cold-sparse flat",
		Clusters:           50,
		ClusterSize:        60,
		Solver:             "mln",
		Durable:            true,
		Cold:               true,
		Warmup:             6,
		Recoveries:         11,
		TracedOpsPerSecond: 0.75,
	},
	{
		Name:               "stream-durable",
		Why:                "single-fact durable MLN updates on one 61k-fact session beside a paced 50/s reader: fsync per commit, plan sync and O(n) read-out dominate; the tail recovers from the log",
		Clusters:           10000,
		ClusterSize:        6,
		Solver:             "mln",
		Durable:            true,
		Batch:              1,
		ReaderHz:           50,
		Warmup:             200,
		Recoveries:         7,
		TracedOpsPerSecond: 25,
	},
	{
		Name:               "mixed-rw",
		Why:                "8-fact PSL batches beside a paced 100/s reader, no data dir: reads beside writes, ADMM instead of MaxSAT, and no log, so a wal change must not move it",
		Clusters:           5000,
		ClusterSize:        6,
		Solver:             "psl",
		Batch:              8,
		ReaderHz:           100,
		Warmup:             100,
		Recoveries:         7,
		TracedOpsPerSecond: 12,
	},
}

func findWorkload(name string) (spec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return spec{}, false
}

// scaled shrinks a workload for the smoke test.
func (s spec) scaled(scale float64) spec {
	shrink := func(n, min int) int {
		if v := int(float64(n) * scale); v > min {
			return v
		}
		return min
	}
	s.Clusters = shrink(s.Clusters, 4)
	s.Warmup = shrink(s.Warmup, 1)
	s.Recoveries = 2
	return s
}

// dataset is the generated input of one run. The server only ever sees
// the rendered text.
type dataset struct {
	quads  rdf.Graph
	lines  []string // one TQuads line per fact
	tquads string
	// createBody is the POST /api/sessions body, marshalled once.
	createBody []byte
}

func generate(s spec, seed int64) (*dataset, error) {
	ds := kgen.Clustered(kgen.ClusteredConfig{
		Clusters: s.Clusters, ClusterSize: s.ClusterSize, BridgeRate: bridgeRate,
		Seed: seed + 1, // kgen reads seed 0 as "default"
	})
	d := &dataset{quads: ds.Graph, lines: make([]string, len(ds.Graph))}
	var sb strings.Builder
	for i, q := range ds.Graph {
		d.lines[i] = q.String()
		sb.WriteString(d.lines[i])
		sb.WriteByte('\n')
	}
	d.tquads = sb.String()
	body, err := json.Marshal(server.CreateSessionRequest{TQuads: d.tquads, Rules: kgen.ClusteredProgram})
	if err != nil {
		return nil, err
	}
	d.createBody = body
	return d, nil
}

// toggles chooses the facts an update op flips — a live fact is
// removed, a removed one re-added — and tracks which facts are live.
// The HTTP driver, the reference and the in-process replay all draw
// from it, so one seed gives all three the same sequence of commits.
type toggles struct {
	rng     *rand.Rand
	present []bool
	live    int
}

func newToggles(facts int, seed int64) *toggles {
	t := &toggles{rng: rand.New(rand.NewSource(seed)), present: make([]bool, facts), live: facts}
	for i := range t.present {
		t.present[i] = true
	}
	return t
}

// pick draws n distinct fact indexes.
func (t *toggles) pick(n int) []int32 {
	idx := make([]int32, 0, n)
draw:
	for len(idx) < n {
		i := int32(t.rng.Intn(len(t.present)))
		for _, j := range idx {
			if i == j {
				continue draw
			}
		}
		idx = append(idx, i)
	}
	return idx
}

// split says which of idx a batch must add and which it must remove.
func (t *toggles) split(idx []int32) (add, remove []int32) {
	for _, i := range idx {
		if t.present[i] {
			remove = append(remove, i)
		} else {
			add = append(add, i)
		}
	}
	return add, remove
}

// flip records that the batch over idx was applied.
func (t *toggles) flip(idx []int32) {
	for _, i := range idx {
		if t.present[i] {
			t.live--
		} else {
			t.live++
		}
		t.present[i] = !t.present[i]
	}
}

// pickQuads is pick, split and flip in one step, for callers that apply
// the batch themselves and cannot fail.
func (t *toggles) pickQuads(n int, quads rdf.Graph) (add, remove rdf.Graph) {
	idx := t.pick(n)
	a, r := t.split(idx)
	t.flip(idx)
	return graphOf(quads, a), graphOf(quads, r)
}

func graphOf(quads rdf.Graph, idx []int32) rdf.Graph {
	g := make(rdf.Graph, len(idx))
	for k, i := range idx {
		g[k] = quads[i]
	}
	return g
}
