// Command bench is the repository's benchmark: it drives the real
// tecore-server, started as a child process, over HTTP through four
// workloads and prints every end-to-end metric (or, with -trace 1,
// every per-layer metric) by name with its unit, after checking that
// the server's answers are correct. BENCHMARK.json at the root of the
// repository declares the workloads, the metrics and their bounds;
// README.md in this directory explains them.
//
//	bash bench/run.sh -workload cold-sparse -seed 1 -seconds 15 -trace 0
//	bash bench/run.sh -all
//	bash bench/run.sh -selfcheck
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// runConfig is one invocation's settings.
type runConfig struct {
	spec      spec
	seed      int64
	seconds   float64
	serverBin string
	workDir   string // scratch space inside the checkout
	// scale shrinks the fixed counts for the smoke test, which also
	// shrinks the dataset (spec.scaled); the benchmark runs at 1.
	scale float64
}

// count scales one of the run's fixed counts, keeping at least min.
func (c runConfig) count(n, min int) int {
	if v := int(float64(n) * c.scale); v > min {
		return v
	}
	return min
}

// setupsPerRun set-ups are made per untraced run and setup_s is their
// median: one set-up of a few seconds moves 10 % between identical runs.
const setupsPerRun = 3

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// hostInfo says where a record was measured.
type hostInfo struct {
	NProc           int    `json:"nproc"`
	ChildGOMAXPROCS int    `json:"child_gomaxprocs"`
	GoVersion       string `json:"go_version"`
	Commit          string `json:"commit"`
}

// record is the full output of one run: everything the last line says
// plus where, on what and over how many samples it was measured.
type record struct {
	Workload string   `json:"workload"`
	Why      string   `json:"why"`
	Seed     int64    `json:"seed"`
	Seconds  float64  `json:"seconds"`
	Traced   bool     `json:"traced"`
	Host     hostInfo `json:"host"`
	Facts    int      `json:"facts"`
	// Samples is the number of samples behind each median; MeasuredS
	// how long the op phase lasted.
	Samples   map[string]int `json:"samples"`
	MeasuredS float64        `json:"measured_s"`
	// Tails are reported, never gated: on a shared sandbox they move
	// more than any bound worth setting.
	Tails         map[string]tail `json:"tails"`
	FirstFailure  string          `json:"first_failure,omitempty"`
	Waterfall     []waterfallRow  `json:"waterfall,omitempty"`
	AttributedPct float64         `json:"attributed_pct,omitempty"`
	SpansFile     string          `json:"spans_file,omitempty"`
	result
}

// tail is a latency at the percentile it was taken at, with the number
// of samples it was taken over.
type tail struct {
	MS         float64 `json:"ms"`
	Percentile float64 `json:"percentile"`
	N          int     `json:"n"`
}

// tailOf takes a latency's tail at the highest percentile that has at
// least ten samples beyond it.
func tailOf(ms []float64) tail {
	p := tailPercentile(len(ms))
	return tail{percentile(ms, p), p, len(ms)}
}

func host(root string) hostInfo {
	h := hostInfo{NProc: runtime.NumCPU(), ChildGOMAXPROCS: childProcs(), GoVersion: runtime.Version(), Commit: "unknown"}
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// finish fills the record's metrics from the measured values, in the
// declared order, and fails if a declared metric was not measured: the
// names in BENCHMARK.json and the names printed must be the same set.
func (r *record) finish(defs []metricDef, values map[string]float64, t *tally) error {
	r.Metrics = make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		r.Metrics[d.Name] = metric{v, d.Unit}
	}
	if len(values) != len(defs) {
		return fmt.Errorf("%d metrics measured, %d declared", len(values), len(defs))
	}
	r.Attempted, r.Failed, r.FirstFailure = t.attempted, t.failed, t.first
	r.Correct = t.failed == 0 && t.attempted > 0
	return nil
}

// print writes the record for people (one metric per line, by name,
// with unit and sample count), then as one JSON object, then the
// contract's result line.
func (r *record) print(defs []metricDef) error {
	fmt.Printf("# %s seed=%d seconds=%g traced=%v facts=%d nproc=%d child_gomaxprocs=%d %s commit=%s\n",
		r.Workload, r.Seed, r.Seconds, r.Traced, r.Facts, r.Host.NProc, r.Host.ChildGOMAXPROCS, r.Host.GoVersion, r.Host.Commit)
	for _, d := range defs {
		line := fmt.Sprintf("%-34s %14.4f %s", d.Name, r.Metrics[d.Name].Value, d.Unit)
		if n, ok := r.Samples[d.Name]; ok {
			line += fmt.Sprintf("  (n=%d)", n)
		}
		fmt.Println(line)
	}
	for name, t := range r.Tails {
		fmt.Printf("%-34s %14.4f ms  (p%g, n=%d)\n", name, t.MS, t.Percentile, t.N)
	}
	for _, w := range r.Waterfall {
		fmt.Printf("waterfall %-24s %10.3f ms %6.1f %%\n", w.Layer, w.MS, 100*w.Share)
	}
	fmt.Printf("# attempted=%d failed=%d correct=%v measured_s=%.1f %s\n", r.Attempted, r.Failed, r.Correct, r.MeasuredS, r.FirstFailure)
	full, err := json.Marshal(struct {
		Record *record `json:"record"`
	}{r})
	if err != nil {
		return err
	}
	fmt.Println(string(full))
	last, err := json.Marshal(r.result)
	if err != nil {
		return err
	}
	fmt.Println(string(last))
	return nil
}

// cli is the command line.
type cli struct {
	workload  string
	seed      int64
	seconds   float64
	trace     int
	all       bool
	selfcheck bool
	manifest  string
	serverBin string
}

func main() {
	var c cli
	flag.StringVar(&c.workload, "workload", "", "workload to run: "+workloadNames())
	flag.Int64Var(&c.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&c.seconds, "seconds", 15, "length of the measured op phase")
	flag.IntVar(&c.trace, "trace", 0, "1 = the traced run (per-layer metrics), 0 = the untraced run (end-to-end metrics)")
	flag.BoolVar(&c.all, "all", false, "run every workload, untraced then traced")
	flag.BoolVar(&c.selfcheck, "selfcheck", false, "run each workload twice on this binary and compare against the bounds in -manifest")
	flag.StringVar(&c.manifest, "manifest", "BENCHMARK.json", "benchmark manifest (bounds for -selfcheck)")
	flag.StringVar(&c.serverBin, "server", ".bench_build/tecore-server", "tecore-server binary (run.sh builds it)")
	flag.Parse()
	if err := c.run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return strings.Join(names, ", ")
}

func (c cli) run() error {
	bin, err := filepath.Abs(c.serverBin)
	if err != nil {
		return err
	}
	if _, err := os.Stat(bin); err != nil {
		return fmt.Errorf("server binary: %w (run bench/run.sh, which builds it)", err)
	}
	// Data directories and span files live beside the binaries, inside
	// the checkout, and are removed when the run ends.
	workDir, err := os.MkdirTemp(filepath.Dir(bin), "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(workDir)
	cfg := runConfig{seed: c.seed, seconds: c.seconds, serverBin: bin, workDir: workDir, scale: 1}

	var specs []spec
	switch {
	case c.workload != "":
		s, ok := findWorkload(c.workload)
		if !ok {
			return fmt.Errorf("unknown workload %q (have %s)", c.workload, workloadNames())
		}
		specs = []spec{s}
	case c.all || c.selfcheck:
		specs = workloads
	default:
		return fmt.Errorf("need -workload, -all or -selfcheck")
	}
	if c.selfcheck {
		return runSelfcheck(cfg, specs, c.manifest)
	}
	for _, s := range specs {
		cfg.spec = s
		modes := []bool{c.trace == 1}
		if c.all {
			modes = []bool{false, true}
		}
		for _, traced := range modes {
			rec, defs, err := runOnce(cfg, traced)
			if err != nil {
				return fmt.Errorf("%s: %w", s.Name, err)
			}
			if err := rec.print(defs); err != nil {
				return err
			}
		}
	}
	return nil
}

// runOnce makes one untraced or traced run and returns its record and
// the metric definitions it reports.
func runOnce(cfg runConfig, traced bool) (*record, []metricDef, error) {
	rec := &record{
		Workload: cfg.spec.Name, Why: cfg.spec.Why, Seed: cfg.seed, Seconds: cfg.seconds, Traced: traced,
		Host:    host(filepath.Dir(filepath.Dir(cfg.serverBin))),
		Samples: map[string]int{}, Tails: map[string]tail{},
	}
	if traced {
		return rec, perLayer, runTraced(cfg, rec)
	}
	return rec, endToEnd, runUntraced(cfg, rec)
}

// runUntraced measures the end-to-end metrics with tracing off.
func runUntraced(cfg runConfig, rec *record) error {
	var e *env
	setups := make([]float64, 0, setupsPerRun)
	for i := 0; i < setupsPerRun; i++ {
		if e != nil {
			e.close()
		}
		var err error
		if e, err = setUp(cfg, nil); err != nil {
			return err
		}
		setups = append(setups, e.setup.Seconds())
	}
	defer e.close()
	rec.Facts = len(e.data.quads)

	t0 := time.Now()
	p := e.measure(time.Duration(cfg.seconds*float64(time.Second)), 0, nil)
	rec.MeasuredS = time.Since(t0).Seconds()
	rss, err := e.srv.peakRSSMiB()
	if err != nil {
		return err
	}
	want, err := e.checkAgainstReference()
	if err != nil {
		return err
	}
	recoverMS, _ := e.recoveryTail(cfg.spec.Recoveries, want)

	opMS, readMS := latenciesMS(p.ops), latenciesMS(p.reads)
	values := map[string]float64{
		"setup_s":        median(setups),
		"op_p50_ms":      percentile(opMS, 50),
		"ops_per_s":      blockMedianThroughput(p.ops),
		"read_p50_ms":    percentile(readMS, 50),
		"recover_p50_ms": median(recoverMS),
		"peak_rss_mib":   rss,
	}
	rec.Samples["setup_s"] = len(setups)
	rec.Samples["op_p50_ms"] = len(opMS)
	rec.Samples["ops_per_s"] = len(opMS)
	rec.Samples["read_p50_ms"] = len(readMS)
	rec.Samples["recover_p50_ms"] = len(recoverMS)
	rec.Tails["op_tail_ms"] = tailOf(opMS)
	rec.Tails["read_tail_ms"] = tailOf(readMS)
	if len(p.lateMS) > 0 {
		rec.Tails["reader_lateness_ms"] = tail{percentile(p.lateMS, 50), 50, len(p.lateMS)}
	}
	return rec.finish(endToEnd, values, e.tal)
}
