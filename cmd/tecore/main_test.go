package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	tecore "repro"
)

const figure1 = `
CR coach Chelsea [2000,2004] 0.9
CR coach Leicester [2015,2017] 0.7
CR playsFor Palermo [1984,1986] 0.5
CR birthDate 1951 [1951,2017] 1.0
CR coach Napoli [2001,2003] 0.6
`

const program = `
f1: quad(x, playsFor, y, t) -> quad(x, worksFor, y, t) w = 2.5
c2: quad(x, coach, y, t) ^ quad(x, coach, z, t') ^ y != z -> disjoint(t, t') w = inf
`

func writeFile(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunStats(t *testing.T) {
	dir := t.TempDir()
	data := writeFile(t, dir, "g.tq", figure1)
	if err := runStats([]string{"-data", data}); err != nil {
		t.Fatalf("runStats: %v", err)
	}
	if err := runStats([]string{}); err == nil {
		t.Error("missing -data accepted")
	}
	if err := runStats([]string{"-data", filepath.Join(dir, "missing.tq")}); err == nil {
		t.Error("missing file accepted")
	}
}

func TestRunValidate(t *testing.T) {
	dir := t.TempDir()
	rules := writeFile(t, dir, "r.tcr", program)
	if err := runValidate([]string{"-rules", rules}); err != nil {
		t.Fatalf("runValidate: %v", err)
	}
	if err := runValidate([]string{"-rules", rules, "-solver", "psl"}); err != nil {
		t.Fatalf("runValidate psl: %v", err)
	}
	bad := writeFile(t, dir, "bad.tcr", "quad(x, p, y, t) w = 1")
	if err := runValidate([]string{"-rules", bad}); err == nil {
		t.Error("bad rules accepted")
	}
	hard := writeFile(t, dir, "hard.tcr", "f: quad(x, p, y, t) -> quad(x, q, y, t) w = inf")
	if err := runValidate([]string{"-rules", hard, "-solver", "psl"}); err == nil {
		t.Error("hard inference rule accepted for psl")
	}
	if err := runValidate([]string{}); err == nil {
		t.Error("missing -rules accepted")
	}
}

func TestRunInferEndToEnd(t *testing.T) {
	dir := t.TempDir()
	data := writeFile(t, dir, "g.tq", figure1)
	rules := writeFile(t, dir, "r.tcr", program)
	out := filepath.Join(dir, "consistent.tq")
	removed := filepath.Join(dir, "removed.tq")
	err := runInfer([]string{
		"-data", data, "-rules", rules, "-solver", "mln",
		"-out", out, "-removed", removed,
	})
	if err != nil {
		t.Fatalf("runInfer: %v", err)
	}

	cg, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	g, err := tecore.ParseGraphString(string(cg))
	if err != nil {
		t.Fatalf("consistent output unparseable: %v", err)
	}
	if len(g) != 5 { // 4 kept + 1 inferred
		t.Errorf("consistent graph = %d facts", len(g))
	}
	if strings.Contains(string(cg), "Napoli") {
		t.Error("removed fact in consistent output")
	}

	rg, err := os.ReadFile(removed)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(rg), "Napoli") {
		t.Errorf("removed output = %q", rg)
	}
}

func TestRunInferPSLAndThreshold(t *testing.T) {
	dir := t.TempDir()
	data := writeFile(t, dir, "g.tq", figure1)
	rules := writeFile(t, dir, "r.tcr", program)
	out := filepath.Join(dir, "c.tq")
	err := runInfer([]string{
		"-data", data, "-rules", rules, "-solver", "psl", "-threshold", "0.99", "-out", out,
	})
	if err != nil {
		t.Fatalf("runInfer psl: %v", err)
	}
	cg, _ := os.ReadFile(out)
	if strings.Contains(string(cg), "worksFor") {
		t.Error("threshold 0.99 should filter the derived fact")
	}
}

func TestRunInferErrors(t *testing.T) {
	dir := t.TempDir()
	data := writeFile(t, dir, "g.tq", figure1)
	rules := writeFile(t, dir, "r.tcr", program)
	if err := runInfer([]string{"-rules", rules}); err == nil {
		t.Error("missing -data accepted")
	}
	if err := runInfer([]string{"-data", data, "-rules", rules, "-solver", "zzz"}); err == nil {
		t.Error("unknown solver accepted")
	}
	badRules := writeFile(t, dir, "bad.tcr", "nope ->")
	if err := runInfer([]string{"-data", data, "-rules", badRules}); err == nil {
		t.Error("bad rules accepted")
	}
}

func TestRunInferExplain(t *testing.T) {
	dir := t.TempDir()
	data := writeFile(t, dir, "g.tq", figure1)
	rules := writeFile(t, dir, "r.tcr", program)
	if err := runInfer([]string{"-data", data, "-rules", rules, "-explain"}); err != nil {
		t.Fatalf("runInfer -explain: %v", err)
	}
}

// TestRunInferIncrementalOutputs runs infer -incremental on a script
// read from stdin: -out and -removed are written from the session's last
// solve, byte-identical to the one-shot run's, and a script that never
// solves is an error naming the flags it could not honour.
func TestRunInferIncrementalOutputs(t *testing.T) {
	dir := t.TempDir()
	data := writeFile(t, dir, "g.tq", figure1)
	rules := writeFile(t, dir, "r.tcr", program)
	withStdin := func(script string, args ...string) error {
		t.Helper()
		f, err := os.Open(writeFile(t, dir, "script", script))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		stdin := os.Stdin
		os.Stdin = f
		defer func() { os.Stdin = stdin }()
		return runInfer(append([]string{"-data", data, "-rules", rules, "-incremental"}, args...))
	}
	for _, solver := range []string{"mln", "psl", "greedy"} {
		files := map[string]string{}
		for _, mode := range []string{"oneshot", "incremental"} {
			out := filepath.Join(dir, mode+"-"+solver+"-out.tq")
			removed := filepath.Join(dir, mode+"-"+solver+"-removed.tq")
			args := []string{"-solver", solver, "-out", out, "-removed", removed}
			var err error
			if mode == "oneshot" {
				err = runInfer(append([]string{"-data", data, "-rules", rules}, args...))
			} else {
				err = withStdin("solve\nquit\n", args...)
			}
			if err != nil {
				t.Fatalf("%s %s: %v", solver, mode, err)
			}
			for kind, path := range map[string]string{"out": out, "removed": removed} {
				b, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("%s %s: %v", solver, mode, err)
				}
				if prev, ok := files[kind]; ok && prev != string(b) {
					t.Errorf("%s: incremental -%s differs from the one-shot run's\n%s\nwant\n%s", solver, kind, b, prev)
				}
				files[kind] = string(b)
			}
		}
		if !strings.Contains(files["removed"], "Napoli") {
			t.Errorf("%s: removed output = %q", solver, files["removed"])
		}
	}
	err := withStdin("stats\nquit\n", "-out", filepath.Join(dir, "none.tq"), "-explain")
	if err == nil || !strings.Contains(err.Error(), "-explain, -out") {
		t.Errorf("a script with no solve returned %v, want an error naming -explain and -out", err)
	}
}
