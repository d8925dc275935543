package main

import (
	"regexp"
	"strings"
	"testing"

	tecore "repro"
)

func TestIncrementalREPL(t *testing.T) {
	s := tecore.NewSession()
	if err := s.LoadGraphText(figure1); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadProgramText(program); err != nil {
		t.Fatal(err)
	}
	in := strings.NewReader(`
# initial solve: Napoli conflicts with Chelsea under c2
solve
remove CR coach Napoli [2001,2003] 0.6
solve
add CR coach Napoli [2001,2003] 0.6
solve
stats
bogus
quit
`)
	var out strings.Builder
	_, err := runIncrementalREPL(s, tecore.SolveOptions{Solver: tecore.SolverMLN}, false, in, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"solved (full, mln): kept 4 / removed 1",
		"ok: 1 fact(s) removed, 4 live",
		"solved (incremental, mln): kept 4 / removed 0",
		"ok: 1 fact(s) asserted, 5 live",
		"solved (incremental, mln): kept 4 / removed 1",
		"facts: 5 live",
		"unknown command \"bogus\"",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("REPL output missing %q\noutput:\n%s", want, got)
		}
	}
}

// TestIncrementalREPLBatch drives the batch command: several ops apply
// as one atomic delta (removes first), and an invalid op rejects the
// whole batch without touching the store.
func TestIncrementalREPLBatch(t *testing.T) {
	s := tecore.NewSession()
	if err := s.LoadGraphText(figure1); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadProgramText(program); err != nil {
		t.Fatal(err)
	}
	in := strings.NewReader(`
solve
batch remove CR coach Napoli [2001,2003] 0.6; add CR coach Leeds [2003,2004] 0.5
solve
batch frobnicate CR coach X [2005,2006] 0.5
batch add CR coach X [2005,2006] 5.0
stats
quit
`)
	var out strings.Builder
	_, err := runIncrementalREPL(s, tecore.SolveOptions{Solver: tecore.SolverMLN}, false, in, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"ok: batch applied — 1 added, 1 removed, 0 updated, 5 live",
		"solved (incremental, mln):",
		`unknown op "frobnicate"`,
		// The invalid-confidence batch must reject without applying.
		"error:",
		"facts: 5 live",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("REPL output missing %q\noutput:\n%s", want, got)
		}
	}
}

// TestIncrementalREPLComponents drives the REPL with -components -v:
// every solve prints the component summary, and the re-solve after a
// mutation reports cache reuse for the untouched components.
func TestIncrementalREPLComponents(t *testing.T) {
	s := tecore.NewSession()
	if err := s.LoadGraphText(figure1); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadProgramText(program); err != nil {
		t.Fatal(err)
	}
	in := strings.NewReader(`
solve
remove CR coach Napoli [2001,2003] 0.6
solve
quit
`)
	var out strings.Builder
	_, err := runIncrementalREPL(s,
		tecore.SolveOptions{Solver: tecore.SolverMLN}, true, in, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"components:",
		"reused from cache",
		"engines:",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("REPL output missing %q\noutput:\n%s", want, got)
		}
	}
	// The incremental re-solve must reuse at least one cached component
	// (the components the removal did not touch).
	if !regexp.MustCompile(`\(\d+ solved, [1-9]\d* reused from cache\)`).MatchString(got) {
		t.Errorf("re-solve reported no cache reuse\noutput:\n%s", got)
	}
}
