package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pga/internal/analysis"
	"pga/internal/core"
)

// TestDrawPairRegistryMatchesAnalysis is the layering sync gate: the
// runtime pair registry (core.DrawPairs) and the
// analysis-side DefaultDrawParityConfig must list exactly the same
// pairs, so the linter proves parity for precisely the substitutions the
// engines perform — without internal/analysis importing product code.
func TestDrawPairRegistryMatchesAnalysis(t *testing.T) {
	runtime := map[string]bool{}
	for _, p := range core.DrawPairs() {
		runtime[p.A+" / "+p.B] = true
	}
	static := map[string]bool{}
	for _, p := range analysis.DefaultDrawParityConfig().Pairs {
		static[p.A+" / "+p.B] = true
	}
	for k := range runtime {
		if !static[k] {
			t.Errorf("pair %s declared at runtime but missing from DefaultDrawParityConfig", k)
		}
	}
	for k := range static {
		if !runtime[k] {
			t.Errorf("pair %s in DefaultDrawParityConfig but not declared by core.DrawPairs()", k)
		}
	}
}

// TestTraceCoverCleanOnRepo is the acceptance gate: every declared
// equivalence pair has golden coverage — a scenario exercising its
// operator or a dedicated equivalence test.
func TestTraceCoverCleanOnRepo(t *testing.T) {
	rep := buildTraceCover()
	if rep.Failed() {
		t.Errorf("uncovered equivalence pairs:\n  %s", strings.Join(rep.UncoveredPairs, "\n  "))
	}
	if rep.ScenarioN == 0 || rep.OperatorN == 0 || len(rep.Pairs) == 0 {
		t.Fatalf("empty audit inputs: %d scenarios, %d operators, %d pairs",
			rep.ScenarioN, rep.OperatorN, len(rep.Pairs))
	}
	// The markdown artifact must enumerate every pair.
	md := rep.Markdown()
	for _, pc := range rep.Pairs {
		if !strings.Contains(md, pc.Pair.A) {
			t.Errorf("markdown report missing pair member %s", pc.Pair.A)
		}
	}
}

// TestTraceCoverOperatorsPinned keeps every registered operator under a
// golden scenario except Best (no draws) and Random (one Intn). A new
// operator without a golden trace fails here; the audit's own gate only
// covers declared pairs.
func TestTraceCoverOperatorsPinned(t *testing.T) {
	got := buildTraceCover().UncoveredOps
	want := []string{"Best", "Random"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("operators without a golden scenario: %v, want %v", got, want)
	}
}

// TestDrawPairTestsExist guards the Test fields: a pair claiming a
// dedicated equivalence test must name a test function that actually
// exists in the member's package, so coverage claims cannot rot through
// renames.
func TestDrawPairTestsExist(t *testing.T) {
	for _, p := range core.DrawPairs() {
		if p.Test == "" {
			continue
		}
		// "pga/internal/operators.SUS" → package path up to the first dot
		// after the last slash.
		slash := strings.LastIndex(p.A, "/")
		dot := strings.Index(p.A[slash:], ".")
		if slash < 0 || dot < 0 {
			t.Errorf("pair %s / %s: cannot derive package from member name", p.A, p.B)
			continue
		}
		dir := filepath.Join("..", "..", strings.TrimPrefix(p.A[:slash+dot], "pga/"))
		files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
		if err != nil || len(files) == 0 {
			t.Errorf("pair %s / %s: no test files under %s for claimed test %s", p.A, p.B, dir, p.Test)
			continue
		}
		found := false
		for _, f := range files {
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			if strings.Contains(string(data), "func "+p.Test+"(") {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("pair %s / %s claims test %s, but no such test function exists in %s",
				p.A, p.B, p.Test, dir)
		}
	}
}
