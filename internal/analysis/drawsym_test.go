package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestDrawShapeRule pins rule 13 on its fixtures: content-guarded draws
// in role methods, in a hot-listed function and behind a cross-package
// call are reported at the draw site (auxtail.go carries the marker for
// the cross-package case); structural and RNG-drawn guards stay silent.
func TestDrawShapeRule(t *testing.T) {
	checkRule(t, DrawShapeRule(), "drawshape_bad.go")
	checkRule(t, DrawShapeRule(), "drawshape_ok.go")
}

// TestDrawShapeCatchesWhatOthersMiss proves the seeded drawshape
// violations are invisible to every pre-existing rule: the full registry
// minus the two new rules reports nothing on the bad fixture group.
func TestDrawShapeCatchesWhatOthersMiss(t *testing.T) {
	var rest []*Analyzer
	for _, a := range Registry() {
		if a.Name != "drawshape" && a.Name != "drawparity" {
			rest = append(rest, a)
		}
	}
	diags := RunAnalyzers("", fixtureGroupPkgs(t, "drawshape_bad.go"), rest)
	for _, d := range diags {
		t.Errorf("pre-existing rule %s reports on drawshape_bad.go: %s", d.Rule, d)
	}
}

// TestDrawParityRule pins rule 14 on its fixtures via a config naming
// the fixture pairs: a desynced pair is reported at both members, a
// dangling pair at its surviving member, while equal-shaped and
// Incomplete (recursive) pairs stay silent.
func TestDrawParityRule(t *testing.T) {
	bad := DrawParityWith(DrawParityConfig{Pairs: []DrawPairSpec{
		{A: "pga/internal/pairfix.Cross", B: "pga/internal/pairfix.CrossInto"},
		{A: "pga/internal/pairfix.Spin", B: "pga/internal/pairfix.SpinInto"},
	}})
	checkRule(t, bad, "drawparity_bad.go")

	ok := DrawParityWith(DrawParityConfig{Pairs: []DrawPairSpec{
		{A: "pga/internal/pairfix2.Walk", B: "pga/internal/pairfix2.WalkInto"},
		{A: "pga/internal/pairfix2.Rec", B: "pga/internal/pairfix2.RecInto"},
		// Both members absent: skipped, optimistic.
		{A: "pga/internal/pairfix2.Gone", B: "pga/internal/pairfix2.GoneInto"},
	}})
	checkRule(t, ok, "drawparity_ok.go")
}

// TestDrawPairTestsExist keeps each declared pair's dynamic backing
// live: its Test must name a test function in the package of member A,
// so a rename cannot leave the pair pinned by the static proof alone.
func TestDrawPairTestsExist(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range DefaultDrawParityConfig().Pairs {
		if p.Test == "" {
			t.Errorf("pair %s / %s names no equivalence test", p.A, p.B)
			continue
		}
		// "pga/internal/core.SerialEvaluator.EvaluateAll" → the package
		// path ends at the first dot after the last slash.
		slash := strings.LastIndex(p.A, "/")
		dot := strings.Index(p.A[slash+1:], ".")
		if slash < 0 || dot < 0 {
			t.Errorf("pair %s / %s: cannot derive package from member name", p.A, p.B)
			continue
		}
		dir := filepath.Join(root, strings.TrimPrefix(p.A[:slash+1+dot], "pga/"))
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
			found = found || strings.Contains(string(data), "func "+p.Test+"(")
		}
		if !found {
			t.Errorf("pair %s / %s claims test %s, but no such test function exists in %s",
				p.A, p.B, p.Test, dir)
		}
	}
}

// TestDrawShapesSymbolic pins the symbolic summaries themselves: the
// rendered canonical shapes of the ok-fixture functions, including loop
// multipliers, cond markers and cross-spelling agreement.
func TestDrawShapesSymbolic(t *testing.T) {
	facts := ComputeFacts(fixtureGroupPkgs(t, "drawshape_ok.go"))
	shapes := map[string]string{
		"pga/internal/operators.OkMut.Mutate": "cond·n×Float64 + n×Float64",
		"pga/internal/operators.OkSel.Select": "cond×Intn",
		"pga/internal/operators.CrossInto":    "n×Uint64",
		"pga/internal/fixrng.Source.Intn":     "1×Uint64",
		"pga/internal/fixrng.Source.Float64":  "1×Uint64",
	}
	for name, want := range shapes {
		n := facts.Graph.NodeByName(name)
		if n == nil {
			t.Errorf("node %s not found", name)
			continue
		}
		if got := facts.DrawShape(n).String(); got != want {
			t.Errorf("%s: shape %q, want %q", name, got, want)
		}
	}
}

// TestDrawShapeContentDeps pins where content-dependence is recorded on
// the bad fixture: the cross-package TailSel.Select carries fixgen's
// draw position, and OkMut-style functions carry none.
func TestDrawShapeContentDeps(t *testing.T) {
	facts := ComputeFacts(fixtureGroupPkgs(t, "drawshape_bad.go"))
	deps := map[string]int{
		"pga/internal/operators.BadMut.Mutate":  1,
		"pga/internal/operators.BadSel.Select":  1,
		"pga/internal/operators.CrossInto":      1,
		"pga/internal/operators.TailSel.Select": 1,
		"pga/internal/fixgen.PickTail":          1,
		"pga/internal/fixgen.PickHead":          0,
	}
	for name, want := range deps {
		n := facts.Graph.NodeByName(name)
		if n == nil {
			t.Errorf("node %s not found", name)
			continue
		}
		if got := len(facts.DrawShape(n).ContentDep); got != want {
			t.Errorf("%s: %d content-dependent sites, want %d (shape %s)",
				name, got, want, facts.DrawShape(n))
		}
	}
}

// TestDrawShapeCanonicalization pins the term algebra: merge-by-key,
// zero-coefficient drop, cond collapse, deterministic order, rendering.
func TestDrawShapeCanonicalization(t *testing.T) {
	s := &DrawShape{Terms: []DrawTerm{
		{Coeff: 2, Mult: []string{"n", "cond", "cond"}, Kind: "Intn"},
		{Coeff: 1, Mult: []string{"cond", "n"}, Kind: "Intn"},
		{Coeff: 1, Mult: nil, Kind: "Sample"},
		{Coeff: 3, Mult: []string{"pop"}, Kind: "Float64"},
		{Coeff: -3, Mult: []string{"pop"}, Kind: "Float64"},
	}}
	s.canonicalize()
	want := "3·cond·n×Intn + 1×Sample"
	if got := s.String(); got != want {
		t.Errorf("canonicalized shape %q, want %q", got, want)
	}

	a := &DrawShape{Terms: []DrawTerm{{Coeff: 1, Mult: []string{"n"}, Kind: "Chance"}}}
	b := &DrawShape{Terms: []DrawTerm{{Coeff: 1, Mult: []string{"n"}, Kind: "Chance"}}}
	if !a.EqualTerms(b) {
		t.Error("identical shapes compare unequal")
	}
	b.Terms[0].Coeff = 2
	if a.EqualTerms(b) {
		t.Error("different coefficients compare equal")
	}
	var nilShape *DrawShape
	if got := nilShape.String(); got != "unknown" {
		t.Errorf("nil shape renders %q, want %q", got, "unknown")
	}
	empty := &DrawShape{}
	if got := empty.String(); got != "no draws" {
		t.Errorf("empty shape renders %q, want %q", got, "no draws")
	}
	empty.Incomplete = true
	if got := empty.String(); got != "no draws (incomplete)" {
		t.Errorf("incomplete empty shape renders %q, want %q", got, "no draws (incomplete)")
	}
}
