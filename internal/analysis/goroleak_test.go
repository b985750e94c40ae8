package analysis

import "testing"

func TestGoroLeak(t *testing.T) {
	for _, fixture := range []string{
		"ctxleak_bad.go", // historical ctxleak fixtures, inherited by goroleak
		"ctxleak_ok.go",
		"goroleak_x.go",
	} {
		t.Run(fixture, func(t *testing.T) {
			checkRule(t, GoroLeak(), fixture)
		})
	}
}

// TestGoroLeakCtxLeakParity pins the subsumption contract: every finding
// the retired local-only ctxleak rule reported on its fixtures must
// still be reported by goroleak at the same lines, and ctxleak's clean
// fixture must stay clean. The line numbers are the ones ctxleak's own
// test asserted before its retirement.
func TestGoroLeakCtxLeakParity(t *testing.T) {
	historical := map[string]map[int]bool{
		"ctxleak_bad.go": {9: true, 21: true},
		"ctxleak_ok.go":  {},
	}
	for fixture, lines := range historical {
		got := map[int]bool{}
		for _, d := range runFixture(t, GoroLeak(), fixture) {
			got[d.Line] = true
		}
		for line := range lines {
			if !got[line] {
				t.Errorf("%s:%d: ctxleak reported here; goroleak does not (subsumption broken)", fixture, line)
			}
		}
		for line := range got {
			if !lines[line] {
				t.Errorf("%s:%d: goroleak reports where ctxleak did not", fixture, line)
			}
		}
	}
}
