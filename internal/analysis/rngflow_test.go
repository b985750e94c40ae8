package analysis

import "testing"

// The sharedrng_* fixtures are inherited from the retired local-only
// sharedrng rule, as the ctxleak_* fixtures are for goroleak: their
// `// want rngflow` markers pin that every function sharedrng flagged is
// still flagged, including the alias, package-level and function-value
// cases only sharedrng caught.
func TestRngFlowBad(t *testing.T) {
	checkRule(t, RngFlow(), "rngflow_bad.go")
	checkRule(t, RngFlow(), "sharedrng_bad.go")
}

func TestRngFlowOk(t *testing.T) {
	checkRule(t, RngFlow(), "rngflow_ok.go")
	checkRule(t, RngFlow(), "sharedrng_ok.go")
}
