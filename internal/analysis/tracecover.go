package analysis

// Golden-trace coverage audit (pgalint -tracecover): cross-references
// the declared equivalence pairs and the operator registry against the
// pinned golden-trace scenarios in internal/equiv and reports what the
// dynamic proof does not exercise. drawparity proves pairs *statically*;
// this audit answers the complementary question — which pairs and
// operators also have a byte-pinned trajectory (a scenario listing the
// operator, or a dedicated equivalence test) backing the static shapes
// with real draws.
//
// This file is a pure data transform: cmd/pgalint assembles the inputs
// from the product registries (core.DrawPairs,
// operators.RegisteredOperators, equiv.Scenarios), so
// internal/analysis keeps its no-product-imports layering.

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// TracePair is one declared equivalence pair as the runtime registries
// describe it.
type TracePair struct {
	// A and B are the qualified member names (matching DrawPairSpec).
	A string `json:"a"`
	B string `json:"b"`
	// Op is the operator type name exercised by golden scenarios
	// ("KPoint"), empty for non-operator pairs.
	Op string `json:"op,omitempty"`
	// Test names a dedicated equivalence test pinning the pair, empty
	// when coverage must come from a golden scenario.
	Test string `json:"test,omitempty"`
	// Why documents what makes the two members interchangeable.
	Why string `json:"why,omitempty"`
}

// TraceScenario is one pinned golden trace and the operator type names
// it exercises.
type TraceScenario struct {
	Name string   `json:"name"`
	Ops  []string `json:"ops"`
}

// PairCoverage is the audit verdict for one pair.
type PairCoverage struct {
	Pair TracePair `json:"pair"`
	// Scenarios lists the golden scenarios exercising Pair.Op.
	Scenarios []string `json:"scenarios,omitempty"`
	// Covered is true when at least one scenario or a dedicated test
	// backs the pair.
	Covered bool `json:"covered"`
}

// TraceCoverReport is the full audit result.
type TraceCoverReport struct {
	Pairs []PairCoverage `json:"pairs"`
	// UncoveredPairs is the gate: equivalence pairs with neither a
	// golden scenario nor a dedicated test.
	UncoveredPairs []string `json:"uncovered_pairs"`
	// UncoveredOps lists registered operators no golden scenario
	// exercises — informational (not every operator is pair-backed).
	UncoveredOps []string `json:"uncovered_ops"`
	ScenarioN    int      `json:"scenarios"`
	OperatorN    int      `json:"operators"`
}

// Failed reports whether the audit gate fails: every declared
// equivalence pair must have golden coverage.
func (r *TraceCoverReport) Failed() bool { return len(r.UncoveredPairs) > 0 }

// BuildTraceCover computes the audit from the runtime registries.
// operators lists every registered operator type name; scenarios the
// pinned traces with their exercised operator names.
func BuildTraceCover(pairs []TracePair, operators []string, scenarios []TraceScenario) *TraceCoverReport {
	byOp := make(map[string][]string)
	for _, sc := range scenarios {
		for _, op := range sc.Ops {
			byOp[op] = append(byOp[op], sc.Name)
		}
	}
	rep := &TraceCoverReport{ScenarioN: len(scenarios), OperatorN: len(operators)}
	for _, p := range pairs {
		pc := PairCoverage{Pair: p}
		if p.Op != "" {
			pc.Scenarios = append([]string(nil), byOp[p.Op]...)
			sort.Strings(pc.Scenarios)
		}
		pc.Covered = len(pc.Scenarios) > 0 || p.Test != ""
		if !pc.Covered {
			rep.UncoveredPairs = append(rep.UncoveredPairs, p.A+" / "+p.B)
		}
		rep.Pairs = append(rep.Pairs, pc)
	}
	for _, op := range operators {
		if len(byOp[op]) == 0 {
			rep.UncoveredOps = append(rep.UncoveredOps, op)
		}
	}
	sort.Strings(rep.UncoveredPairs)
	sort.Strings(rep.UncoveredOps)
	return rep
}

// Markdown renders the report as the CI artifact table.
func (r *TraceCoverReport) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# pgalint -tracecover\n\n")
	fmt.Fprintf(&b, "%d equivalence pairs, %d registered operators, %d golden scenarios.\n\n",
		len(r.Pairs), r.OperatorN, r.ScenarioN)
	b.WriteString("| pair | coverage |\n|---|---|\n")
	for _, pc := range r.Pairs {
		cov := "**UNCOVERED**"
		switch {
		case len(pc.Scenarios) > 0 && pc.Pair.Test != "":
			cov = fmt.Sprintf("%d scenario(s), test %s", len(pc.Scenarios), pc.Pair.Test)
		case len(pc.Scenarios) > 0:
			cov = fmt.Sprintf("%d scenario(s): %s", len(pc.Scenarios), strings.Join(pc.Scenarios, ", "))
		case pc.Pair.Test != "":
			cov = "test " + pc.Pair.Test
		}
		fmt.Fprintf(&b, "| %s / %s | %s |\n", pc.Pair.A, pc.Pair.B, cov)
	}
	if len(r.UncoveredOps) > 0 {
		fmt.Fprintf(&b, "\nOperators with no golden scenario (informational): %s\n",
			strings.Join(r.UncoveredOps, ", "))
	}
	if r.Failed() {
		fmt.Fprintf(&b, "\nGATE FAILED: %d uncovered pair(s).\n", len(r.UncoveredPairs))
	} else {
		b.WriteString("\nAll equivalence pairs have golden coverage.\n")
	}
	return b.String()
}

// JSON renders the report for machine consumption.
func (r *TraceCoverReport) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}
