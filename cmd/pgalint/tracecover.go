package main

// -tracecover assembly: this file is the one place the linter binary
// touches product packages. It gathers the runtime equivalence-pair
// registry (core.DrawPairs), the operator registry and the pinned
// golden-trace scenario table, and feeds them to the pure
// analysis.BuildTraceCover transform. A sync test in this package keeps
// the runtime pairs identical to the analysis-side
// DefaultDrawParityConfig, so internal/analysis itself never imports
// product code.

import (
	"pga/internal/analysis"
	"pga/internal/core"
	"pga/internal/equiv"
	"pga/internal/operators"
)

// buildTraceCover runs the golden-trace coverage audit over the runtime
// registries.
func buildTraceCover() *analysis.TraceCoverReport {
	var tps []analysis.TracePair
	for _, p := range core.DrawPairs() {
		tps = append(tps, analysis.TracePair{A: p.A, B: p.B, Op: p.Op, Test: p.Test, Why: p.Why})
	}
	var ops []string
	for _, op := range operators.RegisteredOperators() {
		ops = append(ops, operators.OperatorTypeName(op))
	}
	var scs []analysis.TraceScenario
	for _, sc := range equiv.Scenarios() {
		scs = append(scs, analysis.TraceScenario{Name: sc.Name, Ops: sc.Ops})
	}
	return analysis.BuildTraceCover(tps, ops, scs)
}
