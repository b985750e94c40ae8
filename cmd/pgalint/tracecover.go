package main

// -tracecover assembly: this file is the one place the linter binary
// touches product packages. It gathers the runtime equivalence-pair
// registries (core, island), the operator registry and the pinned
// golden-trace scenario table, and feeds them to the pure
// analysis.BuildTraceCover transform. A sync test in this package keeps
// the runtime pair union identical to the analysis-side
// DefaultDrawParityConfig, so internal/analysis itself never imports
// product code.

import (
	"pga/internal/analysis"
	"pga/internal/core"
	"pga/internal/equiv"
	"pga/internal/island"
	"pga/internal/operators"
)

// allDrawPairs is the union of every package's declared equivalence
// pairs.
func allDrawPairs() []core.DrawPair {
	var pairs []core.DrawPair
	pairs = append(pairs, core.DrawPairs()...)
	pairs = append(pairs, island.DrawPairs()...)
	return pairs
}

// buildTraceCover runs the golden-trace coverage audit over the runtime
// registries.
func buildTraceCover() *analysis.TraceCoverReport {
	var tps []analysis.TracePair
	for _, p := range allDrawPairs() {
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
