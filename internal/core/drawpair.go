package core

// DrawPair declares one RNG-draw equivalence pair: two functions the
// engines substitute for each other and that therefore must consume
// identical draw sequences. The static proof is pgalint's drawparity
// rule (shape equality over the symbolic draw summaries); the dynamic
// proof is a pinned golden trace in internal/equiv exercising Op, or the
// dedicated test named by Test. `pgalint -tracecover` audits that every
// declared pair has one of the two dynamic backings.
//
// The pairs are declared in this package's DrawPairs; cmd/pgalint reads
// them and a sync test there keeps them identical to the analysis-side
// DefaultDrawParityConfig, so the linter never has to import product
// packages. Operators and the island seed split declare no pairs: each
// has a single body behind both of its entry points (WireStreams indexes
// the in-process split).
type DrawPair struct {
	// A and B are the qualified function names as the call graph renders
	// them ("pga/internal/core.SerialEvaluator.EvaluateAll").
	A, B string
	// Op is the operator type name golden scenarios list ("KPoint"),
	// empty for non-operator pairs.
	Op string
	// Test names a dedicated equivalence test pinning the pair, when one
	// exists.
	Test string
	// Why documents the substitution site.
	Why string
}

// DrawPairs returns this package's equivalence pairs.
func DrawPairs() []DrawPair {
	return []DrawPair{
		{
			A:    "pga/internal/core.SerialEvaluator.EvaluateAll",
			B:    "pga/internal/core.SerialEvaluator.evaluateBatch",
			Test: "TestSerialEvaluatorBatchMatchesScalar",
			Why:  "SerialEvaluator dispatches to the batched path whenever the problem implements BatchProblem; both paths are draw-free and must stay so",
		},
	}
}
