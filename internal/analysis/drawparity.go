package analysis

// Rule 14, drawparity: declared equivalence pairs must have identical
// symbolic draw shapes. The repo substitutes one member of a pair for
// the other (the scalar vs batched evaluator path), and the substitution
// is sound only when both members consume the same RNG draw sequence.
// The dynamic proof is the dedicated equivalence test each pair names
// (TestDrawPairTestsExist keeps the name live); the static proof is
// shape equality, which catches a desync at review time instead of at
// golden-regeneration time. Operators need no pairs: each crossover and
// rank-based selector has a single body (CrossInto, SelectScratch) that
// its allocating entry point wraps. Nor do the island seed splits:
// WireStreams indexes newDemeStreams' split.
//
// Mismatches are reported at both members, in whichever package's pass
// owns each. Incomplete shapes (recursion, unresolved bodies) and
// missing nodes skip silently — optimistic like every other rule —
// except that a pair with exactly one member present is reported: it
// means a rename or deletion left a dangling declaration.

// DrawPairSpec declares one equivalence pair by its members' qualified
// node names.
type DrawPairSpec struct {
	A, B string
	// Test names the dedicated equivalence test, in A's package, that
	// pins the pair dynamically.
	Test string
}

// DrawParityConfig parameterizes drawparity.
type DrawParityConfig struct {
	Pairs []DrawPairSpec
}

// DefaultDrawParityConfig is the repo's registry of equivalence pairs.
func DefaultDrawParityConfig() DrawParityConfig {
	return DrawParityConfig{Pairs: []DrawPairSpec{
		// SerialEvaluator dispatches to the batched path whenever the
		// problem implements BatchProblem; both paths are draw-free and
		// must stay so.
		{
			A:    "pga/internal/core.SerialEvaluator.EvaluateAll",
			B:    "pga/internal/core.SerialEvaluator.evaluateBatch",
			Test: "TestSerialEvaluatorBatchMatchesScalar",
		},
	}}
}

// DrawParityRule returns the drawparity analyzer with the default pairs.
func DrawParityRule() *Analyzer { return DrawParityWith(DefaultDrawParityConfig()) }

// DrawParityWith returns a drawparity analyzer for cfg.
func DrawParityWith(cfg DrawParityConfig) *Analyzer {
	return &Analyzer{
		Name: "drawparity",
		Doc: "requires declared equivalence pairs (scalar/batch evaluation) " +
			"to consume identical symbolic RNG draw shapes",
		Run: func(pass *Pass) {
			if pass.Facts == nil {
				return
			}
			g := pass.Facts.Graph
			for _, p := range cfg.Pairs {
				na, nb := g.NodeByName(p.A), g.NodeByName(p.B)
				if na == nil && nb == nil {
					continue // pair not in the analyzed set: optimistic
				}
				if na == nil || nb == nil {
					present, missing := na, p.B
					if na == nil {
						present, missing = nb, p.A
					}
					if ownsNode(pass, present) {
						pass.Reportf(present.Decl.Name.Pos(), "drawparity",
							"equivalence pair member %s not found (declared partner of %s): renamed or deleted without updating the pair registry",
							missing, present.Name)
					}
					continue
				}
				sa, sb := pass.Facts.DrawShape(na), pass.Facts.DrawShape(nb)
				if sa == nil || sb == nil || sa.Incomplete || sb.Incomplete {
					continue
				}
				if sa.EqualTerms(sb) {
					continue
				}
				for _, m := range []struct {
					n     *Node
					mine  *DrawShape
					other *Node
					their *DrawShape
				}{{na, sa, nb, sb}, {nb, sb, na, sa}} {
					if ownsNode(pass, m.n) {
						pass.Reportf(m.n.Decl.Name.Pos(), "drawparity",
							"draw shape %s diverges from equivalence partner %s (shape %s): the pair no longer consumes identical RNG draw sequences",
							m.mine, m.other.Name, m.their)
					}
				}
			}
		},
	}
}

// ownsNode reports whether this pass's package owns n, so each member of
// a cross-package pair is reported exactly once, in its own package.
func ownsNode(pass *Pass, n *Node) bool {
	return n.Pkg != nil && n.Pkg.Types == pass.Pkg && n.Decl != nil
}
