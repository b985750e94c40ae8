package analysis

// goroleak: every go statement must spawn a provably joinable function.
//
// A goroutine leaks when nothing outside it can ever unblock or observe
// its termination — the classic failure mode of worker pumps that outlive
// their owner. The rule accepts a spawn when the spawned function's
// propagated summary carries joinability evidence: it reaches (directly
// or through any chain of calls) a channel receive or range, a select, a
// WaitGroup.Done, or a close. All of these give the spawner (or the
// runtime structure around it) a handle on termination: transport's
// reader/writer pumps select on their done channel, supervise's heartbeat
// watchdog receives the step outcome, and wg.Done-joined workers are
// reaped by Wait.
//
// This subsumes the retired local-only ctxleak rule: ctxleak checked the
// same evidence but only inside the literal go func body, so a pump that
// delegated its select to a helper was flagged and a leak hidden behind a
// call was missed. goroleak reads the Joins bit off the interprocedural
// summary instead, which propagates over call and ref edges (never spawn
// edges — a child goroutine's select does not make its parent joinable).
//
// Optimism: a go statement whose callee cannot be resolved produces no
// spawn edge, and unresolved callees are given the benefit of the doubt.

// GoroLeak builds the goroleak analyzer.
func GoroLeak() *Analyzer {
	return &Analyzer{
		Name: "goroleak",
		Doc: "requires every spawned goroutine to be provably joinable: its " +
			"interprocedural summary must reach a channel receive, select, " +
			"WaitGroup.Done or close, so something outside the goroutine can " +
			"unblock it or observe its termination (subsumes ctxleak)",
		Run: func(pass *Pass) {
			if pass.Facts == nil || pass.Pkg == nil {
				return
			}
			for _, n := range pass.Facts.Graph.Nodes {
				if n.Pkg == nil || n.Pkg.Types != pass.Pkg {
					continue
				}
				for _, e := range n.Out {
					if e.Kind != EdgeSpawn {
						continue
					}
					s := pass.Facts.Summary(e.Callee)
					if s == nil || s.Joins {
						continue
					}
					pass.Reportf(e.Pos, "goroleak",
						"goroutine %s has no provable termination path "+
							"(no channel receive, select, WaitGroup.Done or close "+
							"reachable from its body); join it via a WaitGroup or "+
							"give it a cancellation channel", e.Callee.Name)
				}
			}
		},
	}
}
