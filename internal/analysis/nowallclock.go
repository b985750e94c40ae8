package analysis

// nowallclock: evolution paths must not observe the wall clock.
//
// A time.Now (or timer, or sleep) inside a generation step, a genetic
// operator or a fitness function makes the trajectory depend on machine
// load and scheduling — the numbers stop replaying, and worse, they stop
// meaning anything when used for the speedup methodology of Alba & Luque
// (measuring parallel speedup requires the algorithm itself to be
// schedule-independent). Wall-clock access is legitimate only in run
// orchestration (measuring Elapsed around a run), in stats/experiment
// harness code, and in the supervision layer whose whole purpose is
// timeouts. Those places form an explicit allowlist; everything else is a
// violation.

import (
	"go/ast"
)

// forbiddenClockCalls are the time-package functions that observe or
// depend on real time. time.Duration arithmetic and constants stay legal
// everywhere — types are not clocks.
var forbiddenClockCalls = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTicker": true,
	"NewTimer":  true,
	"Sleep":     true,
}

// NoWallClockConfig configures the nowallclock analyzer.
type NoWallClockConfig struct {
	// Allow lists where wall-clock access is permitted. Entries are
	// either package patterns ("pga/internal/stats", "pga/cmd/...") or
	// package-qualified function names ("pga/internal/ga.Run"), matching
	// the enclosing function or method name regardless of receiver.
	Allow []string
}

// DefaultNoWallClockConfig returns the repository's production policy:
// timing is orchestration-and-observation only.
func DefaultNoWallClockConfig() NoWallClockConfig {
	return NoWallClockConfig{Allow: []string{
		// Command-line drivers and runnable examples time whole runs.
		"pga/cmd/...",
		"pga/examples/...",
		// Experiment harness and statistics report wall-clock results.
		"pga/internal/exp",
		"pga/internal/stats",
		// The supervision layer exists to impose deadlines and backoff.
		// RunStep and Restart are additionally allowlisted by name so the
		// clock taint stops at them: they are the vetted supervision entry
		// points the model steppers call per generation.
		"pga/internal/supervise",
		"pga/internal/supervise.RunStep",
		"pga/internal/supervise.Restart",
		// Run-orchestration entry points: they time Elapsed around the
		// (deterministic) evolution loop, never inside a step. engine.Loop
		// is the shared run-loop driver every runtime delegates to; the
		// async island runner additionally times the goroutine join.
		"pga/internal/engine.Loop",
		"pga/internal/hga.Run",
		"pga/internal/island.runParallelAsync",
		// The wire transport is the one place the repository touches real
		// I/O: dial/write deadlines, reconnect backoff and interruptible
		// sleeps are its job. The determinism contract stops at the wire —
		// everything the transport *carries* stays seeded-stream driven.
		"pga/internal/transport",
	}}
}

// NoWallClock builds the nowallclock analyzer with the default
// configuration.
func NoWallClock() *Analyzer { return NoWallClockWith(DefaultNoWallClockConfig()) }

// NoWallClockWith builds the nowallclock analyzer with cfg (test hook).
func NoWallClockWith(cfg NoWallClockConfig) *Analyzer {
	// Interprocedural part: clock taint computed once per Facts. Taint
	// flows through every module function — including package-allowlisted
	// helpers, which is exactly the laundering gap the summaries close —
	// but stops at functions allowlisted by qualified name: those are the
	// vetted orchestration entry points whose callers stay legitimate.
	var cachedFacts *Facts
	var taint map[*Node]bool
	return &Analyzer{
		Name: "nowallclock",
		Doc: "forbids time.Now/Since/timers/sleeps outside the orchestration-and-stats " +
			"allowlist; wall-clock reads inside generation-step, operator or fitness " +
			"code leak scheduling nondeterminism into the evolution trajectory — " +
			"including reads reached only through helper calls",
		Run: func(pass *Pass) {
			if allowedEverywhere(cfg.Allow, pass.PkgPath) {
				return
			}
			if pass.Facts != nil {
				if pass.Facts != cachedFacts {
					cachedFacts = pass.Facts
					sanctioned := func(n *Node) bool {
						return n.Decl != nil && n.Pkg != nil &&
							allowedFunc(cfg.Allow, n.Pkg.Path, n.Decl.Name.Name)
					}
					taint = pass.Facts.Taint(
						func(n *Node) bool { return pass.Facts.Direct(n).ReadsClock },
						sanctioned,
						map[EdgeKind]bool{EdgeCall: true, EdgeSpawn: true, EdgeRef: true},
					)
				}
				reportClockChains(pass, cfg, taint)
			}
			for _, file := range pass.Files {
				ast.Inspect(file, func(n ast.Node) bool {
					sel, ok := n.(*ast.SelectorExpr)
					if !ok || !forbiddenClockCalls[sel.Sel.Name] {
						return true
					}
					id, ok := sel.X.(*ast.Ident)
					if !ok {
						return true
					}
					pkg := usedPackage(pass.Info, id)
					if pkg == nil || pkg.Path() != "time" {
						return true
					}
					if fd := enclosingFunc(file, sel.Pos()); fd != nil &&
						allowedFunc(cfg.Allow, pass.PkgPath, fd.Name.Name) {
						return true
					}
					pass.Reportf(sel.Pos(), "nowallclock",
						"time.%s leaks wall-clock nondeterminism into an evolution path; "+
							"timing belongs in run orchestration or stats (see the nowallclock allowlist)",
						sel.Sel.Name)
					return true
				})
			}
		},
	}
}

// reportClockChains flags calls from unallowlisted functions into module
// functions whose call chains reach the wall clock. Direct time.* uses
// are handled by the local scan; this closes the helper-laundering gap
// (ga.Step → stats helper → time.Now).
func reportClockChains(pass *Pass, cfg NoWallClockConfig, taint map[*Node]bool) {
	for _, n := range pass.Facts.Graph.Nodes {
		if n.Pkg == nil || pass.Pkg == nil || n.Pkg.Types != pass.Pkg {
			continue
		}
		if fd := rootDecl(pass, n); fd != nil &&
			allowedFunc(cfg.Allow, pass.PkgPath, fd.Name.Name) {
			continue
		}
		for _, e := range n.Out {
			if taint[e.Callee] {
				pass.Reportf(e.Pos, "nowallclock",
					"call into %s, whose call chain observes the wall clock; evolution "+
						"paths must be schedule-independent (vetted orchestration entry "+
						"points belong on the nowallclock allowlist)", e.Callee.Name)
			}
		}
	}
}

// rootDecl returns the FuncDecl lexically enclosing a node (itself for
// declarations, the enclosing declaration for closures), or nil.
func rootDecl(pass *Pass, n *Node) *ast.FuncDecl {
	if n.Decl != nil {
		return n.Decl
	}
	for _, f := range pass.Files {
		if f.FileStart <= n.Pos() && n.Pos() <= f.FileEnd {
			return enclosingFunc(f, n.Pos())
		}
	}
	return nil
}

// allowedEverywhere reports whether a whole package is allowlisted.
func allowedEverywhere(allow []string, pkgPath string) bool {
	for _, entry := range allow {
		if !hasFuncQualifier(entry) && pathMatch(entry, pkgPath) {
			return true
		}
	}
	return false
}

// allowedFunc reports whether pkgPath.fn is allowlisted by a
// function-qualified entry.
func allowedFunc(allow []string, pkgPath, fn string) bool {
	for _, entry := range allow {
		if entry == pkgPath+"."+fn {
			return true
		}
	}
	return false
}

// hasFuncQualifier reports whether entry names a function rather than a
// package: a dot after the final slash.
func hasFuncQualifier(entry string) bool {
	last := entry
	if i := lastSlash(entry); i >= 0 {
		last = entry[i+1:]
	}
	for i := 0; i < len(last); i++ {
		if last[i] == '.' {
			// "..." wildcard is a path element, not a qualifier.
			return last[i:] != "..."
		}
	}
	return false
}

// lastSlash returns the index of the final '/' in s, or -1.
func lastSlash(s string) int {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == '/' {
			return i
		}
	}
	return -1
}
