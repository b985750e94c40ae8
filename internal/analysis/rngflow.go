package analysis

// rngflow: one goroutine, one stream, proven across call chains.
//
// internal/rng.Source is deliberately not synchronized: the whole point
// of splittable streams is that deme i's stream is private to deme i's
// goroutine, making parallel runs reproducible regardless of scheduling.
// A stream drawn on two goroutines is a data race that `go test -race`
// only catches when the schedules actually collide — and even when it
// doesn't crash, interleaved draws destroy replayability silently. The
// sharing survives any amount of indirection:
//
//	go worker(r)          // named function draws from r on its goroutine
//	helper(r)             // helper spawns a drawer internally
//	for i := ... {
//	    go worker(r)      // one stream, N goroutines
//	}
//
// Using the summary engine, every function knows — transitively, through
// any call chain — which of its RNG streams are drawn on the calling
// goroutine (Draws) and which escape to a spawned goroutine that draws
// (SpawnDraws). A violation is any stream with:
//
//  1. both spawned-goroutine and same-goroutine draw evidence;
//  2. two distinct spawn sites drawing it (two goroutines, one stream);
//  3. a single spawn-draw site inside a loop whose body does not also
//     declare the stream — the static site is one, the dynamic
//     goroutines are many. The sanctioned `ws := r.Split()` inside the
//     loop body stays clean: its stream is declared per iteration.
//  4. a single spawn-draw site and any other reference to the stream in
//     the creating function: an alias (`keep = r`, or `stash(h, r)` then
//     `h.r.Intn(n)`) lets a second goroutine draw what the spawned one
//     owns, through paths the draw facts do not follow. The declaration
//     and the spawning calls themselves do not count, so `child :=
//     r.Split(); go func(){ child... }()` stays clean.
//
// Case 4 also runs without draw evidence, on every stream a `go func`
// literal captures: the local closure-capture rule rngflow absorbed
// (sharedrng). Draw facts never reach a package-level stream (its draws
// are global writes) or a stream the goroutine hands to a function value
// (no call edge), yet either one captured by a goroutine and referenced
// again by the creating function is the same race.
//
// The fix is always the same: Split() a child stream per goroutine and
// move it in, or restructure so each goroutine owns its stream.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// RngFlow builds the rngflow analyzer.
func RngFlow() *Analyzer {
	return &Analyzer{
		Name: "rngflow",
		Doc: "flags an RNG stream drawn from two goroutines through any call chain: " +
			"spawned-goroutine draws combined with same-goroutine draws, multiple " +
			"spawn sites, a spawn-draw in a loop that does not own the stream, or " +
			"another reference to a spawned goroutine's stream in its creating function",
		Run: runRngFlow,
	}
}

func runRngFlow(pass *Pass) {
	if pass.Facts == nil {
		return
	}
	// Package identity, not path: fixture harnesses check several
	// packages under one path, and each pass must own only its nodes.
	var nodes []*Node
	for _, n := range pass.Facts.Graph.Nodes {
		if n.Pkg != nil && pass.Pkg != nil && n.Pkg.Types == pass.Pkg {
			nodes = append(nodes, n)
		}
	}
	// reported holds the streams already flagged, so the capture check
	// adds only what the draw facts missed: one finding per stream.
	reported := map[*types.Var]bool{}
	for _, n := range nodes {
		checkNodeRngFlow(pass, n, reported)
	}
	for _, n := range nodes {
		if n.Decl != nil {
			checkCapturedStreams(pass, n, reported)
		}
	}
}

func checkNodeRngFlow(pass *Pass, n *Node, reported map[*types.Var]bool) {
	s := pass.Facts.Summary(n)
	if s == nil || len(s.SpawnDraws) == 0 {
		return
	}
	// Deterministic variable order: by declaration position.
	vars := make([]*types.Var, 0, len(s.SpawnDraws))
	for v := range s.SpawnDraws {
		vars = append(vars, v)
	}
	sort.Slice(vars, func(i, j int) bool { return vars[i].Pos() < vars[j].Pos() })

	for _, v := range vars {
		spawns := sortedPositions(s.SpawnDraws[v])
		syncs := sortedPositions(s.Draws[v])
		reported[v] = true // cases 1-3 always report; case 4 below may not
		switch {
		case len(syncs) > 0:
			pass.Reportf(spawns[0], "rngflow",
				"rng stream %q is drawn on a goroutine spawned here and also on the "+
					"creating goroutine (%s); draws interleave nondeterministically — "+
					"Split() a child stream for the goroutine",
				v.Name(), pass.Fset.Position(syncs[0]))
		case len(spawns) > 1:
			pass.Reportf(spawns[1], "rngflow",
				"rng stream %q is drawn on a second spawned goroutine (first spawn at %s); "+
					"one stream may feed only one goroutine — Split() a child per spawn",
				v.Name(), pass.Fset.Position(spawns[0]))
		case spawnInForeignLoop(n, v, spawns[0]):
			pass.Reportf(spawns[0], "rngflow",
				"rng stream %q is handed to a goroutine spawned inside a loop but is "+
					"declared outside it: every iteration's goroutine draws from the same "+
					"stream — Split() a child inside the loop body",
				v.Name())
		default:
			reported[v] = reportAlias(pass, n, v, spawns[0])
		}
	}
}

// reportAlias reports case 4 at spawn when n references v outside it,
// and says whether it did.
func reportAlias(pass *Pass, n *Node, v *types.Var, spawn token.Pos) bool {
	ref := aliasOutsideSpawns(pass, n, v, []token.Pos{spawn})
	if ref.IsValid() {
		pass.Reportf(spawn, "rngflow",
			"rng stream %q is handed to a goroutine spawned here and also referenced "+
				"by the creating function (%s); an alias lets another goroutine draw "+
				"it — Split() a child stream for the goroutine",
			v.Name(), pass.Fset.Position(ref))
	}
	return ref.IsValid()
}

// checkCapturedStreams applies case 4 to every stream a `go func`
// literal anywhere in declaration n captures — declared outside the
// literal, package-level streams included — whether or not the draw
// facts saw the goroutine draw it. Each literal is checked on its own
// (a nested literal's capture may be referenced by its enclosing one);
// a stream is reported at most once per declaration.
func checkCapturedStreams(pass *Pass, n *Node, reported map[*types.Var]bool) {
	flagged := map[*types.Var]bool{}
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		g, ok := node.(*ast.GoStmt)
		if !ok {
			return true
		}
		lit, ok := g.Call.Fun.(*ast.FuncLit)
		if !ok {
			return true
		}
		seen := map[*types.Var]bool{}
		ast.Inspect(lit.Body, func(m ast.Node) bool {
			id, ok := m.(*ast.Ident)
			if !ok {
				return true
			}
			v, ok := pass.Info.Uses[id].(*types.Var)
			if !ok || v.IsField() || reported[v] || flagged[v] || seen[v] || !isRNGStream(v.Type()) ||
				(lit.Pos() <= v.Pos() && v.Pos() <= lit.End()) {
				return true
			}
			seen[v] = true
			flagged[v] = reportAlias(pass, n, v, lit.Pos())
			return true
		})
		return true
	})
}

// sortedPositions returns a sorted copy.
func sortedPositions(ps []token.Pos) []token.Pos {
	out := append([]token.Pos(nil), ps...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// spawnInForeignLoop reports whether pos sits inside a for/range statement
// (within n's body) that does not also contain v's declaration — the
// one-static-site-many-goroutines case.
func spawnInForeignLoop(n *Node, v *types.Var, pos token.Pos) bool {
	body := n.Body()
	if body == nil {
		return false
	}
	found := false
	var visit func(ast.Node) bool
	visit = func(node ast.Node) bool {
		if found || node == nil {
			return false
		}
		var loopBody *ast.BlockStmt
		switch x := node.(type) {
		case *ast.ForStmt:
			loopBody = x.Body
		case *ast.RangeStmt:
			loopBody = x.Body
		}
		if loopBody != nil && loopBody.Pos() <= pos && pos <= loopBody.End() {
			if v.Pos() < loopBody.Pos() || v.Pos() > loopBody.End() {
				found = true
				return false
			}
		}
		return true
	}
	ast.Inspect(body, visit)
	return found
}

// aliasOutsideSpawns returns the first reference to v in n's body outside
// the spawning call or closure at each of spawns, or token.NoPos. The
// declaring identifier is a Def, not a Use, so it never counts.
func aliasOutsideSpawns(pass *Pass, n *Node, v *types.Var, spawns []token.Pos) token.Pos {
	body := n.Body()
	if body == nil {
		return token.NoPos
	}
	ref := token.NoPos
	ast.Inspect(body, func(node ast.Node) bool {
		if ref.IsValid() {
			return false
		}
		switch x := node.(type) {
		case *ast.CallExpr, *ast.FuncLit:
			for _, p := range spawns {
				if x.Pos() == p {
					return false // the spawn itself: a go statement or a spawning helper call
				}
			}
		case *ast.Ident:
			if pass.Info.Uses[x] == types.Object(v) {
				ref = x.Pos()
			}
		}
		return true
	})
	return ref
}
