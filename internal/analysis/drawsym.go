package analysis

// Symbolic RNG draw-shape summaries: for every call-graph node, a
// DrawShape describing how many internal/rng draws the function makes as
// a symbolic sum over loop bounds and parameters — `n×Chance + 1×Sample`
// for uniform crossover, `2×#1×Split` for the island seed-split loop —
// computed bottom-up over the same Tarjan SCC condensation the effect
// summaries use. The drawshape and drawparity rules are built on these:
// the first proves the PR 8 draw-compatibility contract (no draw may be
// guarded by genome/population *content*), the second proves declared
// equivalence pairs (the scalar/batch evaluators) consume identical
// shapes.
//
// The abstraction is deliberately coarse and, like the rest of the suite,
// optimistic — a shape that cannot be resolved can only suppress findings,
// never invent them:
//
//   - A *draw site* is a method call on an identifier whose type is an
//     RNG stream (isRNGStream, shared with the effect summaries). The
//     term's kind is the method name with the Into-variants normalized
//     (SampleInto → Sample, PermInto → Perm); argument values are not
//     compared. A draw site is never folded further, so rng.Intn's
//     internal Uint64 rejection loop is not double-counted.
//   - Loops multiply the body's terms by a *bound symbol*: "n" for
//     X.Len() on a genome (or len of a Genes/Perm slice), "pop" for
//     Population lengths, "w" for packed words, "#k"/"len#k" for the
//     unified parameter at index k, a literal coefficient for constant
//     bounds, a struct-field name for config fields, and "?" when the
//     bound cannot be resolved. Additive constants in bounds are dropped
//     (n-1 ≈ n): equivalence pairs mirror each other's loop structure, so
//     the approximation cancels out in comparisons.
//   - Conditional draws gain a "cond" marker. If the condition mentions
//     genome/population content — a Fitness/Evaluated field, indexing
//     into Genes/Perm/Words/Members, a non-Len method on a genome-like
//     type, or a local already tainted by one of those (a per-body
//     fixpoint; taint does not cross calls or flow through parameters) —
//     the draw is additionally recorded as *content-dependent* with its
//     position. Len()/len() are structural, not content.
//   - Calls fold the callee's shape, multiplying by the surrounding
//     context; callee bound symbols are carried through unchanged (no
//     argument substitution). Calls into the same SCC, or bodies too
//     large to summarize, mark the shape Incomplete; rules skip
//     incomplete shapes.
//
// Known holes, accepted as documented approximations: draws inside
// closures invoked through variables, draws via method values, guards
// that merely *continue* past a draw, and content-dependent *trip counts*
// (ERX's adjacency walk) — the last surfaces as a "?" bound, and the
// golden traces in internal/equiv still pin those operators dynamically.

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"
)

// maxDrawTerms bounds a canonical shape's term list; beyond it the shape
// is marked Incomplete rather than silently truncated.
const maxDrawTerms = 64

// maxContentDeps bounds the recorded content-dependent draw positions.
const maxContentDeps = 32

// maxSymbolDepth bounds the single-assignment chain walked when
// resolving a bound expression to a symbol.
const maxSymbolDepth = 4

// DrawTerm is one addend of a draw shape: Coeff × Mult… × Kind draws.
// Mult is a sorted multiset of bound symbols ("n", "pop", "w", "#1",
// "cond", "?", field names); an empty Mult means a straight-line count.
type DrawTerm struct {
	Coeff int
	Mult  []string
	Kind  string
}

// key is the canonical merge identity: kind plus the sorted multiset.
func (t DrawTerm) key() string { return t.Kind + "|" + strings.Join(t.Mult, "·") }

// String renders the term ("n×Chance", "2×Intn", "3·n×Uint64").
func (t DrawTerm) String() string {
	mult := strings.Join(t.Mult, "·")
	switch {
	case mult == "":
		return fmt.Sprintf("%d×%s", t.Coeff, t.Kind)
	case t.Coeff == 1:
		return mult + "×" + t.Kind
	default:
		return fmt.Sprintf("%d·%s×%s", t.Coeff, mult, t.Kind)
	}
}

// DrawShape is the symbolic draw summary of one function body, callees
// folded in.
type DrawShape struct {
	// Terms is the canonical sum, sorted by kind then multiplier.
	Terms []DrawTerm
	// ContentDep lists draw (or draw-carrying call) sites that execute
	// under a condition tainted by genome/population content.
	ContentDep []token.Pos
	// Incomplete marks shapes the engine could not fully resolve
	// (recursion, term blow-up); rules skip them.
	Incomplete bool
}

// String renders the canonical sum ("n×Chance + 1×Sample"), "no draws"
// for an empty shape, with an Incomplete marker when set.
func (s *DrawShape) String() string {
	if s == nil {
		return "unknown"
	}
	var parts []string
	for _, t := range s.Terms {
		parts = append(parts, t.String())
	}
	out := strings.Join(parts, " + ")
	if out == "" {
		out = "no draws"
	}
	if s.Incomplete {
		out += " (incomplete)"
	}
	return out
}

// EqualTerms reports whether two shapes have identical canonical terms
// (content flags and completeness are compared by the rules separately).
func (s *DrawShape) EqualTerms(o *DrawShape) bool {
	if len(s.Terms) != len(o.Terms) {
		return false
	}
	for i, t := range s.Terms {
		u := o.Terms[i]
		if t.Coeff != u.Coeff || t.Kind != u.Kind || len(t.Mult) != len(u.Mult) {
			return false
		}
		for j := range t.Mult {
			if t.Mult[j] != u.Mult[j] {
				return false
			}
		}
	}
	return true
}

// canonicalize sorts the multiplier multisets, merges equal terms, drops
// zero coefficients and orders the sum deterministically.
func (s *DrawShape) canonicalize() {
	merged := make(map[string]*DrawTerm, len(s.Terms))
	var order []string
	for i := range s.Terms {
		t := s.Terms[i]
		t.Mult = normalizeMult(t.Mult)
		k := t.key()
		if m, ok := merged[k]; ok {
			m.Coeff += t.Coeff
			continue
		}
		tc := t
		merged[k] = &tc
		order = append(order, k)
	}
	sort.Strings(order)
	s.Terms = s.Terms[:0]
	for _, k := range order {
		if m := merged[k]; m.Coeff != 0 {
			s.Terms = append(s.Terms, *m)
		}
	}
	if len(s.Terms) > maxDrawTerms {
		s.Terms = s.Terms[:maxDrawTerms]
		s.Incomplete = true
	}
}

// normalizeMult sorts a multiplier multiset and collapses repeated
// "cond" markers (nested conditions are still one condition).
func normalizeMult(mult []string) []string {
	if len(mult) == 0 {
		return nil
	}
	out := append([]string(nil), mult...)
	sort.Strings(out)
	w := 0
	for i, m := range out {
		if m == "cond" && i > 0 && out[i-1] == "cond" {
			continue
		}
		out[w] = m
		w++
	}
	return out[:w]
}

// normalizeDrawKind maps the Into-variants onto their allocating
// counterparts so equivalence pairs compare equal.
func normalizeDrawKind(name string) string {
	switch name {
	case "SampleInto":
		return "Sample"
	case "PermInto":
		return "Perm"
	}
	return name
}

// DrawShape returns the symbolic draw shape for n, computing all shapes
// on first use (lazily: only the drawshape/drawparity rules pay for it).
func (f *Facts) DrawShape(n *Node) *DrawShape {
	if f.drawShapes == nil {
		f.computeDrawShapes()
	}
	return f.drawShapes[n]
}

// computeDrawShapes walks the SCC condensation bottom-up so every
// resolved callee shape is final before its callers fold it in.
func (f *Facts) computeDrawShapes() {
	g := f.Graph
	f.drawShapes = make(map[*Node]*DrawShape, len(g.Nodes))
	sccOf := make(map[*Node]int, len(g.Nodes))
	for i, scc := range g.SCCs() {
		for _, n := range scc {
			sccOf[n] = i
		}
	}
	for _, scc := range g.SCCs() {
		for _, n := range scc {
			f.drawShapes[n] = f.drawShapeOf(n, sccOf)
		}
	}
}

// drawShapeOf computes one node's shape from its body plus the already
// final shapes of out-of-SCC callees.
func (f *Facts) drawShapeOf(n *Node, sccOf map[*Node]int) *DrawShape {
	shape := &DrawShape{}
	body := n.Body()
	info := infoOf(n)
	if body == nil || info == nil {
		return shape
	}
	w := &drawWalker{
		n:      n,
		info:   info,
		sum:    f.Summary(n),
		shapes: f.drawShapes,
		sccOf:  sccOf,
		edges:  make(map[*ast.CallExpr]*Edge),
		shape:  shape,
	}
	for _, e := range n.Out {
		if e.Kind == EdgeCall && e.Site != nil {
			w.edges[e.Site] = e
		}
	}
	w.collectLocals(body)
	w.scanStmt(body, drawCtx{coeff: 1})
	shape.canonicalize()
	return shape
}

// drawCtx is the multiplicative context of the walk: the loop symbols
// and constant coefficient enclosing the current statement, and whether
// a content-tainted condition guards it.
type drawCtx struct {
	mult    []string
	coeff   int
	tainted bool
}

// loop returns the context inside a loop with the given bound.
func (c drawCtx) loop(sym string, coeff int) drawCtx {
	out := c
	if coeff < 0 {
		coeff = 0
	}
	out.coeff *= coeff
	if sym != "" {
		out.mult = append(append([]string(nil), c.mult...), sym)
	}
	return out
}

// branch returns the context inside a conditional branch.
func (c drawCtx) branch(contentTainted bool) drawCtx {
	out := c
	out.mult = append(append([]string(nil), c.mult...), "cond")
	out.tainted = c.tainted || contentTainted
	return out
}

// drawWalker carries the per-body state of one shape computation.
type drawWalker struct {
	n      *Node
	info   *types.Info
	sum    *Summary
	shapes map[*Node]*DrawShape
	sccOf  map[*Node]int
	edges  map[*ast.CallExpr]*Edge

	// assigns maps single-assignment locals to their defining RHS; a nil
	// entry means the local is reassigned (unresolvable).
	assigns map[*types.Var]ast.Expr
	// tainted marks locals whose value derives from genome/population
	// content (per-body fixpoint).
	tainted map[*types.Var]bool

	shape *DrawShape
}

// collectLocals builds the single-assignment map and runs the content
// taint fixpoint over the whole body (closures included, conservatively:
// a closure reassigning an outer local disqualifies it).
func (w *drawWalker) collectLocals(body *ast.BlockStmt) {
	w.assigns = make(map[*types.Var]ast.Expr)
	w.tainted = make(map[*types.Var]bool)
	seen := make(map[*types.Var]bool)
	record := func(id *ast.Ident, rhs ast.Expr) {
		v := w.varOf(id)
		if v == nil {
			return
		}
		if seen[v] {
			w.assigns[v] = nil // reassigned: unresolvable
			return
		}
		seen[v] = true
		w.assigns[v] = rhs
	}
	ast.Inspect(body, func(nd ast.Node) bool {
		switch s := nd.(type) {
		case *ast.AssignStmt:
			aligned := len(s.Lhs) == len(s.Rhs)
			for i, lhs := range s.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				var rhs ast.Expr
				if aligned {
					rhs = s.Rhs[i]
				}
				record(id, rhs)
			}
		case *ast.RangeStmt:
			for _, kv := range []ast.Expr{s.Key, s.Value} {
				if id, ok := kv.(*ast.Ident); ok {
					record(id, nil)
				}
			}
		case *ast.IncDecStmt:
			if id, ok := unparen(s.X).(*ast.Ident); ok {
				record(id, nil)
			}
		}
		return true
	})

	// Content taint fixpoint: a local is tainted when any value assigned
	// to it (or the range operand it iterates) mentions content.
	for changed, rounds := true, 0; changed && rounds < 10; rounds++ {
		changed = false
		mark := func(id *ast.Ident, src ast.Expr) {
			v := w.varOf(id)
			if v == nil || w.tainted[v] || src == nil {
				return
			}
			if w.mentionsContent(src) {
				w.tainted[v] = true
				changed = true
			}
		}
		ast.Inspect(body, func(nd ast.Node) bool {
			switch s := nd.(type) {
			case *ast.AssignStmt:
				aligned := len(s.Lhs) == len(s.Rhs)
				for i, lhs := range s.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok {
						continue
					}
					if aligned {
						mark(id, s.Rhs[i])
						continue
					}
					for _, rhs := range s.Rhs {
						mark(id, rhs)
					}
				}
			case *ast.RangeStmt:
				// Ranging over a content slice yields content elements
				// even though len() of the same slice is structural.
				content := w.mentionsContent(s.X)
				if sel, ok := unparen(s.X).(*ast.SelectorExpr); ok && contentSlices[sel.Sel.Name] {
					content = true
				}
				if content {
					for _, kv := range []ast.Expr{s.Key, s.Value} {
						if id, ok := kv.(*ast.Ident); ok {
							if v := w.varOf(id); v != nil && !w.tainted[v] {
								w.tainted[v] = true
								changed = true
							}
						}
					}
				}
			}
			return true
		})
	}
}

// varOf resolves an identifier to its variable object (definition or
// use), or nil.
func (w *drawWalker) varOf(id *ast.Ident) *types.Var {
	if v, ok := w.info.Defs[id].(*types.Var); ok {
		return v
	}
	if v, ok := w.info.Uses[id].(*types.Var); ok {
		return v
	}
	return nil
}

// contentFields are struct-field names whose read means genome or
// population content (as opposed to structure like N or Words length).
var contentFields = map[string]bool{
	"Fitness":   true,
	"Evaluated": true,
}

// contentSlices are field names whose *elements* are content; indexing
// or ranging over them taints, len() of them does not.
var contentSlices = map[string]bool{
	"Genes":   true,
	"Perm":    true,
	"Words":   true,
	"Members": true,
}

// contentTypes are the genome-like named types whose non-Len methods
// read content.
var contentTypes = map[string]bool{
	"Genome":      true,
	"BitString":   true,
	"RealVector":  true,
	"IntVector":   true,
	"Permutation": true,
	"Population":  true,
	"Individual":  true,
}

// mentionsContent reports whether e reads genome/population content:
// a content field, an element of a content slice, a non-Len method on a
// genome-like type, or a tainted local.
func (w *drawWalker) mentionsContent(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(nd ast.Node) bool {
		if found {
			return false
		}
		switch x := nd.(type) {
		case *ast.Ident:
			if v := w.varOf(x); v != nil && w.tainted[v] {
				found = true
			}
		case *ast.SelectorExpr:
			if contentFields[x.Sel.Name] {
				found = true
			}
		case *ast.IndexExpr:
			if sel, ok := unparen(x.X).(*ast.SelectorExpr); ok && contentSlices[sel.Sel.Name] {
				found = true
			}
		case *ast.CallExpr:
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name != "Len" {
				if t := w.info.TypeOf(sel.X); t != nil && contentTypes[namedTypeName(t)] {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// scanStmt walks one statement under ctx, pushing loop and branch
// contexts. Go statements and closure bodies are skipped: a spawned or
// stored closure draws on its own node's shape, not its parent's.
func (w *drawWalker) scanStmt(stmt ast.Stmt, ctx drawCtx) {
	switch s := stmt.(type) {
	case nil:
		return
	case *ast.BlockStmt:
		for _, st := range s.List {
			w.scanStmt(st, ctx)
		}
	case *ast.ExprStmt:
		w.scanExpr(s.X, ctx)
	case *ast.AssignStmt:
		for _, e := range s.Lhs {
			w.scanExpr(e, ctx)
		}
		for _, e := range s.Rhs {
			w.scanExpr(e, ctx)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						w.scanExpr(e, ctx)
					}
				}
			}
		}
	case *ast.IfStmt:
		// Init and Cond run unconditionally: `if r.Chance(p) {` draws
		// exactly once regardless of the branch taken.
		w.scanStmt(s.Init, ctx)
		w.scanExpr(s.Cond, ctx)
		inner := ctx.branch(w.mentionsContent(s.Cond))
		w.scanStmt(s.Body, inner)
		w.scanStmt(s.Else, inner)
	case *ast.ForStmt:
		w.scanStmt(s.Init, ctx)
		sym, coeff := w.loopBound(s)
		inner := ctx.loop(sym, coeff)
		w.scanExpr(s.Cond, inner)
		w.scanStmt(s.Post, inner)
		w.scanStmt(s.Body, inner)
	case *ast.RangeStmt:
		w.scanExpr(s.X, ctx)
		inner := ctx.loop(w.rangeBound(s.X), 1)
		w.scanStmt(s.Body, inner)
	case *ast.SwitchStmt:
		w.scanStmt(s.Init, ctx)
		w.scanExpr(s.Tag, ctx)
		tainted := s.Tag != nil && w.mentionsContent(s.Tag)
		for _, cc := range s.Body.List {
			clause := cc.(*ast.CaseClause)
			for _, e := range clause.List {
				w.scanExpr(e, ctx)
				tainted = tainted || w.mentionsContent(e)
			}
		}
		inner := ctx.branch(tainted)
		for _, cc := range s.Body.List {
			for _, st := range cc.(*ast.CaseClause).Body {
				w.scanStmt(st, inner)
			}
		}
	case *ast.TypeSwitchStmt:
		// Dispatch on concrete type is structural, not content.
		w.scanStmt(s.Init, ctx)
		inner := ctx.branch(false)
		for _, cc := range s.Body.List {
			for _, st := range cc.(*ast.CaseClause).Body {
				w.scanStmt(st, inner)
			}
		}
	case *ast.SelectStmt:
		for _, cc := range s.Body.List {
			clause := cc.(*ast.CommClause)
			inner := ctx.branch(false)
			w.scanStmt(clause.Comm, inner)
			for _, st := range clause.Body {
				w.scanStmt(st, inner)
			}
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.scanExpr(e, ctx)
		}
	case *ast.SendStmt:
		w.scanExpr(s.Chan, ctx)
		w.scanExpr(s.Value, ctx)
	case *ast.IncDecStmt:
		w.scanExpr(s.X, ctx)
	case *ast.DeferStmt:
		w.scanExpr(s.Call, ctx)
	case *ast.LabeledStmt:
		w.scanStmt(s.Stmt, ctx)
	case *ast.GoStmt:
		// Spawned draws belong to the goroutine's own shape.
	}
}

// scanExpr visits every call inside e (statements cannot nest in
// expressions except through closures, which are pruned).
func (w *drawWalker) scanExpr(e ast.Expr, ctx drawCtx) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(nd ast.Node) bool {
		switch x := nd.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			w.handleCall(x, ctx)
		}
		return true
	})
}

// handleCall records a draw site or folds a resolved callee's shape.
func (w *drawWalker) handleCall(call *ast.CallExpr, ctx drawCtx) {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if id, ok := unparen(sel.X).(*ast.Ident); ok {
			if v, ok := w.info.Uses[id].(*types.Var); ok && isRNGStream(v.Type()) {
				// A draw site terminates folding: rng methods that draw
				// internally (Intn's rejection loop) count once.
				w.addTerm(DrawTerm{
					Coeff: ctx.coeff,
					Mult:  ctx.mult,
					Kind:  normalizeDrawKind(sel.Sel.Name),
				})
				if ctx.tainted {
					w.addContentDep(call.Pos())
				}
				return
			}
		}
	}
	e := w.edges[call]
	if e == nil {
		return // unresolved (interface, func value, out of module): optimistic
	}
	if w.sccOf[e.Callee] == w.sccOf[w.n] {
		w.shape.Incomplete = true
		return
	}
	cs := w.shapes[e.Callee]
	if cs == nil {
		return
	}
	if cs.Incomplete {
		w.shape.Incomplete = true
	}
	for _, t := range cs.Terms {
		w.addTerm(DrawTerm{
			Coeff: ctx.coeff * t.Coeff,
			Mult:  append(append([]string(nil), ctx.mult...), t.Mult...),
			Kind:  t.Kind,
		})
	}
	if ctx.tainted && len(cs.Terms) > 0 {
		w.addContentDep(call.Pos())
	}
	for _, p := range cs.ContentDep {
		w.addContentDep(p)
	}
}

// addTerm appends a raw term (canonicalized at the end of the walk).
func (w *drawWalker) addTerm(t DrawTerm) {
	if t.Coeff == 0 {
		return
	}
	if len(w.shape.Terms) >= 4*maxDrawTerms {
		w.shape.Incomplete = true
		return
	}
	w.shape.Terms = append(w.shape.Terms, t)
}

// addContentDep records a content-dependent draw position, deduplicated.
func (w *drawWalker) addContentDep(pos token.Pos) {
	for _, p := range w.shape.ContentDep {
		if p == pos {
			return
		}
	}
	if len(w.shape.ContentDep) >= maxContentDeps {
		return
	}
	w.shape.ContentDep = append(w.shape.ContentDep, pos)
}

// loopBound resolves a for-loop's trip count to (symbol, coefficient):
// ("n", 1) for `i < n`, ("", 8) for a constant bound, ("?", 1) when the
// loop variable or bound cannot be identified.
func (w *drawWalker) loopBound(fs *ast.ForStmt) (string, int) {
	var loopVar *types.Var
	if as, ok := fs.Init.(*ast.AssignStmt); ok && len(as.Lhs) == 1 {
		if id, ok := as.Lhs[0].(*ast.Ident); ok {
			loopVar = w.varOf(id)
		}
	}
	if loopVar == nil {
		if inc, ok := fs.Post.(*ast.IncDecStmt); ok {
			if id, ok := unparen(inc.X).(*ast.Ident); ok {
				loopVar = w.varOf(id)
			}
		}
	}
	if fs.Cond == nil || loopVar == nil {
		return "?", 1
	}
	be, ok := unparen(fs.Cond).(*ast.BinaryExpr)
	if !ok {
		return "?", 1
	}
	var bound ast.Expr
	if w.isVar(be.X, loopVar) {
		bound = be.Y
	} else if w.isVar(be.Y, loopVar) {
		bound = be.X
	} else {
		return "?", 1
	}
	return w.symbolOf(bound, maxSymbolDepth)
}

// isVar reports whether e is an identifier for v.
func (w *drawWalker) isVar(e ast.Expr, v *types.Var) bool {
	id, ok := unparen(e).(*ast.Ident)
	return ok && w.varOf(id) == v
}

// rangeBound resolves a range operand to a bound symbol.
func (w *drawWalker) rangeBound(x ast.Expr) string {
	return w.rangeBoundDepth(x, maxSymbolDepth)
}

func (w *drawWalker) rangeBoundDepth(x ast.Expr, depth int) string {
	x = unparen(x)
	if depth == 0 {
		return "?"
	}
	// range over an integer (go 1.22): same resolution as a loop bound.
	if t := w.info.TypeOf(x); t != nil {
		if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsInteger != 0 {
			sym, coeff := w.symbolOf(x, depth)
			if sym == "" {
				return strconv.Itoa(coeff)
			}
			return sym
		}
	}
	switch e := x.(type) {
	case *ast.SelectorExpr:
		if s := sliceLenSymbol(e.Sel.Name); s != "" {
			return s
		}
		return "?"
	case *ast.Ident:
		v := w.varOf(e)
		if v == nil {
			return "?"
		}
		if w.sum != nil {
			if i := w.sum.ParamIndex(v); i >= 0 {
				return fmt.Sprintf("len#%d", i)
			}
		}
		if rhs, ok := w.assigns[v]; ok && rhs != nil {
			return w.rangeBoundDepth(rhs, depth-1)
		}
	}
	return "?"
}

// sliceLenSymbol maps well-known content-slice fields to their length
// symbols ("" for unknown fields).
func sliceLenSymbol(field string) string {
	switch field {
	case "Genes", "Perm":
		return "n"
	case "Words":
		return "w"
	case "Members":
		return "pop"
	}
	return ""
}

// symbolOf resolves a bound expression to (symbol, coefficient). An
// empty symbol means a pure constant; "?" means unresolvable. Additive
// constants are dropped; multiplicative constants fold into the
// coefficient.
func (w *drawWalker) symbolOf(e ast.Expr, depth int) (string, int) {
	if depth == 0 {
		return "?", 1
	}
	e = unparen(e)
	switch x := e.(type) {
	case *ast.BasicLit:
		if x.Kind == token.INT {
			if v, err := strconv.Atoi(x.Value); err == nil {
				return "", v
			}
		}
	case *ast.Ident:
		obj := w.info.Uses[x]
		if c, ok := obj.(*types.Const); ok {
			if v, ok := constant.Int64Val(constant.ToInt(c.Val())); ok {
				return "", int(v)
			}
		}
		if v, ok := obj.(*types.Var); ok {
			if w.sum != nil {
				if i := w.sum.ParamIndex(v); i >= 0 {
					return fmt.Sprintf("#%d", i), 1
				}
			}
			if rhs, ok := w.assigns[v]; ok && rhs != nil {
				return w.symbolOf(rhs, depth-1)
			}
		}
	case *ast.SelectorExpr:
		// A struct-field bound keeps its field name as the symbol: t.K
		// iterations render as "K×…"; the genome length field is "n".
		if x.Sel.Name == "N" {
			return "n", 1
		}
		if s := sliceLenSymbol(x.Sel.Name); s != "" {
			// A bare content-slice field as an int bound is unexpected;
			// treat it like its length.
			return s, 1
		}
		return x.Sel.Name, 1
	case *ast.CallExpr:
		if id, ok := unparen(x.Fun).(*ast.Ident); ok && (id.Name == "len" || id.Name == "cap") && len(x.Args) == 1 {
			return w.lenSymbol(x.Args[0], depth-1), 1
		}
		if sel, ok := x.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Len" && len(x.Args) == 0 {
			if t := w.info.TypeOf(sel.X); t != nil && namedTypeName(t) == "Population" {
				return "pop", 1
			}
			return "n", 1
		}
	case *ast.BinaryExpr:
		sx, cx := w.symbolOf(x.X, depth-1)
		sy, cy := w.symbolOf(x.Y, depth-1)
		switch {
		case sx == "" && sy == "":
			switch x.Op {
			case token.ADD:
				return "", cx + cy
			case token.SUB:
				return "", cx - cy
			case token.MUL:
				return "", cx * cy
			}
		case sx == "" && sy != "" && sy != "?":
			if x.Op == token.MUL {
				return sy, cx * cy
			}
			return sy, cy
		case sy == "" && sx != "" && sx != "?":
			if x.Op == token.MUL {
				return sx, cx * cy
			}
			return sx, cx
		}
	}
	return "?", 1
}

// lenSymbol resolves the operand of len()/cap() to a length symbol.
func (w *drawWalker) lenSymbol(e ast.Expr, depth int) string {
	e = unparen(e)
	switch x := e.(type) {
	case *ast.SelectorExpr:
		if s := sliceLenSymbol(x.Sel.Name); s != "" {
			return s
		}
		return "len(" + x.Sel.Name + ")"
	case *ast.Ident:
		v := w.varOf(x)
		if v == nil {
			return "?"
		}
		if w.sum != nil {
			if i := w.sum.ParamIndex(v); i >= 0 {
				return fmt.Sprintf("len#%d", i)
			}
		}
		if depth > 0 {
			if rhs, ok := w.assigns[v]; ok && rhs != nil {
				return w.lenSymbol(rhs, depth-1)
			}
		}
	}
	return "?"
}
