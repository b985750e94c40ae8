package analysis

// Per-function effect summaries, computed bottom-up over the SCC
// condensation of the call graph. A summary answers, for one function
// body, the questions the interprocedural rules need without re-walking
// callees:
//
//   - effect bits: does running this function (or anything it reaches)
//     observe the wall clock, touch math/rand / crypto/rand, allocate on
//     the Clone/growing-append patterns, or write package-level state?
//   - parameter facts (unified indexing: receiver is index 0 when
//     present, then the declared parameters): which parameters' referents
//     may be mutated; which parameters are *rng.Source-like streams that
//     are drawn from on the calling goroutine (DrawsParam) or handed to a
//     spawned goroutine that draws (SpawnDrawsParam)?
//   - draw evidence with positions for vars in the body's own scope
//     (Draws / SpawnDraws) and flow-through facts for captured outer vars
//     (CapturedDraws / CapturedSpawnDraws / CapturedMutates)?
//   - channel endpoints: which channels the function may block sending on
//     (classified exactly like blockingsend: a send is non-blocking only
//     under a select with a default or escape case) and which it may
//     receive from. A channel is identified by the parameter carrying it,
//     or by the variable/struct-field object — the field-level
//     abstraction chantopo builds its topology on.
//   - concurrency facts: is the function joinable (Joins: it reaches a
//     channel receive, select, wg.Done or close — evidence a spawner can
//     unblock it), which mutexes it may acquire (Acquires, for lockorder's
//     interprocedural held-set product), which WaitGroups it Adds to
//     (WGAdds, for waitgroup's spawned-Add check), and which slices it
//     grows via append (Grows, for boundedres). These reuse the ChanFact
//     identity abstraction: a parameter index, or the var/field object.
//
// Direct facts cover the body excluding nested closures (each closure is
// its own node); propagation folds callee facts in along call-graph
// edges, substituting arguments for parameters at call sites. Spawn edges
// move draw facts into the Spawn* buckets and do not carry channel facts
// upward (a spawned goroutine's blocking send does not block its
// spawner); chantopo instantiates spawned bodies itself.
//
// Everything here is monotone boolean/bitset state over a finite graph,
// so iterating each SCC to fixpoint terminates.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// maxTrackedParams bounds the parameter bitsets.
const maxTrackedParams = 64

// maxChanFacts bounds the channel-endpoint lists per summary.
const maxChanFacts = 64

// maxDrawSites bounds the recorded draw positions per variable.
const maxDrawSites = 16

// maxLockEdges bounds the same-body lock-order edges recorded per node.
const maxLockEdges = 64

// ChanFact is one channel endpoint a function may use.
type ChanFact struct {
	// Param is the unified parameter index carrying the channel, or -1.
	Param int
	// Obj identifies the channel when Param < 0: a local, package-level
	// or struct-field variable. Struct fields abstract over instances.
	Obj types.Object
	// Pos is the send (or receive) site, surviving propagation so
	// chantopo reports at the real statement.
	Pos token.Pos
}

// Summary holds the facts for one call-graph node.
type Summary struct {
	node   *Node
	params []*types.Var // unified receiver+params; nil entries for unnamed

	// Effect bits (after propagation: closed over everything reachable).
	ReadsClock   bool
	RawRand      bool
	Allocates    bool
	WritesGlobal bool

	// Parameter bitsets (unified indexing, capped at maxTrackedParams).
	MutatesParam    uint64
	DrawsParam      uint64
	SpawnDrawsParam uint64

	// Draw evidence for vars in this body's scope (params and locals).
	Draws      map[*types.Var][]token.Pos
	SpawnDraws map[*types.Var][]token.Pos

	// Flow-through facts about vars declared outside this body.
	CapturedDraws      map[*types.Var]bool
	CapturedSpawnDraws map[*types.Var]bool
	CapturedMutates    map[*types.Var]bool

	// Channel endpoints. Sends holds only may-block sends.
	Sends []ChanFact
	Recvs []ChanFact

	// Joins reports that the function reaches a blocking operation a
	// spawner can unblock from outside: a channel receive or range, a
	// select, a WaitGroup.Done, or a close. Propagated over call and ref
	// edges only — a goroutine's joinability cannot come from something
	// it merely spawns.
	Joins bool

	// Acquires lists the mutexes this function (or anything it calls) may
	// lock; lockorder crosses these with the caller's held set.
	Acquires []ChanFact

	// WGAdds lists WaitGroup counters this function (or its callees) may
	// Add to; waitgroup flags these when reached through a spawn edge.
	WGAdds []ChanFact

	// Grows lists slices grown by append without a reserving make;
	// boundedres flags field/global growth in hot packages.
	Grows []ChanFact

	// Direct-only facts (never propagated; shared across clone — the rules
	// read them via Facts.Direct):
	lockEvents []lockEvent                      // ordered acquire/release/return/panic trace
	lockEdges  []lockEdge                       // same-body nested acquisitions
	heldAtCall map[*ast.CallExpr][]types.Object // locks lexically held at each call site
	wgWaits    []ChanFact                       // WaitGroup.Wait sites
}

// lockEventKind enumerates the events of the lexical lock walk.
type lockEventKind int

const (
	evAcquire lockEventKind = iota
	evRelease
	evDeferRelease
	evReturn
	evPanic
)

// lockEvent is one entry in a body's ordered lock trace.
type lockEvent struct {
	kind lockEventKind
	obj  types.Object // lock identity for acquire/release; nil otherwise
	read bool         // RLock/RUnlock
	pos  token.Pos
}

// lockEdge records that to was acquired while from was held, at pos (the
// inner acquisition site).
type lockEdge struct {
	from, to types.Object
	pos      token.Pos
}

// ParamIndex returns v's unified parameter index in this summary, or -1.
func (s *Summary) ParamIndex(v *types.Var) int {
	for i, p := range s.params {
		if p != nil && p == v {
			return i
		}
	}
	return -1
}

// ParamVar returns the variable at unified index i, or nil.
func (s *Summary) ParamVar(i int) *types.Var {
	if i < 0 || i >= len(s.params) {
		return nil
	}
	return s.params[i]
}

// Facts bundles the call graph and summaries; one Facts value is computed
// per RunAnalyzers call and shared by every pass.
type Facts struct {
	// Graph is the module-wide call graph over the analyzed packages.
	Graph *Graph

	direct    map[*Node]*Summary
	summaries map[*Node]*Summary

	// drawShapes holds the symbolic RNG draw shapes (drawsym.go),
	// computed lazily on the first Facts.DrawShape call.
	drawShapes map[*Node]*DrawShape
}

// ComputeFacts builds the call graph and summaries for pkgs.
func ComputeFacts(pkgs []*Package) *Facts {
	g := BuildGraph(pkgs)
	f := &Facts{
		Graph:     g,
		direct:    make(map[*Node]*Summary, len(g.Nodes)),
		summaries: make(map[*Node]*Summary, len(g.Nodes)),
	}
	for _, n := range g.Nodes {
		f.direct[n] = computeDirect(n)
	}
	for _, n := range g.Nodes {
		f.summaries[n] = f.direct[n].clone()
	}
	// Bottom-up over the SCC condensation; loop each component to
	// fixpoint so mutual recursion converges.
	for _, scc := range g.SCCs() {
		for changed := true; changed; {
			changed = false
			for _, n := range scc {
				for _, e := range n.Out {
					if f.mergeEdge(f.summaries[n], f.summaries[e.Callee], e) {
						changed = true
					}
				}
			}
		}
	}
	return f
}

// Summary returns the propagated summary for n (nil-safe: nil for
// unknown nodes).
func (f *Facts) Summary(n *Node) *Summary { return f.summaries[n] }

// Direct returns the body-local (pre-propagation) summary for n.
func (f *Facts) Direct(n *Node) *Summary { return f.direct[n] }

// Taint computes a generic bottom-up reachability closure: a node is
// tainted when stop(n) is false and either seed(n) holds or some edge of
// an included kind leads to a tainted callee. The policy-aware retrofits
// (nowallclock, norawrand, hiddenalloc) each parameterize this with
// their own seeds and sanctioned-function stops.
func (f *Facts) Taint(seed, stop func(*Node) bool, kinds map[EdgeKind]bool) map[*Node]bool {
	taint := make(map[*Node]bool, len(f.Graph.Nodes))
	for _, scc := range f.Graph.SCCs() {
		for changed := true; changed; {
			changed = false
			for _, n := range scc {
				if taint[n] || stop(n) {
					continue
				}
				t := seed(n)
				if !t {
					for _, e := range n.Out {
						if kinds[e.Kind] && taint[e.Callee] {
							t = true
							break
						}
					}
				}
				if t {
					taint[n] = true
					changed = true
				}
			}
		}
	}
	return taint
}

// clone deep-copies a summary for use as the propagation seed.
func (s *Summary) clone() *Summary {
	c := *s
	c.Draws = clonePosMap(s.Draws)
	c.SpawnDraws = clonePosMap(s.SpawnDraws)
	c.CapturedDraws = cloneVarSet(s.CapturedDraws)
	c.CapturedSpawnDraws = cloneVarSet(s.CapturedSpawnDraws)
	c.CapturedMutates = cloneVarSet(s.CapturedMutates)
	c.Sends = append([]ChanFact(nil), s.Sends...)
	c.Recvs = append([]ChanFact(nil), s.Recvs...)
	c.Acquires = append([]ChanFact(nil), s.Acquires...)
	c.WGAdds = append([]ChanFact(nil), s.WGAdds...)
	c.Grows = append([]ChanFact(nil), s.Grows...)
	return &c
}

func clonePosMap(m map[*types.Var][]token.Pos) map[*types.Var][]token.Pos {
	out := make(map[*types.Var][]token.Pos, len(m))
	for k, v := range m {
		out[k] = append([]token.Pos(nil), v...)
	}
	return out
}

func cloneVarSet(m map[*types.Var]bool) map[*types.Var]bool {
	out := make(map[*types.Var]bool, len(m))
	for k := range m {
		out[k] = true
	}
	return out
}

// varClass classifies a variable relative to a node's body.
type varClass int

const (
	classParam varClass = iota
	classLocal
	classOuter
	classGlobal
)

// classOf classifies v relative to s's node: one of its unified params, a
// package-level var, a local of the body (nested closures' locals cannot
// lexically appear in facts that reach s), or an outer captured var.
func (s *Summary) classOf(v *types.Var) (int, varClass) {
	if i := s.ParamIndex(v); i >= 0 {
		return i, classParam
	}
	if isGlobalVar(v) {
		return -1, classGlobal
	}
	if v.Pos() >= s.node.Pos() && v.Pos() <= s.node.End() {
		return -1, classLocal
	}
	return -1, classOuter
}

// isGlobalVar reports whether v is declared at package scope.
func isGlobalVar(v *types.Var) bool {
	return !v.IsField() && v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// isRNGStream reports whether t is a pointer to an unsynchronized random
// stream: internal/rng's Source or math/rand's Rand (either version).
func isRNGStream(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	switch {
	case obj.Name() == "Source" && obj.Pkg().Name() == "rng":
		return true
	case obj.Name() == "Rand" && obj.Pkg().Name() == "rand":
		return true
	}
	return false
}

// addDrawPos records a draw site, deduplicated and bounded.
func addDrawPos(m *map[*types.Var][]token.Pos, v *types.Var, pos token.Pos) bool {
	if *m == nil {
		*m = map[*types.Var][]token.Pos{}
	}
	sites := (*m)[v]
	if len(sites) >= maxDrawSites {
		return false
	}
	for _, p := range sites {
		if p == pos {
			return false
		}
	}
	(*m)[v] = append(sites, pos)
	return true
}

// addVar records a var in a captured-fact set.
func addVar(m *map[*types.Var]bool, v *types.Var) bool {
	if *m == nil {
		*m = map[*types.Var]bool{}
	}
	if (*m)[v] {
		return false
	}
	(*m)[v] = true
	return true
}

// addChanFact appends a channel fact, deduplicated by endpoint identity
// and bounded.
func addChanFact(list *[]ChanFact, cf ChanFact) bool {
	if cf.Param < 0 && cf.Obj == nil {
		return false
	}
	if len(*list) >= maxChanFacts {
		return false
	}
	for _, have := range *list {
		if have.Param == cf.Param && have.Obj == cf.Obj && have.Pos == cf.Pos {
			return false
		}
	}
	*list = append(*list, cf)
	return true
}

// setBit sets bit i (when trackable) and reports change.
func setBit(mask *uint64, i int) bool {
	if i < 0 || i >= maxTrackedParams {
		return false
	}
	bit := uint64(1) << uint(i)
	if *mask&bit != 0 {
		return false
	}
	*mask |= bit
	return true
}

// drawFlavor distinguishes same-goroutine draws from spawned-goroutine
// draws during propagation.
type drawFlavor int

const (
	drawSync drawFlavor = iota
	drawSpawn
)

// recordDraw files draw evidence for v relative to dst. Draw facts track
// stream variables only: when substitution roots a callee's draw at a
// non-stream variable (a struct whose *field* holds the stream), the
// draw is recorded as a mutation of that variable instead — drawing a
// struct-held stream mutates the struct, but does not make the struct a
// stream shared across goroutines.
func recordDraw(dst *Summary, v *types.Var, pos token.Pos, flavor drawFlavor) bool {
	if !isRNGStream(v.Type()) {
		return recordMutation(dst, v, pos, flavor)
	}
	idx, class := dst.classOf(v)
	switch class {
	case classParam:
		changed := false
		if flavor == drawSpawn {
			changed = setBit(&dst.SpawnDrawsParam, idx)
			if addDrawPos(&dst.SpawnDraws, v, pos) {
				changed = true
			}
		} else {
			changed = setBit(&dst.DrawsParam, idx)
			if addDrawPos(&dst.Draws, v, pos) {
				changed = true
			}
		}
		return changed
	case classLocal:
		if flavor == drawSpawn {
			return addDrawPos(&dst.SpawnDraws, v, pos)
		}
		return addDrawPos(&dst.Draws, v, pos)
	case classOuter:
		if flavor == drawSpawn {
			return addVar(&dst.CapturedSpawnDraws, v)
		}
		return addVar(&dst.CapturedDraws, v)
	default: // classGlobal: drawing a package-level stream mutates it
		if !dst.WritesGlobal {
			dst.WritesGlobal = true
			return true
		}
		return false
	}
}

// recordMutation files mutation evidence for v relative to dst. Writes
// through an RNG-stream variable are reclassified as draws: rng.Source
// methods mutate their receiver by design, and the rules account for
// stream state under the draw facts, not the mutation facts.
func recordMutation(dst *Summary, v *types.Var, pos token.Pos, flavor drawFlavor) bool {
	if isRNGStream(v.Type()) {
		return recordDraw(dst, v, pos, flavor)
	}
	idx, class := dst.classOf(v)
	switch class {
	case classParam:
		return setBit(&dst.MutatesParam, idx)
	case classGlobal:
		if !dst.WritesGlobal {
			dst.WritesGlobal = true
			return true
		}
		return false
	case classOuter:
		return addVar(&dst.CapturedMutates, v)
	default:
		return false // caller-local mutation is invisible outside
	}
}

// mergeEdge folds src (the callee summary) into dst (the caller summary)
// along edge e, substituting call-site arguments for parameters. Returns
// whether dst changed.
func (f *Facts) mergeEdge(dst, src *Summary, e *Edge) bool {
	changed := false
	or := func(p *bool, v bool) {
		if v && !*p {
			*p = true
			changed = true
		}
	}
	// Effect bits flow through every edge kind: whenever and wherever the
	// callee runs, its effects happen on behalf of this function.
	or(&dst.ReadsClock, src.ReadsClock)
	or(&dst.RawRand, src.RawRand)
	or(&dst.Allocates, src.Allocates)
	or(&dst.WritesGlobal, src.WritesGlobal)

	spawn := e.Kind == EdgeSpawn
	flavorOf := func(base drawFlavor) drawFlavor {
		if spawn {
			return drawSpawn
		}
		return base
	}

	// Captured facts: the callee (a closure, or a chain ending in one)
	// touches vars declared outside itself; reclassify them against dst.
	for v := range src.CapturedDraws {
		if recordDraw(dst, v, e.Pos, flavorOf(drawSync)) {
			changed = true
		}
	}
	for v := range src.CapturedSpawnDraws {
		if recordDraw(dst, v, e.Pos, drawSpawn) {
			changed = true
		}
	}
	for v := range src.CapturedMutates {
		if recordMutation(dst, v, e.Pos, flavorOf(drawSync)) {
			changed = true
		}
	}

	// Parameter-indexed facts need a call site to bind arguments.
	if e.Site != nil {
		info := e.Caller.Pkg.Info
		for i := range src.params {
			bit := uint64(1) << uint(i)
			var arg ast.Expr
			resolved := false
			resolve := func() *types.Var {
				if !resolved {
					arg = calleeArg(e, src, i)
					resolved = true
				}
				if arg == nil {
					return nil
				}
				return rootVarOf(info, arg)
			}
			if src.MutatesParam&bit != 0 {
				if v := resolve(); v != nil && recordMutation(dst, v, e.Pos, flavorOf(drawSync)) {
					changed = true
				}
			}
			if src.DrawsParam&bit != 0 {
				if v := resolve(); v != nil && recordDraw(dst, v, e.Pos, flavorOf(drawSync)) {
					changed = true
				}
			}
			if src.SpawnDrawsParam&bit != 0 {
				if v := resolve(); v != nil && recordDraw(dst, v, e.Pos, drawSpawn) {
					changed = true
				}
			}
		}
	}

	// Channel facts do not cross spawn edges: a spawned goroutine's
	// blocking send cannot block its spawner. chantopo instantiates
	// spawned bodies at the go statement itself. The same holds for the
	// concurrency facts: a spawned goroutine's locks, Adds and appends
	// happen on its own stack, and joinability is never inherited from a
	// child goroutine.
	if !spawn {
		or(&dst.Joins, src.Joins)
		for _, cf := range src.Sends {
			if out, ok := f.substituteChan(dst, src, e, cf); ok && addChanFact(&dst.Sends, out) {
				changed = true
			}
		}
		for _, cf := range src.Recvs {
			if out, ok := f.substituteChan(dst, src, e, cf); ok && addChanFact(&dst.Recvs, out) {
				changed = true
			}
		}
		for _, cf := range src.Acquires {
			if out, ok := f.substituteRef(dst, src, e, cf); ok && addChanFact(&dst.Acquires, out) {
				changed = true
			}
		}
		for _, cf := range src.WGAdds {
			if out, ok := f.substituteRef(dst, src, e, cf); ok && addChanFact(&dst.WGAdds, out) {
				changed = true
			}
		}
		for _, cf := range src.Grows {
			if out, ok := f.substituteRef(dst, src, e, cf); ok && addChanFact(&dst.Grows, out) {
				changed = true
			}
		}
	}
	return changed
}

// substituteChan rebinds a callee channel fact into the caller's frame.
func (f *Facts) substituteChan(dst, src *Summary, e *Edge, cf ChanFact) (ChanFact, bool) {
	if cf.Param < 0 {
		return cf, true // concrete identity survives as-is
	}
	if e.Site == nil {
		return ChanFact{}, false // unbound parameter through a ref edge
	}
	arg := calleeArg(e, src, cf.Param)
	if arg == nil {
		return ChanFact{}, false
	}
	obj := chanIdentOf(e.Caller.Pkg.Info, arg)
	if obj == nil {
		return ChanFact{}, false
	}
	if v, ok := obj.(*types.Var); ok {
		if i := dst.ParamIndex(v); i >= 0 {
			return ChanFact{Param: i, Pos: cf.Pos}, true
		}
	}
	return ChanFact{Param: -1, Obj: obj, Pos: cf.Pos}, true
}

// substituteRef rebinds a lock/WaitGroup/slice fact into the caller's
// frame. Unlike channels these are usually passed by address (&s.mu,
// &b.items), so the argument is unwrapped through &, * and parens before
// resolving its identity.
func (f *Facts) substituteRef(dst, src *Summary, e *Edge, cf ChanFact) (ChanFact, bool) {
	if cf.Param < 0 {
		return cf, true // concrete identity survives as-is
	}
	if e.Site == nil {
		return ChanFact{}, false // unbound parameter through a ref edge
	}
	arg := calleeArg(e, src, cf.Param)
	if arg == nil {
		return ChanFact{}, false
	}
	obj := refIdentOf(e.Caller.Pkg.Info, arg)
	if obj == nil {
		return ChanFact{}, false
	}
	if v, ok := obj.(*types.Var); ok {
		if i := dst.ParamIndex(v); i >= 0 {
			return ChanFact{Param: i, Pos: cf.Pos}, true
		}
	}
	return ChanFact{Param: -1, Obj: obj, Pos: cf.Pos}, true
}

// refIdentOf resolves a by-reference expression (&s.mu, *dst, wg) to its
// identity object, sharing chanIdentOf's field-level abstraction.
func refIdentOf(info *types.Info, expr ast.Expr) types.Object {
	for {
		switch x := expr.(type) {
		case *ast.ParenExpr:
			expr = x.X
		case *ast.StarExpr:
			expr = x.X
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return nil
			}
			expr = x.X
		default:
			return chanIdentOf(info, expr)
		}
	}
}

// calleeArg returns the caller-side expression bound to the callee's
// unified parameter i at e's call site, or nil when it cannot be mapped
// (variadic overflow, method expressions with odd shapes, ...).
func calleeArg(e *Edge, callee *Summary, i int) ast.Expr {
	site := e.Site
	if site == nil {
		return nil
	}
	hasRecv := false
	if e.Callee.Obj != nil {
		if sig, ok := e.Callee.Obj.Type().(*types.Signature); ok && sig.Recv() != nil {
			hasRecv = true
		}
	}
	if hasRecv {
		sel, ok := unparen(site.Fun).(*ast.SelectorExpr)
		if !ok {
			return nil
		}
		// Method expression T.M(recv, args...): the receiver is Args[0].
		if info := e.Caller.Pkg.Info; info != nil {
			if tv, ok := info.Types[sel.X]; ok && tv.IsType() {
				if i < len(site.Args) {
					return site.Args[i]
				}
				return nil
			}
		}
		if i == 0 {
			return sel.X
		}
		i--
	}
	if i < len(site.Args) {
		return site.Args[i]
	}
	return nil
}

// rootVarOf climbs expr to its root variable: the object whose referent
// the expression reaches (through derefs, indexing, field selection and
// type assertions). Returns nil for expressions rooted in calls,
// literals or package names.
func rootVarOf(info *types.Info, expr ast.Expr) *types.Var {
	for {
		switch x := expr.(type) {
		case *ast.ParenExpr:
			expr = x.X
		case *ast.StarExpr:
			expr = x.X
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return nil
			}
			expr = x.X
		case *ast.IndexExpr:
			expr = x.X
		case *ast.SliceExpr:
			expr = x.X
		case *ast.SelectorExpr:
			// A qualified reference (pkg.Var) roots at the package var.
			if id, ok := x.X.(*ast.Ident); ok && usedPackage(info, id) != nil {
				if v, ok := info.Uses[x.Sel].(*types.Var); ok {
					return v
				}
				return nil
			}
			expr = x.X
		case *ast.TypeAssertExpr:
			expr = x.X
		case *ast.Ident:
			if info == nil {
				return nil
			}
			if v, ok := info.Uses[x].(*types.Var); ok {
				return v
			}
			if v, ok := info.Defs[x].(*types.Var); ok {
				return v
			}
			return nil
		default:
			return nil
		}
	}
}

// chanIdentOf resolves a channel expression to its identity object: the
// named variable or the struct field (field-level abstraction — all
// instances of a type share the field's endpoints; elements of a
// channel slice/array share the collection's identity).
func chanIdentOf(info *types.Info, expr ast.Expr) types.Object {
	for {
		switch x := expr.(type) {
		case *ast.ParenExpr:
			expr = x.X
		case *ast.IndexExpr:
			expr = x.X
		case *ast.Ident:
			if info == nil {
				return nil
			}
			if v, ok := info.Uses[x].(*types.Var); ok {
				return v
			}
			if v, ok := info.Defs[x].(*types.Var); ok {
				return v
			}
			return nil
		case *ast.SelectorExpr:
			if info != nil {
				if v, ok := info.Uses[x.Sel].(*types.Var); ok {
					return v
				}
			}
			return nil
		default:
			return nil
		}
	}
}

// computeDirect walks one node's body (excluding nested closures, which
// are their own nodes) and collects its local facts.
func computeDirect(n *Node) *Summary {
	s := &Summary{node: n, params: unifiedParams(n)}
	body := n.Body()
	if body == nil {
		return s
	}
	info := infoOf(n)
	presized := presizedVars(info, body)

	var stack []ast.Node
	ast.Inspect(body, func(node ast.Node) bool {
		if node == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if _, ok := node.(*ast.FuncLit); ok {
			// Nested closures are separate nodes; their facts arrive
			// through call-graph edges.
			return false
		}
		stack = append(stack, node)
		switch x := node.(type) {
		case *ast.SelectorExpr:
			directSelector(s, info, x)
		case *ast.CallExpr:
			directCall(s, info, x, presized)
			directConcurrency(s, info, x)
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				directWrite(s, info, lhs, x.Tok != token.ASSIGN && x.Tok != token.DEFINE)
			}
		case *ast.IncDecStmt:
			directWrite(s, info, x.X, true)
		case *ast.SendStmt:
			if classifySend(x, stack) != sendSafe {
				if cf, ok := chanFactOf(s, info, x.Chan, x.Arrow); ok {
					addChanFact(&s.Sends, cf)
				}
			}
		case *ast.SelectStmt:
			// A select is joinability evidence even when it only sends:
			// an escape case (or default) is the whole point of selecting.
			s.Joins = true
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				s.Joins = true
				if cf, ok := chanFactOf(s, info, x.X, x.Pos()); ok {
					addChanFact(&s.Recvs, cf)
				}
			}
		case *ast.RangeStmt:
			if info != nil {
				if t, ok := info.Types[x.X]; ok {
					if _, isChan := t.Type.Underlying().(*types.Chan); isChan {
						s.Joins = true
						if cf, ok := chanFactOf(s, info, x.X, x.Pos()); ok {
							addChanFact(&s.Recvs, cf)
						}
					}
				}
			}
		}
		return true
	})
	computeLockFacts(s, info, body)
	return s
}

// pop removes stack bookkeeping when Inspect prunes a subtree. (Inspect
// calls the callback with nil exactly once per true return, so returning
// false on FuncLit needs no pop: the nil call never comes.)
//
// directSelector records wall-clock and raw-rand references.
func directSelector(s *Summary, info *types.Info, sel *ast.SelectorExpr) {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return
	}
	pkg := usedPackage(info, id)
	if pkg == nil {
		return
	}
	if pkg.Path() == "time" && forbiddenClockCalls[sel.Sel.Name] {
		s.ReadsClock = true
	}
	if _, bad := forbiddenRandImports[pkg.Path()]; bad {
		s.RawRand = true
	}
}

// directCall records Clone/append allocation, RNG draws and the mutating
// builtins (copy, append-to-param).
func directCall(s *Summary, info *types.Info, call *ast.CallExpr, presized map[*types.Var]bool) {
	switch fun := unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if fun.Sel.Name == "Clone" && len(call.Args) == 0 {
			s.Allocates = true
		}
		// A method call on an RNG-stream variable is a draw (all Source
		// methods advance or expose stream state).
		if recv, ok := unparen(fun.X).(*ast.Ident); ok && info != nil {
			if v, ok := info.Uses[recv].(*types.Var); ok && isRNGStream(v.Type()) {
				recordDraw(s, v, call.Pos(), drawSync)
			}
		}
	case *ast.Ident:
		switch fun.Name {
		case "append":
			if len(call.Args) == 0 {
				return
			}
			root := rootVarOf(info, call.Args[0])
			if root == nil || !presized[root] {
				s.Allocates = true
			}
			if root != nil {
				recordMutation(s, root, call.Pos(), drawSync)
				if !presized[root] {
					recordGrow(s, info, call.Args[0], call.Pos())
				}
			}
		case "copy":
			if len(call.Args) == 2 {
				if root := rootVarOf(info, call.Args[0]); root != nil {
					recordMutation(s, root, call.Pos(), drawSync)
				}
			}
		}
	}
}

// directWrite records a write target: mutation is caller-visible only
// when the write goes through a reference (pointer, slice, map, interface
// holding a pointer); a plain rebind of a parameter or local is not.
func directWrite(s *Summary, info *types.Info, lhs ast.Expr, compound bool) {
	deref := false
	expr := lhs
climb:
	for {
		switch x := expr.(type) {
		case *ast.ParenExpr:
			expr = x.X
		case *ast.StarExpr:
			deref = true
			expr = x.X
		case *ast.IndexExpr:
			if refType(info, x.X) {
				deref = true
			}
			expr = x.X
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok && usedPackage(info, id) != nil {
				if v, ok := info.Uses[x.Sel].(*types.Var); ok && isGlobalVar(v) {
					s.WritesGlobal = true
				}
				return
			}
			if refType(info, x.X) {
				deref = true
			}
			expr = x.X
		case *ast.TypeAssertExpr:
			if refType(info, x) {
				deref = true
			}
			expr = x.X
		case *ast.Ident:
			if x.Name == "_" || info == nil {
				return
			}
			v, ok := info.Uses[x].(*types.Var)
			if !ok {
				if v, ok = info.Defs[x].(*types.Var); !ok {
					return
				}
				return // a fresh definition mutates nothing pre-existing
			}
			_, class := s.classOf(v)
			switch {
			case class == classGlobal:
				s.WritesGlobal = true
			case deref:
				recordMutation(s, v, lhs.Pos(), drawSync)
			case class == classOuter:
				// Rebinding a captured var is visible to the enclosing
				// function (shared variable), though not to its callers;
				// recordMutation classifies that at the next level up.
				addVar(&s.CapturedMutates, v)
			}
			return
		default:
			break climb
		}
	}
	_ = compound
}

// refType reports whether expr's type passes writes through to shared
// storage: pointers, slices and maps.
func refType(info *types.Info, expr ast.Expr) bool {
	if info == nil {
		return false
	}
	tv, ok := info.Types[expr]
	if !ok || tv.Type == nil {
		return false
	}
	switch tv.Type.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map:
		return true
	}
	return false
}

// chanFactOf resolves a channel expression into a fact relative to s.
func chanFactOf(s *Summary, info *types.Info, expr ast.Expr, pos token.Pos) (ChanFact, bool) {
	obj := chanIdentOf(info, expr)
	if obj == nil {
		return ChanFact{}, false
	}
	if v, ok := obj.(*types.Var); ok {
		if i := s.ParamIndex(v); i >= 0 {
			return ChanFact{Param: i, Pos: pos}, true
		}
	}
	return ChanFact{Param: -1, Obj: obj, Pos: pos}, true
}

// unifiedParams lists receiver (when present) then parameters; unnamed
// or blank entries stay nil placeholders to keep indices aligned with
// call-site arguments.
func unifiedParams(n *Node) []*types.Var {
	info := infoOf(n)
	var fields []*ast.Field
	if n.Decl != nil {
		if n.Decl.Recv != nil {
			fields = append(fields, n.Decl.Recv.List...)
		}
		if n.Decl.Type.Params != nil {
			fields = append(fields, n.Decl.Type.Params.List...)
		}
	} else if n.Lit.Type.Params != nil {
		fields = append(fields, n.Lit.Type.Params.List...)
	}
	var out []*types.Var
	for _, f := range fields {
		if len(f.Names) == 0 {
			out = append(out, nil) // unnamed receiver/param
			continue
		}
		for _, name := range f.Names {
			var v *types.Var
			if info != nil && name.Name != "_" {
				v, _ = info.Defs[name].(*types.Var)
			}
			out = append(out, v)
		}
	}
	return out
}

// presizedVars collects vars assigned from make with an explicit
// capacity inside body (excluding nested closures): appends to those
// stay within reserved storage.
func presizedVars(info *types.Info, body *ast.BlockStmt) map[*types.Var]bool {
	out := map[*types.Var]bool{}
	if info == nil {
		return out
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok {
				continue
			}
			fn, ok := call.Fun.(*ast.Ident)
			if !ok || fn.Name != "make" || len(call.Args) < 3 {
				continue
			}
			if i < len(as.Lhs) {
				if v := rootVarOf(info, as.Lhs[i]); v != nil {
					out[v] = true
				}
			}
		}
		return true
	})
	return out
}

// directConcurrency records joinability evidence and WaitGroup facts for
// one call expression: close(ch) and wg.Done join, wg.Add/wg.Wait feed
// the waitgroup rule.
func directConcurrency(s *Summary, info *types.Info, call *ast.CallExpr) {
	if isBuiltinCloseCall(info, call) {
		s.Joins = true
		return
	}
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	switch sel.Sel.Name {
	case "Done", "Add", "Wait":
	default:
		return
	}
	if !isWaitGroupRecv(info, sel) {
		return
	}
	switch sel.Sel.Name {
	case "Done":
		s.Joins = true
	case "Add":
		if cf, ok := refFactOf(s, info, sel.X, call.Pos()); ok {
			addChanFact(&s.WGAdds, cf)
		}
	case "Wait":
		if cf, ok := refFactOf(s, info, sel.X, call.Pos()); ok {
			addChanFact(&s.wgWaits, cf)
		}
	}
}

// recordGrow files an unreserved append as a growth fact when its target
// is visible beyond the body: a parameter, struct field, package-level
// var, or captured outer var. Purely local growth is not a fact.
func recordGrow(s *Summary, info *types.Info, expr ast.Expr, pos token.Pos) {
	obj := refIdentOf(info, expr)
	if obj == nil {
		return
	}
	if v, ok := obj.(*types.Var); ok {
		idx, class := s.classOf(v)
		switch class {
		case classParam:
			addChanFact(&s.Grows, ChanFact{Param: idx, Pos: pos})
			return
		case classLocal:
			if !v.IsField() {
				return
			}
		}
	}
	addChanFact(&s.Grows, ChanFact{Param: -1, Obj: obj, Pos: pos})
}

// refFactOf resolves a by-reference expression into a fact relative to s
// (the &/* unwrapping counterpart of chanFactOf).
func refFactOf(s *Summary, info *types.Info, expr ast.Expr, pos token.Pos) (ChanFact, bool) {
	obj := refIdentOf(info, expr)
	if obj == nil {
		return ChanFact{}, false
	}
	if v, ok := obj.(*types.Var); ok {
		if i := s.ParamIndex(v); i >= 0 {
			return ChanFact{Param: i, Pos: pos}, true
		}
	}
	return ChanFact{Param: -1, Obj: obj, Pos: pos}, true
}

// isSyncType reports whether t (possibly behind a pointer) is the named
// sync.<name> type.
func isSyncType(t types.Type, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == "sync"
}

// isWaitGroupRecv reports whether sel's receiver is a sync.WaitGroup.
// Without type info it falls back to the wg/group naming convention.
func isWaitGroupRecv(info *types.Info, sel *ast.SelectorExpr) bool {
	if info != nil {
		if selection, ok := info.Selections[sel]; ok {
			return isSyncType(selection.Recv(), "WaitGroup")
		}
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && (id.Name == "wg" || id.Name == "group")
}

// isBuiltinCloseCall reports whether call is the builtin close.
func isBuiltinCloseCall(info *types.Info, call *ast.CallExpr) bool {
	id, ok := unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "close" {
		return false
	}
	if info != nil {
		if obj, ok := info.Uses[id]; ok {
			_, builtin := obj.(*types.Builtin)
			return builtin
		}
	}
	return true
}

// lockMethod classifies call as a sync.Mutex/RWMutex acquisition or
// release and returns the lock's identity object. Promoted methods of an
// embedded mutex identify the lock with the embedding value.
func lockMethod(info *types.Info, call *ast.CallExpr) (types.Object, string, bool) {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || len(call.Args) != 0 {
		return nil, "", false
	}
	name := sel.Sel.Name
	switch name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return nil, "", false
	}
	if info != nil {
		if selection, ok := info.Selections[sel]; ok {
			recv := selection.Recv()
			if !isSyncType(recv, "Mutex") && !isSyncType(recv, "RWMutex") {
				// Promoted or interface method: require the method itself
				// to belong to package sync (sync.Locker counts).
				fn, okf := info.Uses[sel.Sel].(*types.Func)
				if !okf || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
					return nil, "", false
				}
			}
			obj := refIdentOf(info, sel.X)
			if obj == nil {
				return nil, "", false
			}
			return obj, name, true
		}
	}
	// Degraded mode: accept the mu/lock naming convention.
	obj := refIdentOf(info, sel.X)
	if obj == nil || !lockishName(obj.Name()) {
		return nil, "", false
	}
	return obj, name, true
}

// lockishName reports whether a variable name follows the mutex naming
// convention — the degraded-mode stand-in for receiver types.
func lockishName(name string) bool {
	lower := strings.ToLower(name)
	return strings.Contains(lower, "mu") || strings.Contains(lower, "lock")
}

// computeLockFacts runs the lexical lock walk over body (excluding nested
// closures): it collects the ordered lock-event trace, the held set at
// every call site, the same-body lock-order edges, and the Acquires
// facts. The scan is lexical — an under-approximation around branches,
// which is the linter's usual optimism: it misses some paths but never
// invents a held lock.
func computeLockFacts(s *Summary, info *types.Info, body *ast.BlockStmt) {
	type callSite struct {
		call *ast.CallExpr
		pos  token.Pos
	}
	var events []lockEvent
	var calls []callSite
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		stack = append(stack, n)
		switch x := n.(type) {
		case *ast.ReturnStmt:
			events = append(events, lockEvent{kind: evReturn, pos: x.Pos()})
		case *ast.CallExpr:
			if id, ok := unparen(x.Fun).(*ast.Ident); ok && id.Name == "panic" {
				events = append(events, lockEvent{kind: evPanic, pos: x.Pos()})
				return true
			}
			obj, name, ok := lockMethod(info, x)
			if !ok {
				calls = append(calls, callSite{call: x, pos: x.Pos()})
				return true
			}
			switch name {
			case "Lock", "RLock":
				events = append(events, lockEvent{
					kind: evAcquire, obj: obj, read: name == "RLock", pos: x.Pos(),
				})
			case "Unlock", "RUnlock":
				kind := evRelease
				if len(stack) >= 2 {
					if _, deferred := stack[len(stack)-2].(*ast.DeferStmt); deferred {
						kind = evDeferRelease
					}
				}
				events = append(events, lockEvent{
					kind: kind, obj: obj, read: name == "RUnlock", pos: x.Pos(),
				})
			}
		}
		return true
	})
	if len(events) == 0 {
		return
	}
	sort.Slice(events, func(i, j int) bool { return events[i].pos < events[j].pos })
	sort.Slice(calls, func(i, j int) bool { return calls[i].pos < calls[j].pos })

	// Linear scan: maintain the held stack, record order edges, held sets
	// at call sites, and the acquisition facts.
	var held []types.Object
	recordHeld := func(cs callSite) {
		if len(held) == 0 {
			return
		}
		if s.heldAtCall == nil {
			s.heldAtCall = map[*ast.CallExpr][]types.Object{}
		}
		s.heldAtCall[cs.call] = append([]types.Object(nil), held...)
	}
	ci := 0
	for _, ev := range events {
		for ci < len(calls) && calls[ci].pos < ev.pos {
			recordHeld(calls[ci])
			ci++
		}
		switch ev.kind {
		case evAcquire:
			for _, h := range held {
				if len(s.lockEdges) < maxLockEdges {
					s.lockEdges = append(s.lockEdges, lockEdge{from: h, to: ev.obj, pos: ev.pos})
				}
			}
			held = append(held, ev.obj)
			if v, ok := ev.obj.(*types.Var); ok {
				if i := s.ParamIndex(v); i >= 0 {
					addChanFact(&s.Acquires, ChanFact{Param: i, Pos: ev.pos})
					continue
				}
			}
			addChanFact(&s.Acquires, ChanFact{Param: -1, Obj: ev.obj, Pos: ev.pos})
		case evRelease:
			for i := len(held) - 1; i >= 0; i-- {
				if held[i] == ev.obj {
					held = append(held[:i], held[i+1:]...)
					break
				}
			}
			// evDeferRelease keeps the lock held: a deferred unlock covers
			// the rest of the body, so nested acquisitions below it really
			// do happen under the lock.
		}
	}
	for ; ci < len(calls); ci++ {
		recordHeld(calls[ci])
	}
	s.lockEvents = events
}

// infoOf returns the node's package type info (possibly nil on hard
// type-check failure — all walkers tolerate that, per the degraded-mode
// loader contract).
func infoOf(n *Node) *types.Info {
	if n.Pkg == nil {
		return nil
	}
	return n.Pkg.Info
}
