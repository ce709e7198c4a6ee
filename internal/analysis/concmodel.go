package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Goroutine/channel model, the substrate of the four concflow analyzers
// (goleak.go, chanprot.go, ctxflow.go, onewriter.go). Three pieces:
//
//   - spawnedFuncs: which function bodies execute on spawned goroutines —
//     the closure of every `go` statement's target over same-package
//     static calls, plus every literal nested inside such a body. This is
//     the "who spawns what" half of the model; calls through function
//     values or interfaces have no edge (DESIGN.md §15 documents the
//     soundness boundary), and a body reachable both from a spawn and
//     from the coordinator counts as spawned.
//
//   - chanGroups: a load-wide, Steensgaard-style unification of channel
//     handles — locals, params, struct fields and make sites that can
//     alias are one group. Context-insensitive by construction: two
//     distinct channels threaded through the same helper parameter
//     merge. The merge only ever widens a group, so analyzers that stay
//     silent on wide groups (goleak's never-closed-range rule) remain
//     sound-for-reporting; groups touching channels produced outside the
//     load (ctx.Done, time.After) are marked external and never reported.
//
//   - concFact: the cross-package summary chanprot exports per function —
//     which operations (send/recv/close/range) the function performs,
//     transitively, on each of its channel-typed parameters. This is how
//     close ownership is proved across the coordinator/worker split when
//     the close happens behind a helper in another package.

// concOps is a bitmask of channel operations.
type concOps uint8

const (
	opSend concOps = 1 << iota
	opRecv
	opClose
	opRange
)

// concFact summarizes, per channel-typed parameter (indexed over all
// params; non-channel params hold 0), the operations a function performs
// on it — directly or through its static callees. Exported by chanprot
// on every function with at least one channel parameter.
type concFact struct {
	Params []concOps
}

func (*concFact) AFact() {}

// isChanType reports whether t's underlying type is a channel.
func isChanType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// ---------------------------------------------------------------------------
// Spawn closure.

// spawnedFuncs returns the set of function nodes (*ast.FuncDecl or
// *ast.FuncLit) whose bodies run on goroutines spawned inside pkg:
// `go` statement targets, their same-package static callees
// (transitively), and every literal nested in such a body. Spawns whose
// target is a function value or an interface method have no entry — the
// dynamic-goroutine caveat every concflow analyzer inherits.
func spawnedFuncs(pkg *Package) map[ast.Node]bool {
	decls := make(map[*types.Func]*ast.FuncDecl)
	for _, fd := range PackageFuncs(pkg) {
		decls[fd.Obj] = fd.Decl
	}
	spawned := make(map[ast.Node]bool)
	var work []ast.Node
	add := func(n ast.Node) {
		if n != nil && !spawned[n] {
			spawned[n] = true
			work = append(work, n)
		}
	}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			add(spawnTarget(pkg, decls, g))
			return true
		})
	}
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		body := funcNodeBody(n)
		if body == nil {
			continue
		}
		ast.Inspect(body, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.FuncLit:
				add(m) // runs (or is handed off) on the spawned side
				return false
			case *ast.CallExpr:
				if fn := Callee(pkg.Info, m); fn != nil {
					if d, ok := decls[fn]; ok {
						add(d)
					}
				}
			}
			return true
		})
	}
	return spawned
}

// spawnTarget resolves the function node a `go` statement enters: the
// literal itself, or the same-package declaration of a static callee.
func spawnTarget(pkg *Package, decls map[*types.Func]*ast.FuncDecl, g *ast.GoStmt) ast.Node {
	if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
		return lit
	}
	if fn := Callee(pkg.Info, g.Call); fn != nil {
		if d, ok := decls[fn]; ok {
			return d
		}
	}
	return nil
}

// funcNodeBody returns the body of a *ast.FuncDecl or *ast.FuncLit node.
func funcNodeBody(n ast.Node) *ast.BlockStmt {
	switch n := n.(type) {
	case *ast.FuncDecl:
		return n.Body
	case *ast.FuncLit:
		return n.Body
	}
	return nil
}

// enclosingFuncNode returns the innermost *ast.FuncDecl or *ast.FuncLit
// on the ancestor stack, or nil at package level.
func enclosingFuncNode(stack []ast.Node) ast.Node {
	for i := len(stack) - 1; i >= 0; i-- {
		switch n := stack[i].(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			return n
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Channel handle unification.

// chanUF is a union-find over channel handle slots. Slots are
// types.Object (locals, params, fields), make-site origins (the
// *ast.CallExpr node), or result slots of in-load functions.
type chanUF struct {
	parent map[any]any
}

// chanResult keys the i-th result of an in-load function returning a
// channel, so `ch := f()` unifies with f's `return` operands.
type chanResult struct {
	fn *types.Func
	i  int
}

func newChanUF() *chanUF { return &chanUF{parent: make(map[any]any)} }

func (u *chanUF) find(x any) any {
	p, ok := u.parent[x]
	if !ok || p == x {
		return x
	}
	r := u.find(p)
	u.parent[x] = r
	return r
}

func (u *chanUF) union(a, b any) {
	ra, rb := u.find(a), u.find(b)
	if ra != rb {
		u.parent[ra] = rb
	}
}

func (u *chanUF) same(a, b any) bool { return u.find(a) == u.find(b) }

// chanGroups is the load-wide channel aliasing model goleak runs on:
// the unification plus, per slot list, the close sites and the external
// marks (groups touching channels made outside the load).
type chanGroups struct {
	uf       *chanUF
	closes   []any // slots with a close(x) site somewhere in the load
	external []any // slots that alias an out-of-load channel
}

// Closed reports whether slot's group carries a close site.
func (g *chanGroups) Closed(slot any) bool {
	for _, c := range g.closes {
		if g.uf.same(c, slot) {
			return true
		}
	}
	return false
}

// External reports whether slot's group aliases a channel the load did
// not create (ctx.Done, time.After, results of unknown callees): its
// protocol is someone else's contract, so analyzers stay silent on it.
func (g *chanGroups) External(slot any) bool {
	for _, e := range g.external {
		if g.uf.same(e, slot) {
			return true
		}
	}
	return false
}

// buildChanGroups unifies channel handles over every package of the
// load. inLoad must hold the declared functions of all pkgs (for
// resolving which callees' params/results are unifiable).
func buildChanGroups(pkgs []*Package) *chanGroups {
	g := &chanGroups{uf: newChanUF()}
	inLoad := make(map[*types.Func]bool)
	for _, pkg := range pkgs {
		for _, fd := range PackageFuncs(pkg) {
			inLoad[fd.Obj] = true
		}
	}
	for _, pkg := range pkgs {
		b := &chanGroupBuilder{g: g, pkg: pkg, inLoad: inLoad}
		WalkWithStack(pkg, b.node)
	}
	return g
}

type chanGroupBuilder struct {
	g      *chanGroups
	pkg    *Package
	inLoad map[*types.Func]bool
}

// ref resolves a channel-typed expression to its slot. The second result
// is false when the expression has no stable slot (an out-of-load call,
// an element of a container): the caller marks the counterpart external.
func (b *chanGroupBuilder) ref(e ast.Expr) (any, bool) {
	e = ast.Unparen(e)
	info := b.pkg.Info
	switch e := e.(type) {
	case *ast.Ident:
		if v, ok := info.Uses[e].(*types.Var); ok {
			return v, true
		}
		if v, ok := info.Defs[e].(*types.Var); ok {
			return v, true
		}
	case *ast.SelectorExpr:
		if v, ok := info.Uses[e.Sel].(*types.Var); ok {
			return v, true
		}
	case *ast.CallExpr:
		if isMakeChan(info, e) {
			return e, true
		}
		if fn := Callee(info, e); fn != nil && b.inLoad[fn] {
			return chanResult{fn: fn, i: 0}, true
		}
	}
	return nil, false
}

// bind unifies dst's slot with the value expression, or marks dst's
// group external when the value has no slot.
func (b *chanGroupBuilder) bind(dst any, val ast.Expr) {
	if !isChanType(b.pkg.Info.TypeOf(val)) {
		return
	}
	if src, ok := b.ref(val); ok {
		b.g.uf.union(dst, src)
	} else {
		b.g.external = append(b.g.external, dst)
	}
}

func (b *chanGroupBuilder) node(stack []ast.Node, n ast.Node) {
	info := b.pkg.Info
	switch n := n.(type) {
	case *ast.AssignStmt:
		if len(n.Lhs) != len(n.Rhs) {
			// Multi-value form (ch := f()): only the out-of-load case needs
			// handling; in-load multi-result channel returns are rare enough
			// to leave external.
			for _, lhs := range n.Lhs {
				if isChanType(info.TypeOf(lhs)) {
					if dst, ok := b.ref(lhs); ok {
						b.g.external = append(b.g.external, dst)
					}
				}
			}
			return
		}
		for i, lhs := range n.Lhs {
			if !isChanType(info.TypeOf(lhs)) {
				continue
			}
			if dst, ok := b.ref(lhs); ok {
				b.bind(dst, n.Rhs[i])
			}
		}
	case *ast.ValueSpec:
		for i, name := range n.Names {
			if i >= len(n.Values) {
				break
			}
			if v, ok := info.Defs[name].(*types.Var); ok && isChanType(v.Type()) {
				b.bind(v, n.Values[i])
			}
		}
	case *ast.CompositeLit:
		b.compositeBind(n)
	case *ast.CallExpr:
		b.callBind(n)
	case *ast.ReturnStmt:
		sig := enclosingSignature(b.pkg, stack)
		fn := enclosingDeclObj(b.pkg, stack)
		if sig == nil || fn == nil {
			return
		}
		for i, r := range n.Results {
			if i < sig.Results().Len() && isChanType(sig.Results().At(i).Type()) {
				b.bind(chanResult{fn: fn, i: i}, r)
			}
		}
	}
}

// compositeBind unifies channel-typed struct fields with their literal
// values; channels in arrays/slices/maps get no slot (external).
func (b *chanGroupBuilder) compositeBind(lit *ast.CompositeLit) {
	t := b.pkg.Info.TypeOf(lit)
	if t == nil {
		return
	}
	st, ok := types.Unalias(t).Underlying().(*types.Struct)
	if !ok {
		for _, el := range lit.Elts {
			v := elemValue(el)
			if isChanType(b.pkg.Info.TypeOf(v)) {
				if src, ok := b.ref(v); ok {
					b.g.external = append(b.g.external, src)
				}
			}
		}
		return
	}
	for i, el := range lit.Elts {
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			if key, ok := kv.Key.(*ast.Ident); ok {
				if f, ok := b.pkg.Info.Uses[key].(*types.Var); ok && isChanType(f.Type()) {
					b.bind(f, kv.Value)
				}
			}
			continue
		}
		if i < st.NumFields() && isChanType(st.Field(i).Type()) {
			b.bind(st.Field(i), el)
		}
	}
}

// callBind unifies channel arguments with the callee's parameters (for
// in-load callees), records close sites, and marks channel arguments to
// unknown callees external.
func (b *chanGroupBuilder) callBind(call *ast.CallExpr) {
	info := b.pkg.Info
	if isBuiltin(info, call, "close") && len(call.Args) == 1 {
		if slot, ok := b.ref(call.Args[0]); ok {
			b.g.closes = append(b.g.closes, slot)
		}
		return
	}
	fn := Callee(info, call)
	for i, arg := range call.Args {
		if !isChanType(info.TypeOf(arg)) {
			continue
		}
		src, ok := b.ref(arg)
		if !ok {
			continue
		}
		if fn != nil && b.inLoad[fn] {
			if sig, ok := fn.Type().(*types.Signature); ok && i < sig.Params().Len() && !sig.Variadic() {
				b.g.uf.union(src, sig.Params().At(i))
				continue
			}
		}
		// Conversions, builtins other than close (cap/len are harmless but
		// cheap to include), function values, out-of-load callees: the
		// channel escapes the model.
		if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
			continue // conversion: same handle, nothing to do
		}
		if isBuiltin(info, call, "len") || isBuiltin(info, call, "cap") {
			continue
		}
		b.g.external = append(b.g.external, src)
	}
}

// isMakeChan reports whether call is make(chan ...).
func isMakeChan(info *types.Info, call *ast.CallExpr) bool {
	return isBuiltin(info, call, "make") && len(call.Args) >= 1 && isChanType(info.Types[call.Args[0]].Type)
}

// isBuiltin reports whether call invokes the named builtin.
func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = info.Uses[id].(*types.Builtin)
	return ok
}

// enclosingDeclObj resolves the *types.Func of the innermost enclosing
// function declaration (literals return nil: their results have no
// stable slot).
func enclosingDeclObj(pkg *Package, stack []ast.Node) *types.Func {
	for i := len(stack) - 1; i >= 0; i-- {
		switch n := stack[i].(type) {
		case *ast.FuncLit:
			return nil
		case *ast.FuncDecl:
			obj, _ := pkg.Info.Defs[n.Name].(*types.Func)
			return obj
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Shared small predicates.

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named := namedOf(t)
	if named == nil {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// isWaitGroupWait reports whether call is a .Wait() method call on a
// type named WaitGroup (sync.WaitGroup, or a fixture-local model of it).
func isWaitGroupWait(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Wait" {
		return false
	}
	t := info.TypeOf(sel.X)
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		t = p.Elem()
	}
	named := namedOf(t)
	return named != nil && named.Obj().Name() == "WaitGroup"
}

// concSyncExempt reports whether a struct field of this type is exempt
// from the onewriter single-writer rule: channels, contexts, and
// anything from sync/atomic carry their own synchronization.
func concSyncExempt(t types.Type) bool {
	for {
		switch u := types.Unalias(t).(type) {
		case *types.Pointer:
			t = u.Elem()
			continue
		case *types.Slice:
			t = u.Elem()
			continue
		case *types.Array:
			t = u.Elem()
			continue
		}
		break
	}
	if isChanType(t) || isContextType(t) {
		return true
	}
	named := namedOf(t)
	if named == nil {
		return false
	}
	// Name-based like isWaitGroupWait, so fixtures can model sync types
	// locally without importing sync.
	if named.Obj().Name() == "WaitGroup" {
		return true
	}
	pkg := named.Obj().Pkg()
	return pkg != nil && (pkg.Path() == "sync" || pkg.Path() == "sync/atomic")
}

// cfgIndex maps each statement of a CFG to its block and ordinal, for
// reachability queries with same-block ordering.
type cfgIndex struct {
	cfg *CFG
	blk map[ast.Stmt]*Block
	ord map[ast.Stmt]int
}

func indexCFG(cfg *CFG) *cfgIndex {
	ix := &cfgIndex{cfg: cfg, blk: make(map[ast.Stmt]*Block), ord: make(map[ast.Stmt]int)}
	for _, b := range cfg.Blocks {
		for i, s := range b.Stmts {
			if _, ok := ix.blk[s]; !ok {
				ix.blk[s] = b
				ix.ord[s] = i
			}
		}
	}
	return ix
}

// locate finds the innermost statement on the stack (including n itself)
// that the CFG indexed, i.e. the block-level statement carrying n.
func (ix *cfgIndex) locate(stack []ast.Node, n ast.Node) (blk *Block, ord int, ok bool) {
	if s, isStmt := n.(ast.Stmt); isStmt {
		if b, found := ix.blk[s]; found {
			return b, ix.ord[s], true
		}
	}
	for i := len(stack) - 1; i >= 0; i-- {
		if _, isFunc := stack[i].(*ast.FuncLit); isFunc {
			return nil, 0, false // crossed into a different body
		}
		s, isStmt := stack[i].(ast.Stmt)
		if !isStmt {
			continue
		}
		if b, found := ix.blk[s]; found {
			return b, ix.ord[s], true
		}
	}
	return nil, 0, false
}

// ordered reports whether execution can pass through (ablk, aord) and
// later reach (bblk, bord): a same-block earlier ordinal, or a CFG path.
func (ix *cfgIndex) ordered(ablk *Block, aord int, bblk *Block, bord int) bool {
	if ablk == bblk && aord < bord {
		return true
	}
	return ix.cfg.Reaches(ablk, bblk)
}

// sccLoops returns the inescapable strongly connected components of the
// CFG that are reachable from entry: every component with a cycle whose
// blocks have no successor outside the component. A body stuck in such a
// component never reaches the exit block.
func sccLoops(cfg *CFG) [][]*Block {
	comp, isLoop := cfgSCC(cfg)
	comps := make([][]*Block, len(isLoop))
	for _, b := range cfg.Blocks {
		comps[comp[b.Index]] = append(comps[comp[b.Index]], b)
	}
	entry := cfg.Blocks[0]
	var out [][]*Block
	for id, blocks := range comps {
		if !isLoop[id] {
			continue
		}
		escapes := false
		for _, b := range blocks {
			for _, s := range b.Succs {
				escapes = escapes || comp[s.Index] != id
			}
		}
		if !escapes && (comp[entry.Index] == id || cfg.Reaches(entry, blocks[0])) {
			out = append(out, blocks)
		}
	}
	return out
}

// compPos returns the position of the first statement of an SCC, for
// naming the loop in a diagnostic; token.NoPos when every block is bare.
func compPos(comp []*Block) token.Pos {
	best := token.NoPos
	for _, b := range comp {
		for _, s := range b.Stmts {
			if p := s.Pos(); p.IsValid() && (best == token.NoPos || p < best) {
				best = p
			}
		}
	}
	return best
}
