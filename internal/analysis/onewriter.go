package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// OneWriter generalizes probesafe's single-writer rule to the farm: a
// struct field written from a spawned goroutine (a worker's local
// histograms, its outcome counters) is goroutine-owned, and no other
// goroutine may touch it — read or write — until a barrier proves the
// owner is done. Concretely, every access to an owned field from
// non-spawned code must be one of:
//
//   - construction: a composite-literal key, or any access through a
//     local freshly built in a function that spawns nothing — the value
//     has not been published yet;
//   - pre-spawn: in a spawning function, an access no `go` statement
//     can reach (CFG order) — still single-threaded;
//   - post-barrier: an access a WaitGroup.Wait in the same function
//     provably precedes (CFG order), or — one call level out — in a
//     function whose every static call site sits after such a Wait,
//     which is exactly the farm's merge-after-drain shape.
//
// Everything else is a report: the access races the owning goroutine,
// whether or not the soak's interleavings ever exhibit it. Fields that
// carry their own synchronization (channels, contexts, sync and
// sync/atomic types) are exempt; handoffs synchronized by channel
// send/recv pairs are real synchronization the model cannot see and
// take a justified //vaxlint:allow onewriter.
var OneWriter = &Analyzer{
	Name:        "onewriter",
	Doc:         "goroutine-owned fields are touched by other goroutines only across a Wait barrier",
	ModuleLevel: true,
	Run:         runOneWriter,
}

func runOneWriter(pass *Pass) error {
	for _, pkg := range pass.All {
		oneWriterPkg(pass, pkg)
	}
	return nil
}

// ownAccess is one syntactic touch of a package-declared struct field.
type ownAccess struct {
	field   *types.Var
	pos     token.Pos
	write   bool
	node    ast.Node    // enclosing function node
	decl    *types.Func // enclosing declaration
	stmt    ast.Stmt
	root    *types.Var // base variable of the selector chain, if any
	spawned bool
}

// ownSite is a spawn / Wait / call statement located for CFG queries.
type ownSite struct {
	node ast.Node
	stmt ast.Stmt
}

type ownModel struct {
	pass    *Pass
	pkg     *Package
	spawned map[ast.Node]bool

	accesses []ownAccess
	spawns   map[ast.Node][]ownSite           // per function node: go statements
	waits    map[ast.Node][]ownSite           // per function node: WaitGroup.Wait sites
	calls    map[*types.Func][]ownSite        // per package function: its static call sites
	fresh    map[ast.Node]map[*types.Var]bool // per function node: composite-built locals

	writtenSel map[ast.Expr]bool // selectors already recorded as writes
	cfgs       map[ast.Node]*cfgIndex
}

func oneWriterPkg(pass *Pass, pkg *Package) {
	m := &ownModel{
		pass:       pass,
		pkg:        pkg,
		spawned:    spawnedFuncs(pkg),
		spawns:     make(map[ast.Node][]ownSite),
		waits:      make(map[ast.Node][]ownSite),
		calls:      make(map[*types.Func][]ownSite),
		fresh:      make(map[ast.Node]map[*types.Var]bool),
		writtenSel: make(map[ast.Expr]bool),
		cfgs:       make(map[ast.Node]*cfgIndex),
	}
	WalkWithStack(pkg, m.node)
	m.check()
}

func (m *ownModel) node(stack []ast.Node, n ast.Node) {
	switch n := n.(type) {
	case *ast.GoStmt:
		fn := enclosingFuncNode(stack)
		m.spawns[fn] = append(m.spawns[fn], ownSite{node: fn, stmt: n})

	case *ast.AssignStmt:
		for _, lhs := range n.Lhs {
			m.markWrite(stack, n, lhs)
		}
		// A local built from a composite literal is unpublished until it
		// flows somewhere; record it for the construction exemption.
		if len(n.Lhs) == len(n.Rhs) {
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				if !isCompositeBuilt(n.Rhs[i]) {
					continue
				}
				v, ok := m.pkg.Info.Defs[id].(*types.Var)
				if !ok {
					if v, ok = m.pkg.Info.Uses[id].(*types.Var); !ok {
						continue
					}
				}
				fn := enclosingFuncNode(stack)
				if m.fresh[fn] == nil {
					m.fresh[fn] = make(map[*types.Var]bool)
				}
				m.fresh[fn][v] = true
			}
		}

	case *ast.IncDecStmt:
		m.markWrite(stack, n, n.X)

	case *ast.CallExpr:
		info := m.pkg.Info
		if isWaitGroupWait(info, n) {
			fn := enclosingFuncNode(stack)
			m.waits[fn] = append(m.waits[fn], ownSite{node: fn, stmt: enclosingBlockStmt(stack, n)})
		}
		// A method call through a field-rooted receiver may mutate it
		// (w.local[i].Add(h)): treat the root field as written.
		if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
			if _, isMethod := info.Uses[sel.Sel].(*types.Func); isMethod {
				m.markWrite(stack, n, sel.X)
			}
		}
		if fn := Callee(info, n); fn != nil && fn.Pkg() == m.pkg.Types {
			node := enclosingFuncNode(stack)
			m.calls[fn] = append(m.calls[fn], ownSite{node: node, stmt: enclosingBlockStmt(stack, n)})
		}

	case *ast.SelectorExpr:
		if m.writtenSel[n] {
			return
		}
		m.record(stack, n, n, false)
	}
}

// markWrite peels index/star/paren wrappers off an assignment target (or
// method receiver) and records the underlying field selector as a write.
func (m *ownModel) markWrite(stack []ast.Node, at ast.Node, target ast.Expr) {
	e := ast.Unparen(target)
	for {
		switch w := e.(type) {
		case *ast.IndexExpr:
			e = ast.Unparen(w.X)
			continue
		case *ast.StarExpr:
			e = ast.Unparen(w.X)
			continue
		case *ast.SliceExpr:
			e = ast.Unparen(w.X)
			continue
		}
		break
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return
	}
	m.writtenSel[sel] = true
	m.record(stack, at, sel, true)
}

// record captures one field access, if the selector resolves to a
// non-exempt struct field declared in this package.
func (m *ownModel) record(stack []ast.Node, at ast.Node, sel *ast.SelectorExpr, write bool) {
	v, ok := m.pkg.Info.Uses[sel.Sel].(*types.Var)
	if !ok || !v.IsField() || v.Pkg() != m.pkg.Types || concSyncExempt(v.Type()) {
		return
	}
	node := enclosingFuncNode(stack)
	m.accesses = append(m.accesses, ownAccess{
		field:   v,
		pos:     sel.Sel.Pos(),
		write:   write,
		node:    node,
		decl:    protEnclosingDecl(m.pkg, stack),
		stmt:    enclosingBlockStmt(stack, at),
		root:    chainRoot(m.pkg.Info, sel),
		spawned: m.spawned[node],
	})
}

// chainRoot returns the variable at the base of a selector chain
// (w in w.local[i].n), or nil when the base is not a plain variable.
func chainRoot(info *types.Info, e ast.Expr) *types.Var {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.Ident:
			v, _ := info.Uses[x].(*types.Var)
			return v
		default:
			return nil
		}
	}
}

func (m *ownModel) cfgOf(node ast.Node) *cfgIndex {
	if ix, ok := m.cfgs[node]; ok {
		return ix
	}
	body := funcNodeBody(node)
	if body == nil {
		return nil
	}
	ix := indexCFG(BuildCFG(body))
	m.cfgs[node] = ix
	return ix
}

// siteLoc locates a recorded site in its function's CFG.
func (m *ownModel) siteLoc(node ast.Node, stmt ast.Stmt) (*Block, int, bool) {
	ix := m.cfgOf(node)
	if ix == nil || stmt == nil {
		return nil, 0, false
	}
	if b, ok := ix.blk[stmt]; ok {
		return b, ix.ord[stmt], true
	}
	return nil, 0, false
}

func (m *ownModel) check() {
	owned := make(map[*types.Var]bool)
	for _, a := range m.accesses {
		if a.spawned && a.write {
			owned[a.field] = true
		}
	}
	if len(owned) == 0 {
		return
	}

	reportedLine := make(map[string]bool)
	for _, a := range m.accesses {
		if !owned[a.field] || a.spawned {
			continue
		}
		if m.exemptAccess(a) {
			continue
		}
		p := m.pass.Fset.Position(a.pos)
		key := fmt.Sprintf("%s:%d", p.Filename, p.Line)
		if reportedLine[key] {
			continue
		}
		reportedLine[key] = true
		verb := "read"
		if a.write {
			verb = "write"
		}
		m.pass.Reportf(a.pos,
			"field %s is written from a spawned goroutine; this %s outside it has no Wait barrier between the spawn and here (move it after wg.Wait/the merge, or //vaxlint:allow onewriter)",
			a.field.Name(), verb)
	}
}

// exemptAccess applies the construction / pre-spawn / post-barrier rules.
func (m *ownModel) exemptAccess(a ownAccess) bool {
	ix := m.cfgOf(a.node)
	ablk, aord, aok := m.siteLoc(a.node, a.stmt)
	spawns := m.spawns[a.node]

	// Construction: through a fresh local in a function that spawns
	// nothing — the struct is not published yet.
	if len(spawns) == 0 && a.root != nil && m.fresh[a.node][a.root] {
		return true
	}

	// Pre-spawn: no `go` statement in this function can reach the access.
	if len(spawns) > 0 && aok && ix != nil {
		before := true
		for _, s := range spawns {
			sblk, sord, sok := m.siteLoc(s.node, s.stmt)
			if !sok || ix.ordered(sblk, sord, ablk, aord) {
				before = false
				break
			}
		}
		if before {
			return true
		}
	}

	// Post-barrier, same function: a Wait provably precedes the access.
	if aok {
		for _, w := range m.waits[a.node] {
			wblk, word, wok := m.siteLoc(w.node, w.stmt)
			if wok && ix.ordered(wblk, word, ablk, aord) {
				return true
			}
		}
	}

	// Post-barrier, one call level out: every static call site of the
	// enclosing function sits after a Wait in its caller — the farm's
	// merge-after-drain shape.
	if a.decl != nil && len(spawns) == 0 {
		sites := m.calls[a.decl]
		if len(sites) > 0 {
			all := true
			for _, cs := range sites {
				cblk, cord, cok := m.siteLoc(cs.node, cs.stmt)
				if !cok {
					all = false
					break
				}
				cix := m.cfgOf(cs.node)
				after := false
				for _, w := range m.waits[cs.node] {
					wblk, word, wok := m.siteLoc(w.node, w.stmt)
					if wok && cix.ordered(wblk, word, cblk, cord) {
						after = true
						break
					}
				}
				if !after {
					all = false
					break
				}
			}
			if all {
				return true
			}
		}
	}
	return false
}

// isCompositeBuilt reports whether e is T{...} or &T{...}.
func isCompositeBuilt(e ast.Expr) bool {
	e = ast.Unparen(e)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = ast.Unparen(u.X)
	}
	_, ok := e.(*ast.CompositeLit)
	return ok
}
