package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"
)

// µflow handle model. The attribution analyzers (uwflow, uwdead) and the
// ulat latency derivation share one view of the world:
//
//   - a *handle* is one Define()d microword: its folded name (wildcards
//     for computed segments, exactly as uwref folds them), its declared
//     ucode.Row and ucode.Class — identified by the *names* of the
//     constants, so fixtures with a mirror mini-ucode package exercise
//     the same code paths as the real tree;
//   - a *binding* maps a types.Object (a handle-struct field, a package
//     var) to the set of handles that can live in it. Bindings come from
//     the syntax of the Define call (struct-literal keys, field
//     assignments in builder helpers like defSpecBank — instantiated at
//     their call sites) and cross package boundaries as object facts;
//   - a *count channel* is one of the four counting primitives on the
//     Machine: tick/ticks (the execution channel), stall (the read/write
//     stall channel), ibStallTick (the dedicated IB-stall locations of
//     §4.3), and tickFree (the folded-marker channel the ablation
//     flips). Raw Probe.Count/Probe.Stall calls outside the primitives
//     are channels too;
//   - the *dataflow* (dataflow.go) answers, per function and per CFG
//     block, which handles each local value may hold, so a handle is
//     followed through locals, parameters and helper calls to the
//     channel it is counted on.
//
// The model is deliberately a may-analysis: sets only grow, so every
// verdict that depends on absence ("never reaches a count site", "no
// stall on any path") is computed against an over-approximation of the
// true flows. What the model cannot see — calls through function values
// and interfaces, handles smuggled through the heap — is documented in
// DESIGN.md §12.

// uwChannel names one counting channel.
type uwChannel string

const (
	chExec    uwChannel = "exec"    // Machine.tick / Machine.ticks / Probe.Count
	chStall   uwChannel = "stall"   // Machine.stall / Probe.Stall
	chIBStall uwChannel = "ibstall" // Machine.ibStallTick
	chFree    uwChannel = "free"    // Machine.tickFree (folded-marker ablation)
)

// uwHandle is one defined microword.
type uwHandle struct {
	Name  string // folded dot-path; '*' for computed segments
	Row   string // Row constant name ("RowSimple"); "" when not statically known
	Class string // Class constant name ("ClassRead"); "" when not statically known
	Pos   token.Pos
}

// uwHandleData is the fact-serializable core of a handle.
type uwHandleData struct {
	Name, Row, Class string
}

// uwObjFact carries handle knowledge about one object across packages
// (the store holds one fact per object, so bindings and store tables
// share a type). On a field or package-var object (Store false) it lists
// the handles the object may hold; on a package-level control-store
// variable (Store true) it lists every handle defined in that store, so
// MustLookup("name") call sites in importing packages resolve to
// row/class without seeing the Define.
type uwObjFact struct {
	Handles []uwHandleData
	Store   bool
}

func (*uwObjFact) AFact() {}

// uwChanFact summarizes a function for its importers: for each parameter,
// the set of count channels the parameter's value may reach inside the
// callee (transitively), and the set of microword Class constant names
// observed flowing into the parameter from the callers the exporting pass
// analyzed (the class inflow, promoted to an object fact so an importer
// can judge a helper's parameters without seeing the helper's callers).
type uwChanFact struct {
	Params [][]string
	Inflow [][]string
}

func (*uwChanFact) AFact() {}

// uwModel is the shared analysis state over one set of packages: the
// package under analysis for the fact-passing uwflow, the whole load
// for the module-wide reachability proof (uwdead) and for ulat.
type uwModel struct {
	pass *Pass
	pkgs []*Package

	handles  []uwHandle
	hIndex   map[string]int         // dedup key → index into handles
	byObj    map[types.Object][]int // bindings
	defSite  map[token.Pos]int      // Define name-arg position → handle
	stores   map[types.Object]bool  // package-level control-store vars
	storeTab map[types.Object][]int // imported store namespaces
	probed   map[types.Object]bool  // objects whose fact import was attempted

	flows   map[*types.Func]*funcFlow
	flowLst []*funcFlow // deterministic iteration order
	summary map[*types.Func][]chanSet
	inflow  map[*types.Func][]classSet
	sumSeen map[*types.Func]bool // functions whose summary fact import was attempted

	// Closures get real summaries and inflows, keyed by their literal:
	// a literal registered in a handler table is a callee like any other.
	litFlows   map[*ast.FuncLit]*funcFlow
	litSummary map[*ast.FuncLit][]chanSet
	litInflow  map[*ast.FuncLit][]classSet

	// funcVals is the type-based callee approximation for calls through
	// *named* function types (the execTable shape): every value of the
	// type collected anywhere in the analyzed packages is a candidate.
	funcVals map[*types.TypeName][]FuncValue
}

type chanSet map[uwChannel]bool

type classSet map[string]bool

// buildUWModel collects handles, bindings and per-function flows over
// pkgs, then computes channel summaries (bottom-up) and parameter class
// inflows (top-down) to a fixed point. When the pass is package-level the
// bindings, store tables and summaries are exported as object facts for
// importing packages.
func buildUWModel(pass *Pass, pkgs []*Package) *uwModel {
	m := &uwModel{
		pass:       pass,
		pkgs:       pkgs,
		hIndex:     make(map[string]int),
		byObj:      make(map[types.Object][]int),
		defSite:    make(map[token.Pos]int),
		stores:     make(map[types.Object]bool),
		storeTab:   make(map[types.Object][]int),
		probed:     make(map[types.Object]bool),
		flows:      make(map[*types.Func]*funcFlow),
		summary:    make(map[*types.Func][]chanSet),
		inflow:     make(map[*types.Func][]classSet),
		sumSeen:    make(map[*types.Func]bool),
		litFlows:   make(map[*ast.FuncLit]*funcFlow),
		litSummary: make(map[*ast.FuncLit][]chanSet),
		litInflow:  make(map[*ast.FuncLit][]classSet),
	}
	m.funcVals = FuncValues(pkgs)
	m.collectHandles()
	m.exportBindings()
	for _, pkg := range pkgs {
		for _, fd := range PackageFuncs(pkg) {
			if ch, _, ok := channelOf(fd.Obj); ok && ch != "" {
				continue // the primitives ARE the channels; their bodies are not re-derived
			}
			m.flowFunc(pkg, fd)
		}
		// Function literals get their own flows: site extraction skips
		// nested literals, so walking every literal in the file covers
		// each body exactly once, however deeply the closures nest.
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					m.flowLit(pkg, lit)
				}
				return true
			})
		}
	}
	m.computeSummaries()
	m.computeInflows()
	m.exportSummaries()
	return m
}

// addHandle interns a handle, deduplicating by (name, row, class).
func (m *uwModel) addHandle(h uwHandle) int {
	key := h.Name + "\x00" + h.Row + "\x00" + h.Class
	if i, ok := m.hIndex[key]; ok {
		return i
	}
	i := len(m.handles)
	m.handles = append(m.handles, h)
	m.hIndex[key] = i
	return i
}

func (m *uwModel) bind(obj types.Object, idx int) {
	if obj == nil {
		return
	}
	for _, have := range m.byObj[obj] {
		if have == idx {
			return
		}
	}
	m.byObj[obj] = append(m.byObj[obj], idx)
}

// uwTemplate is a Define whose name or row depends on parameters of its
// enclosing builder function; it is instantiated at the builder's call
// sites, exactly like uwref instantiates name templates.
type uwTemplate struct {
	fn         *types.Func
	params     []string // parameter names in call-argument order
	pattern    string   // folded name with \x00param\x00 markers
	class      string   // resolved class constant, or ""
	classParam int      // parameter index supplying the class, or -1
	row        string   // resolved row constant, or ""
	rowParam   int      // parameter index supplying the row, or -1
	bindObj    types.Object
}

// collectHandles walks every Define/def call in the model's packages,
// interning handles and recording which object each one is bound to.
func (m *uwModel) collectHandles() {
	var tmpls []uwTemplate
	for _, pkg := range m.pkgs {
		m.collectStores(pkg)
		WalkWithStack(pkg, func(stack []ast.Node, n ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isDefineCall(call) || len(call.Args) < 3 {
				return
			}
			fd := enclosingFunc(stack)
			params := paramNames(fd)
			name, nameUsesParam := foldName(pkg, call.Args[0], params)
			row, rowParam := constNameOf(pkg, call.Args[1], params)
			class, classParam := constNameOf(pkg, call.Args[2], params)
			bindObj := bindTarget(pkg, stack, call)
			if (nameUsesParam || rowParam >= 0 || classParam >= 0) && fd != nil {
				if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					tmpls = append(tmpls, uwTemplate{
						fn: obj, params: params, pattern: name,
						class: class, classParam: classParam,
						row: row, rowParam: rowParam,
						bindObj: bindObj,
					})
					return
				}
			}
			idx := m.addHandle(uwHandle{Name: name, Row: row, Class: class, Pos: call.Args[0].Pos()})
			m.defSite[call.Args[0].Pos()] = idx
			m.bind(bindObj, idx)
		})
	}
	m.instantiate(tmpls)
}

// collectStores records the package-level variables holding a control
// store (a type named Store, by value or pointer) so MustLookup call
// sites can be resolved against the right namespace.
func (m *uwModel) collectStores(pkg *Package) {
	scope := pkg.Types.Scope()
	for _, name := range scope.Names() {
		v, ok := scope.Lookup(name).(*types.Var)
		if !ok {
			continue
		}
		t := v.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok && named.Obj().Name() == "Store" {
			m.stores[v] = true
		}
	}
}

// instantiate resolves parameter-dependent Defines at the builder's call
// sites: defSpecBank("spec1", RowSpec1) turns the template for
// "\x00prefix\x00.stall" into the handle ("spec1.stall", RowSpec1,
// ClassIBStall), bound to the same field object the builder assigns.
func (m *uwModel) instantiate(tmpls []uwTemplate) {
	for _, t := range tmpls {
		if t.fn == nil {
			continue
		}
		instantiated := false
		for _, pkg := range m.pkgs {
			for _, file := range pkg.Files {
				ast.Inspect(file, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok || Callee(pkg.Info, call) != t.fn {
						return true
					}
					name := t.pattern
					for i, p := range t.params {
						val := "*"
						if i < len(call.Args) {
							if lit, ok := call.Args[i].(*ast.BasicLit); ok && lit.Kind == token.STRING {
								if s, err := strconv.Unquote(lit.Value); err == nil {
									val = s
								}
							}
						}
						name = strings.ReplaceAll(name, "\x00"+p+"\x00", val)
					}
					name = collapseStars(name)
					if name == "*" {
						// A fully computed name (the def wrapper called with a
						// Sprintf argument, say) carries no information; the
						// defining call collects the real handle itself.
						instantiated = true
						return true
					}
					row := t.row
					if t.rowParam >= 0 && t.rowParam < len(call.Args) {
						row, _ = constNameOf(pkg, call.Args[t.rowParam], nil)
					}
					class := t.class
					if t.classParam >= 0 && t.classParam < len(call.Args) {
						class, _ = constNameOf(pkg, call.Args[t.classParam], nil)
					}
					idx := m.addHandle(uwHandle{
						Name: name, Row: row, Class: class, Pos: call.Pos(),
					})
					m.bind(t.bindObj, idx)
					instantiated = true
					return true
				})
			}
		}
		if !instantiated {
			// Builder never called in the analyzed set: keep a wildcard
			// handle so the binding is not silently empty.
			idx := m.addHandle(uwHandle{
				Name: collapseStars(wildcardMarkers(t.pattern)), Row: t.row, Class: t.class,
				Pos: t.fn.Pos(),
			})
			m.bind(t.bindObj, idx)
		}
	}
}

// bindTarget finds the object a Define call's result is stored into:
// a keyed struct-literal field, the field or package var on the left of
// an assignment (possibly through an index expression), or the var of a
// declaration. Local variables are not bound — the dataflow tracks them
// flow-sensitively.
func bindTarget(pkg *Package, stack []ast.Node, call *ast.CallExpr) types.Object {
	for i := len(stack) - 1; i >= 0; i-- {
		switch parent := stack[i].(type) {
		case *ast.KeyValueExpr:
			if parent.Value != call {
				continue
			}
			if key, ok := parent.Key.(*ast.Ident); ok {
				if obj := pkg.Info.Uses[key]; isBindable(obj) {
					return obj
				}
			}
			return nil
		case *ast.AssignStmt:
			for j, rhs := range parent.Rhs {
				if rhs != call || j >= len(parent.Lhs) {
					continue
				}
				return lhsObject(pkg, parent.Lhs[j])
			}
			return nil
		case *ast.ValueSpec:
			for j, v := range parent.Values {
				if v != call || j >= len(parent.Names) {
					continue
				}
				if obj := pkg.Info.Defs[parent.Names[j]]; isBindable(obj) {
					return obj
				}
			}
			return nil
		case *ast.CallExpr, *ast.CompositeLit, *ast.IndexExpr, *ast.UnaryExpr, *ast.ParenExpr:
			continue // keep climbing through expression context
		default:
			return nil
		}
	}
	return nil
}

// lhsObject resolves an assignment target to a bindable object: a struct
// field (b.stall, b.dispatch[mode]) or a package-level variable.
func lhsObject(pkg *Package, lhs ast.Expr) types.Object {
	for {
		switch e := lhs.(type) {
		case *ast.IndexExpr:
			lhs = e.X
		case *ast.ParenExpr:
			lhs = e.X
		case *ast.SelectorExpr:
			if obj := pkg.Info.Uses[e.Sel]; isBindable(obj) {
				return obj
			}
			return nil
		case *ast.Ident:
			if obj := pkg.Info.Uses[e]; isBindable(obj) {
				return obj
			}
			return nil
		default:
			return nil
		}
	}
}

// isBindable reports whether obj is a flow-insensitive binding target: a
// struct field or a package-level variable. (Fields are identified by
// IsField; package vars by a package-scope parent.)
func isBindable(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok {
		return false
	}
	if v.IsField() {
		return true
	}
	return v.Parent() != nil && v.Parent() == v.Pkg().Scope()
}

// constNameOf resolves an expression to the name of the constant it
// denotes ("RowSimple", "ClassRead"), or to the index of the enclosing
// function parameter it forwards. Returns ("", -1) when neither.
func constNameOf(pkg *Package, e ast.Expr, params []string) (string, int) {
	switch e := e.(type) {
	case *ast.Ident:
		for i, p := range params {
			if e.Name == p {
				return "", i
			}
		}
		if c, ok := pkg.Info.Uses[e].(*types.Const); ok {
			return c.Name(), -1
		}
	case *ast.SelectorExpr:
		if c, ok := pkg.Info.Uses[e.Sel].(*types.Const); ok {
			return c.Name(), -1
		}
	case *ast.ParenExpr:
		return constNameOf(pkg, e.X, params)
	}
	return "", -1
}

// channelOf classifies a function as one of the counting primitives,
// returning the channel and the index of the parameter that carries the
// microword. The primitives are methods of the Machine (tick, ticks,
// stall, ibStallTick, tickFree); the raw Probe interface calls are
// handled separately at call sites because interface dispatch has no
// static callee.
func channelOf(fn *types.Func) (uwChannel, int, bool) {
	if fn == nil {
		return "", 0, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", 0, false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != "Machine" {
		return "", 0, false
	}
	switch fn.Name() {
	case "tick", "ticks":
		return chExec, 0, true
	case "stall":
		return chStall, 0, true
	case "ibStallTick":
		return chIBStall, 0, true
	case "tickFree":
		return chFree, 0, true
	}
	return "", 0, false
}

// probeChannelOf classifies a call with no static callee as a raw probe
// channel: a Count or Stall method call on a value of an interface type
// named Probe.
func probeChannelOf(pkg *Package, call *ast.CallExpr) (uwChannel, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	var ch uwChannel
	switch sel.Sel.Name {
	case "Count":
		ch = chExec
	case "Stall":
		ch = chStall
	default:
		return "", false
	}
	tv, ok := pkg.Info.Types[sel.X]
	if !ok || !types.IsInterface(tv.Type) {
		return "", false
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok && named.Obj().Name() == "Probe" {
		return ch, true
	}
	return "", false
}

// exportBindings publishes the model's bindings, store tables and (later,
// from computeSummaries) channel summaries as object facts. Module-level
// passes have no fact store; they see the whole load at once and need
// none.
func (m *uwModel) exportBindings() {
	if m.pass.Pkg == nil {
		return
	}
	for obj, idxs := range m.byObj {
		if obj.Pkg() != m.pass.Pkg.Types {
			continue
		}
		f := &uwObjFact{}
		for _, i := range idxs {
			h := m.handles[i]
			f.Handles = append(f.Handles, uwHandleData{h.Name, h.Row, h.Class})
		}
		sort.Slice(f.Handles, func(a, b int) bool { return f.Handles[a].Name < f.Handles[b].Name })
		m.pass.ExportObjectFact(obj, f)
	}
	if len(m.handles) == 0 {
		return
	}
	for store := range m.stores {
		if store.Pkg() != m.pass.Pkg.Types {
			continue
		}
		f := &uwObjFact{Store: true}
		for _, h := range m.handles {
			f.Handles = append(f.Handles, uwHandleData{h.Name, h.Row, h.Class})
		}
		sort.Slice(f.Handles, func(a, b int) bool { return f.Handles[a].Name < f.Handles[b].Name })
		m.pass.ExportObjectFact(store, f)
	}
}

// probeObj imports the fact for an object declared outside the analyzed
// packages (once), interning its handles as a binding or a store table.
func (m *uwModel) probeObj(obj types.Object) {
	if obj == nil || m.probed[obj] {
		return
	}
	if _, ok := obj.(*types.Var); !ok {
		return // only vars carry bindings or store tables (funcs carry uwChanFacts)
	}
	m.probed[obj] = true
	var f uwObjFact
	if !m.pass.ImportObjectFact(obj, &f) {
		return
	}
	idxs := make([]int, 0, len(f.Handles))
	for _, h := range f.Handles {
		idxs = append(idxs, m.addHandle(uwHandle{Name: h.Name, Row: h.Row, Class: h.Class, Pos: obj.Pos()}))
	}
	if f.Store {
		m.stores[obj] = true
		m.storeTab[obj] = idxs
	} else {
		m.byObj[obj] = idxs
	}
}

// binding returns the handle set an object may hold, importing a
// cross-package fact on first touch.
func (m *uwModel) binding(obj types.Object) []int {
	if obj == nil {
		return nil
	}
	if idxs, ok := m.byObj[obj]; ok {
		return idxs
	}
	m.probeObj(obj)
	return m.byObj[obj]
}

// storeHandles returns the namespace of the store object: for a store of
// the analyzed packages, every collected handle; for an imported store,
// the handles of its store fact.
func (m *uwModel) storeHandles(obj types.Object) []int {
	if obj == nil {
		return nil
	}
	if m.stores[obj] && (obj.Pkg() == nil || m.isLocalPkg(obj.Pkg())) {
		all := make([]int, len(m.handles))
		for i := range m.handles {
			all[i] = i
		}
		return all
	}
	m.probeObj(obj)
	return m.storeTab[obj]
}

func (m *uwModel) isLocalPkg(p *types.Package) bool {
	for _, pkg := range m.pkgs {
		if pkg.Types == p {
			return true
		}
	}
	return false
}

// summaryOf returns the channel summary of fn — per parameter, the
// channels the parameter may reach — from the primitives, the local
// fixed point, or an imported fact.
func (m *uwModel) summaryOf(fn *types.Func) []chanSet {
	if fn == nil {
		return nil
	}
	if ch, hp, ok := channelOf(fn); ok {
		sig := fn.Type().(*types.Signature)
		s := make([]chanSet, sig.Params().Len())
		if hp < len(s) {
			s[hp] = chanSet{ch: true}
		}
		return s
	}
	if s, ok := m.summary[fn]; ok {
		return s
	}
	if m.sumSeen[fn] {
		return nil
	}
	m.sumSeen[fn] = true
	var f uwChanFact
	if !m.pass.ImportObjectFact(fn, &f) {
		return nil
	}
	s := make([]chanSet, len(f.Params))
	for i, chans := range f.Params {
		if len(chans) == 0 {
			continue
		}
		s[i] = make(chanSet)
		for _, ch := range chans {
			s[i][uwChannel(ch)] = true
		}
	}
	m.summary[fn] = s
	// The fact also carries the class inflow the exporting pass observed;
	// importing it seeds this pass's view of the helper's parameters.
	if len(f.Inflow) > 0 && m.inflow[fn] == nil {
		in := make([]classSet, len(f.Inflow))
		for i, classes := range f.Inflow {
			if len(classes) == 0 {
				continue
			}
			in[i] = make(classSet)
			for _, c := range classes {
				in[i][c] = true
			}
		}
		m.inflow[fn] = in
	}
	return s
}

// summaryOfLit returns the channel summary of a function literal computed
// by the local fixed point (closures never cross packages as facts: a
// literal's identity is its AST node).
func (m *uwModel) summaryOfLit(lit *ast.FuncLit) []chanSet {
	return m.litSummary[lit]
}

// dynSummary unions the channel summaries of every candidate callee of a
// call through the named function type tn — every function or literal
// used anywhere in the analyzed packages as a value of that type. When
// localChecked is true, candidates whose bodies this pass analyzes are
// skipped: their interior sites are judged directly (with inflow-borne
// classes), so re-judging them through the union would double-report.
func (m *uwModel) dynSummary(tn *types.TypeName, localChecked bool) []chanSet {
	sig, ok := tn.Type().Underlying().(*types.Signature)
	if !ok {
		return nil
	}
	out := make([]chanSet, sig.Params().Len())
	for _, cand := range m.funcVals[tn] {
		var cs []chanSet
		switch {
		case cand.Lit != nil:
			if localChecked {
				continue
			}
			cs = m.summaryOfLit(cand.Lit)
		case cand.Fn != nil:
			if localChecked && m.flows[cand.Fn] != nil {
				continue
			}
			cs = m.summaryOf(cand.Fn)
		}
		for j := 0; j < len(cs) && j < len(out); j++ {
			for ch := range cs[j] {
				if out[j] == nil {
					out[j] = make(chanSet)
				}
				out[j][ch] = true
			}
		}
	}
	return out
}

// computeSummaries iterates the bottom-up parameter→channel fixed point:
// if a function's (or literal's) parameter flows into a call whose own
// parameter reaches a channel, the caller's parameter reaches it too.
// Calls through named function types contribute the union of their
// candidates' summaries, so a handler registered in a table is seen
// through the table's call site.
func (m *uwModel) computeSummaries() {
	for changed := true; changed; {
		changed = false
		for _, flow := range m.flowLst {
			for _, site := range flow.sites {
				var cs []chanSet
				switch {
				case site.probeCh != "":
					cs = []chanSet{{site.probeCh: true}}
				case site.dyn != nil:
					cs = m.dynSummary(site.dyn, false)
				default:
					cs = m.summaryOf(site.callee)
				}
				if cs == nil {
					continue
				}
				for j := 0; j < len(cs) && j < len(site.args); j++ {
					if len(cs[j]) == 0 {
						continue
					}
					for p := range site.args[j].params {
						pi, ok := flow.paramIdx[p]
						if !ok {
							continue
						}
						if flow.fn != nil {
							if m.mergeSummary(flow.fn, pi, cs[j]) {
								changed = true
							}
						} else if flow.lit != nil {
							if m.mergeLitSummary(flow, pi, cs[j]) {
								changed = true
							}
						}
					}
				}
			}
		}
	}
}

// exportSummaries publishes the channel summaries and class inflows of
// the package's functions as uwChanFact object facts, after both fixed
// points have run. Module-level passes have no fact store and need none.
func (m *uwModel) exportSummaries() {
	if m.pass.Pkg == nil {
		return
	}
	export := make(map[*types.Func]bool)
	for fn := range m.summary {
		export[fn] = true
	}
	for fn := range m.inflow {
		export[fn] = true
	}
	for fn := range export {
		if fn.Pkg() != m.pass.Pkg.Types || m.flows[fn] == nil {
			continue
		}
		n := fn.Type().(*types.Signature).Params().Len()
		f := &uwChanFact{Params: make([][]string, n), Inflow: make([][]string, n)}
		any := false
		for i, set := range m.summary[fn] {
			for ch := range set {
				f.Params[i] = append(f.Params[i], string(ch))
				any = true
			}
			sort.Strings(f.Params[i])
		}
		for i, classes := range m.inflow[fn] {
			if i >= n {
				break
			}
			for c := range classes {
				f.Inflow[i] = append(f.Inflow[i], c)
				any = true
			}
			sort.Strings(f.Inflow[i])
		}
		if any {
			m.pass.ExportObjectFact(fn, f)
		}
	}
}

func (m *uwModel) mergeSummary(fn *types.Func, param int, chans chanSet) bool {
	s := m.summary[fn]
	if s == nil {
		sig := fn.Type().(*types.Signature)
		s = make([]chanSet, sig.Params().Len())
		m.summary[fn] = s
	}
	return mergeChanSet(s, param, chans)
}

func (m *uwModel) mergeLitSummary(flow *funcFlow, param int, chans chanSet) bool {
	s := m.litSummary[flow.lit]
	if s == nil {
		s = make([]chanSet, flow.nparams)
		m.litSummary[flow.lit] = s
	}
	return mergeChanSet(s, param, chans)
}

func mergeChanSet(s []chanSet, param int, chans chanSet) bool {
	if param >= len(s) {
		return false
	}
	if s[param] == nil {
		s[param] = make(chanSet)
	}
	changed := false
	for ch := range chans {
		if !s[param][ch] {
			s[param][ch] = true
			changed = true
		}
	}
	return changed
}

// computeInflows iterates the top-down caller→parameter fixed point: the
// classes of every value passed at every call site accumulate on the
// callee's parameters, so checks inside a helper know what a bare uint16
// parameter stands for. Inflow is computed over the analyzed packages
// only — the counting primitives are unexported, so every caller of a
// counting helper is visible to the pass that analyzes internal/cpu.
func (m *uwModel) computeInflows() {
	for changed := true; changed; {
		changed = false
		for _, flow := range m.flowLst {
			for _, site := range flow.sites {
				// A call through a named function type feeds every
				// candidate value of the type: the handler-table dispatch
				// becomes inflow on each registered handler or literal.
				if site.dyn != nil {
					for _, cand := range m.funcVals[site.dyn] {
						for j := range site.args {
							classes := m.classesOf(flow, site.args[j])
							if len(classes) == 0 {
								continue
							}
							switch {
							case cand.Lit != nil:
								if m.mergeLitInflow(cand.Lit, j, classes) {
									changed = true
								}
							case cand.Fn != nil && m.flows[cand.Fn] != nil:
								if m.mergeInflow(cand.Fn, j, classes) {
									changed = true
								}
							}
						}
					}
					continue
				}
				callee := site.callee
				if callee == nil || m.flows[callee] == nil {
					continue
				}
				for j := range site.args {
					classes := m.classesOf(flow, site.args[j])
					if len(classes) == 0 {
						continue
					}
					if m.mergeInflow(callee, j, classes) {
						changed = true
					}
				}
			}
		}
	}
}

func (m *uwModel) mergeInflow(fn *types.Func, param int, classes classSet) bool {
	s := m.inflow[fn]
	if s == nil {
		sig := fn.Type().(*types.Signature)
		s = make([]classSet, sig.Params().Len())
		m.inflow[fn] = s
	}
	return mergeClassSet(s, param, classes)
}

func (m *uwModel) mergeLitInflow(lit *ast.FuncLit, param int, classes classSet) bool {
	flow := m.litFlows[lit]
	if flow == nil {
		return false
	}
	s := m.litInflow[lit]
	if s == nil {
		s = make([]classSet, flow.nparams)
		m.litInflow[lit] = s
	}
	return mergeClassSet(s, param, classes)
}

func mergeClassSet(s []classSet, param int, classes classSet) bool {
	if param >= len(s) {
		return false
	}
	if s[param] == nil {
		s[param] = make(classSet)
	}
	changed := false
	for c := range classes {
		if !s[param][c] {
			s[param][c] = true
			changed = true
		}
	}
	return changed
}

// classesOf folds a value to the set of Class constant names it may
// carry: the classes of its handles plus, for parameter origins, the
// classes flowing into that parameter from the callers analyzed so far.
func (m *uwModel) classesOf(flow *funcFlow, v valueSet) classSet {
	out := make(classSet)
	for i := range v.handles {
		if c := m.handles[i].Class; c != "" {
			out[c] = true
		}
	}
	for p := range v.params {
		pi, ok := flow.paramIdx[p]
		if !ok {
			continue
		}
		var in []classSet
		if flow.fn != nil {
			in = m.inflow[flow.fn]
		} else if flow.lit != nil {
			in = m.litInflow[flow.lit]
		}
		if in != nil && pi < len(in) {
			for c := range in[pi] {
				out[c] = true
			}
		}
	}
	return out
}

// handleNames renders the (sorted, capped) microword names of a value for
// diagnostics. A value with no concrete handle (a parameter whose classes
// arrive by inflow) is named by its parameter instead.
func (m *uwModel) handleNames(v valueSet) string {
	var names []string
	for i := range v.handles {
		names = append(names, m.handles[i].Name)
	}
	if len(names) == 0 {
		for p := range v.params {
			names = append(names, "parameter "+p.Name())
		}
	}
	sort.Strings(names)
	if len(names) > 3 {
		names = append(names[:3], "…")
	}
	return strings.Join(names, ", ")
}
