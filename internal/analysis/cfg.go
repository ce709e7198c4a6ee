package analysis

import (
	"go/ast"
	"go/token"
)

// Intraprocedural control-flow graphs over go/ast, the substrate of the
// µflow dataflow engine (dataflow.go). One CFG per function body; blocks
// hold statements in execution order and successor edges cover the
// structured control flow Go has: if/else, for/range (including break,
// continue, labels), switch (with fallthrough), type switch, select,
// goto, and return. Deferred statements are modeled by appending them, in
// reverse registration order, to the function's single exit block — that
// is where they run, and it keeps handle flows inside deferred calls
// visible to the fixed point without simulating the defer stack.
//
// Panic edges are not modeled: a statement that panics leaves the
// function abruptly, so treating execution as falling through to the
// next statement only ever *adds* paths. For the forward may-analysis
// built on top (which unions over paths) that is a sound
// over-approximation.

// Block is one basic block: a maximal straight-line statement sequence.
type Block struct {
	Index int
	Stmts []ast.Stmt
	Succs []*Block
}

// CFG is the control-flow graph of one function body.
type CFG struct {
	Blocks []*Block // Blocks[0] is the entry block
	Exit   *Block   // the single exit block; deferred stmts live here
}

// cfgBuilder carries the state of one CFG construction.
type cfgBuilder struct {
	cfg *CFG
	cur *Block // current block, nil when the flow is dead (after return/goto)

	// breakTo/continueTo are stacks of jump targets; label is "" for the
	// innermost unlabeled form.
	breaks    []jumpTarget
	continues []jumpTarget

	labels     map[string]*Block // goto/labeled-statement targets
	defers     []ast.Stmt        // deferred statements, registration order
	labelStack []labeledStmt     // labels waiting to be claimed by their statement
}

type jumpTarget struct {
	label string
	block *Block
}

// BuildCFG constructs the CFG of a function body.
func BuildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{cfg: &CFG{}, labels: make(map[string]*Block)}
	entry := b.newBlock()
	exit := b.newBlock()
	b.cfg.Exit = exit
	b.cur = entry
	b.stmtList(body.List)
	b.jumpTo(exit) // fall off the end of the body
	for i := len(b.defers) - 1; i >= 0; i-- {
		exit.Stmts = append(exit.Stmts, b.defers[i])
	}
	// Entry must stay Blocks[0]; swap exit to the end for readability.
	return b.cfg
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

// jumpTo adds an edge cur→dst and kills the current flow.
func (b *cfgBuilder) jumpTo(dst *Block) {
	if b.cur != nil {
		b.cur.Succs = append(b.cur.Succs, dst)
	}
	b.cur = nil
}

// startBlock begins dst as the new current block.
func (b *cfgBuilder) startBlock(dst *Block) { b.cur = dst }

// emit appends a statement to the current block, reviving dead flow into
// a fresh unreachable block so syntactically-dead code is still scanned
// (its env stays bottom, so it cannot create flow findings, but direct
// handle references in it still count for uwdead).
func (b *cfgBuilder) emit(s ast.Stmt) {
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	b.cur.Stmts = append(b.cur.Stmts, s)
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// labelTarget returns (creating on demand) the block a goto or labeled
// statement resolves to.
func (b *cfgBuilder) labelTarget(name string) *Block {
	if blk, ok := b.labels[name]; ok {
		return blk
	}
	blk := b.newBlock()
	b.labels[name] = blk
	return blk
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.IfStmt:
		if s.Init != nil {
			b.emit(s.Init)
		}
		b.emit(&ast.ExprStmt{X: s.Cond})
		condBlk := b.cur
		after := b.newBlock()
		thenBlk := b.newBlock()
		condBlk.Succs = append(condBlk.Succs, thenBlk)
		b.startBlock(thenBlk)
		b.stmt(s.Body)
		b.jumpTo(after)
		if s.Else != nil {
			elseBlk := b.newBlock()
			condBlk.Succs = append(condBlk.Succs, elseBlk)
			b.startBlock(elseBlk)
			b.stmt(s.Else)
			b.jumpTo(after)
		} else {
			condBlk.Succs = append(condBlk.Succs, after)
		}
		b.startBlock(after)

	case *ast.ForStmt:
		if s.Init != nil {
			b.emit(s.Init)
		}
		head := b.newBlock()
		body := b.newBlock()
		after := b.newBlock()
		post := after // continue target; the post statement runs on the back edge
		if s.Post != nil {
			post = b.newBlock()
		}
		b.jumpTo(head)
		b.startBlock(head)
		if s.Cond != nil {
			b.emit(&ast.ExprStmt{X: s.Cond})
			head = b.cur
			head.Succs = append(head.Succs, after)
		}
		head = b.cur
		head.Succs = append(head.Succs, body)
		label := b.pendingLabel(s)
		contTo := head
		if s.Post != nil {
			contTo = post
		}
		b.pushLoop(label, after, contTo)
		b.startBlock(body)
		b.stmt(s.Body)
		b.popLoop()
		if s.Post != nil {
			b.jumpTo(post)
			b.startBlock(post)
			b.emit(s.Post)
			b.jumpTo(head)
		} else {
			b.jumpTo(head)
		}
		// For a condition-less `for {}` there is no head→after edge: after
		// is reachable only via break.
		b.startBlock(after)

	case *ast.RangeStmt:
		b.emit(&ast.ExprStmt{X: s.X})
		head := b.newBlock()
		body := b.newBlock()
		after := b.newBlock()
		b.jumpTo(head)
		head.Succs = append(head.Succs, body, after)
		label := b.pendingLabel(s)
		b.pushLoop(label, after, head)
		b.startBlock(body)
		b.stmt(s.Body)
		b.popLoop()
		b.jumpTo(head)
		b.startBlock(after)

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.emit(s.Init)
		}
		if s.Tag != nil {
			b.emit(&ast.ExprStmt{X: s.Tag})
		}
		b.switchBody(s, s.Body, false)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.emit(s.Init)
		}
		b.emit(s.Assign)
		b.switchBody(s, s.Body, false)

	case *ast.SelectStmt:
		b.switchBody(s, s.Body, true)

	case *ast.LabeledStmt:
		target := b.labelTarget(s.Label.Name)
		b.jumpTo(target)
		b.startBlock(target)
		// Loops and switches consume the label for break/continue targets.
		b.labelStack = append(b.labelStack, labeledStmt{s.Label.Name, s.Stmt})
		b.stmt(s.Stmt)
		b.labelStack = b.labelStack[:len(b.labelStack)-1]

	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			b.jumpTo(b.findTarget(b.breaks, s.Label))
		case token.CONTINUE:
			b.jumpTo(b.findTarget(b.continues, s.Label))
		case token.GOTO:
			b.jumpTo(b.labelTarget(s.Label.Name))
		case token.FALLTHROUGH:
			// Handled structurally in switchBody; nothing to do here.
		}

	case *ast.ReturnStmt:
		b.emit(s)
		b.jumpTo(b.cfg.Exit)

	case *ast.DeferStmt:
		b.defers = append(b.defers, &ast.ExprStmt{X: s.Call})

	case *ast.GoStmt:
		b.emit(&ast.ExprStmt{X: s.Call})

	default:
		// Expression, assignment, declaration, send, inc/dec, empty.
		b.emit(s)
	}
}

// labeledStmt records a label waiting to be claimed by the loop or switch
// statement it labels.
type labeledStmt struct {
	name string
	stmt ast.Stmt
}

// labelStack is managed inside cfgBuilder via an embedded field (declared
// here to keep the struct definition above focused on the graph state).
func (b *cfgBuilder) pendingLabel(s ast.Stmt) string {
	if n := len(b.labelStack); n > 0 && b.labelStack[n-1].stmt == s {
		return b.labelStack[n-1].name
	}
	return ""
}

func (b *cfgBuilder) pushLoop(label string, brk, cont *Block) {
	b.breaks = append(b.breaks, jumpTarget{"", brk})
	b.continues = append(b.continues, jumpTarget{"", cont})
	if label != "" {
		b.breaks = append(b.breaks, jumpTarget{label, brk})
		b.continues = append(b.continues, jumpTarget{label, cont})
	}
}

func (b *cfgBuilder) popLoop() {
	b.breaks = popTargets(b.breaks)
	b.continues = popTargets(b.continues)
}

// popTargets removes the innermost unlabeled target and, if the same
// block was also pushed under a label, that labeled alias too.
func popTargets(ts []jumpTarget) []jumpTarget {
	if n := len(ts); n >= 2 && ts[n-1].label != "" && ts[n-1].block == ts[n-2].block {
		return ts[:n-2]
	}
	return ts[:len(ts)-1]
}

func (b *cfgBuilder) findTarget(ts []jumpTarget, label *ast.Ident) *Block {
	if label != nil {
		for i := len(ts) - 1; i >= 0; i-- {
			if ts[i].label == label.Name {
				return ts[i].block
			}
		}
	}
	for i := len(ts) - 1; i >= 0; i-- {
		if ts[i].label == "" {
			return ts[i].block
		}
	}
	// break/continue outside any loop cannot type-check; route to exit so
	// a malformed tree still yields a well-formed graph.
	return b.cfg.Exit
}

// switchBody lowers switch/type-switch/select clause lists: every clause
// is a block branching from the dispatch point, all clauses join after,
// fallthrough chains a case into the next one, and a missing default adds
// a dispatch→after edge — for switches only. A select without a default
// does not fall through: it blocks until an arm is ready, so its only
// edges go to its arms, and the degenerate empty select{} has no
// successor at all (everything after it is dead, which is exactly what
// goleak reports).
func (b *cfgBuilder) switchBody(s ast.Stmt, body *ast.BlockStmt, isSelect bool) {
	dispatch := b.cur
	if dispatch == nil {
		dispatch = b.newBlock()
		b.cur = dispatch
	}
	after := b.newBlock()
	label := b.pendingLabel(s)
	b.breaks = append(b.breaks, jumpTarget{"", after})
	if label != "" {
		b.breaks = append(b.breaks, jumpTarget{label, after})
	}

	hasDefault := false
	var clauseBlocks []*Block
	var clauseStmts [][]ast.Stmt
	for _, cs := range body.List {
		var stmts []ast.Stmt
		var exprs []ast.Expr
		switch cs := cs.(type) {
		case *ast.CaseClause:
			stmts, exprs = cs.Body, cs.List
			if cs.List == nil {
				hasDefault = true
			}
		case *ast.CommClause:
			stmts = cs.Body
			if cs.Comm != nil {
				stmts = append([]ast.Stmt{cs.Comm}, stmts...)
			} else {
				hasDefault = true
			}
		default:
			continue
		}
		blk := b.newBlock()
		dispatch.Succs = append(dispatch.Succs, blk)
		// Case guard expressions are evaluated at the dispatch point.
		for _, e := range exprs {
			dispatch.Stmts = append(dispatch.Stmts, &ast.ExprStmt{X: e})
		}
		clauseBlocks = append(clauseBlocks, blk)
		clauseStmts = append(clauseStmts, stmts)
	}
	for i, blk := range clauseBlocks {
		b.startBlock(blk)
		b.stmtList(clauseStmts[i])
		if !isSelect && b.cur != nil && endsInFallthrough(clauseStmts[i]) && i+1 < len(clauseBlocks) {
			b.jumpTo(clauseBlocks[i+1])
		} else {
			b.jumpTo(after)
		}
	}
	if !isSelect && (!hasDefault || len(clauseBlocks) == 0) {
		dispatch.Succs = append(dispatch.Succs, after)
	}
	b.breaks = popTargets(b.breaks)
	b.startBlock(after)
}

func endsInFallthrough(stmts []ast.Stmt) bool {
	if len(stmts) == 0 {
		return false
	}
	br, ok := stmts[len(stmts)-1].(*ast.BranchStmt)
	return ok && br.Tok == token.FALLTHROUGH
}

// Reaches reports whether a path of at least one successor edge leads
// from src to dst. src == dst is true only when the block sits on a
// cycle; same-block ordering without a back edge is the caller's job
// (statement order decides it).
func (c *CFG) Reaches(src, dst *Block) bool {
	seen := make([]bool, len(c.Blocks))
	work := []*Block{src}
	for len(work) > 0 {
		blk := work[len(work)-1]
		work = work[:len(work)-1]
		for _, s := range blk.Succs {
			if s == dst {
				return true
			}
			if !seen[s.Index] {
				seen[s.Index] = true
				work = append(work, s)
			}
		}
	}
	return false
}

// cfgSCC is an iterative Tarjan over the CFG: comp maps each block index
// to its strongly connected component, numbered in Tarjan's emission
// order, and isLoop marks the components that cycle (more than one
// block, or a self edge). Every component is kept, escapable or not —
// a string-copy loop with a break is still a loop for latency purposes;
// goleak's sccLoops filters for the inescapable ones.
func cfgSCC(cfg *CFG) (comp []int, isLoop []bool) {
	n := len(cfg.Blocks)
	comp = make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int
	var compSizes []int
	next := 0

	type frame struct {
		v  int
		ei int
	}
	for root := 0; root < n; root++ {
		if index[root] != -1 {
			continue
		}
		var call []frame
		call = append(call, frame{root, 0})
		index[root] = next
		low[root] = next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(call) > 0 {
			f := &call[len(call)-1]
			blk := cfg.Blocks[f.v]
			if f.ei < len(blk.Succs) {
				wi := blk.Succs[f.ei].Index
				f.ei++
				if index[wi] == -1 {
					index[wi] = next
					low[wi] = next
					next++
					stack = append(stack, wi)
					onStack[wi] = true
					call = append(call, frame{wi, 0})
				} else if onStack[wi] && index[wi] < low[f.v] {
					low[f.v] = index[wi]
				}
				continue
			}
			v := f.v
			call = call[:len(call)-1]
			if len(call) > 0 {
				parent := call[len(call)-1].v
				if low[v] < low[parent] {
					low[parent] = low[v]
				}
			}
			if low[v] == index[v] {
				id := len(compSizes)
				size := 0
				for {
					wv := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[wv] = false
					comp[wv] = id
					size++
					if wv == v {
						break
					}
				}
				compSizes = append(compSizes, size)
			}
		}
	}

	isLoop = make([]bool, len(compSizes))
	for i, sz := range compSizes {
		if sz > 1 {
			isLoop[i] = true
		}
	}
	for _, blk := range cfg.Blocks {
		for _, s := range blk.Succs {
			if s.Index == blk.Index {
				isLoop[comp[blk.Index]] = true
			}
		}
	}
	return comp, isLoop
}
