// Package cfg builds intra-procedural control-flow graphs over go/ast
// function bodies, the substrate of the flow-sensitive simlint analyzers.
//
// The graph decomposes a function into basic blocks of straight-line
// statements connected by control edges. All Go control flow is modeled:
// if/else, for (including nil-condition and post-less forms), range,
// switch and type switch (with fallthrough), select (with and without
// default), labeled break and continue, goto (forward and backward, into
// and out of loops), and panic/return termination. Short-circuit `&&` and
// `||` conditions are decomposed into condition blocks, so a dataflow
// analysis observes that the right operand only evaluates when the left
// one did not decide the outcome.
//
// Constant conditions prune. When Options.ConstCond resolves a condition
// expression to a compile-time boolean — the load-bearing case is
// `if invariant.Enabled { ... }`, whose guard is the typed constant false
// outside simdebug builds — the builder emits only the live edge, so the
// dead arm becomes unreachable and flow-sensitive analyzers skip it
// exactly as the compiler discards it.
//
// Deferred calls do not execute where they appear; each *ast.DeferStmt is
// additionally collected in Graph.Defers so clients can analyze the
// deferred work as if appended at every function exit.
//
// The graph is conservative in the usual ways: every case body of a
// switch is a successor of the header (case-expression evaluation order
// is not chained), and a select without a default still reaches all of
// its communication clauses. Soundness caveats are catalogued in
// DESIGN.md §12.
package cfg

import (
	"go/ast"
	"go/token"
)

// Graph is the control-flow graph of one function body.
type Graph struct {
	// Blocks lists every basic block in creation order; Blocks[0] is the
	// entry. Blocks unreachable from the entry (dead code after return,
	// pruned constant branches) remain in the slice with no path from
	// Blocks[0]; Reachable distinguishes them.
	Blocks []*Block
	// Defers collects the function's defer statements in source order.
	// Their calls run at function exit, not at their block position.
	Defers []*ast.DeferStmt
}

// Entry returns the entry block.
func (g *Graph) Entry() *Block { return g.Blocks[0] }

// Block is one basic block: a maximal straight-line node sequence.
type Block struct {
	// Index is the block's position in Graph.Blocks.
	Index int
	// Kind names what created the block ("entry", "if.then", "for.body",
	// "select.comm", ...), for diagnostics and golden tests.
	Kind string
	// Nodes holds the block's statements and decomposed condition
	// expressions in execution order. Compound statements never appear
	// whole: an if contributes only its condition, a range only its
	// operands, so walking every node of every block visits each
	// expression exactly once.
	Nodes []ast.Node
	// Succs are the control-flow successors. For a condition block the
	// convention is Succs[0] = true edge, Succs[1] = false edge.
	Succs []*Block
}

// Options configures the builder.
type Options struct {
	// ConstCond, when non-nil, resolves condition expressions that are
	// compile-time boolean constants. Returning ok=true prunes the dead
	// edge. Typically backed by types.Info (see analyzers.ConstCond).
	ConstCond func(ast.Expr) (val, ok bool)
}

// New builds the control-flow graph of body.
func New(body *ast.BlockStmt, opts Options) *Graph {
	b := &builder{g: &Graph{}, opts: opts, labels: make(map[string]*labelInfo)}
	b.cur = b.newBlock("entry")
	b.stmt(body)
	return b.g
}

// Reachable returns, indexed by Block.Index, whether each block is
// reachable from the entry.
func (g *Graph) Reachable() []bool {
	seen := make([]bool, len(g.Blocks))
	stack := []*Block{g.Entry()}
	seen[g.Entry().Index] = true
	for len(stack) > 0 {
		blk := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range blk.Succs {
			if !seen[s.Index] {
				seen[s.Index] = true
				stack = append(stack, s)
			}
		}
	}
	return seen
}

// builder holds the in-progress graph and the control-flow context stacks.
type builder struct {
	g    *Graph
	cur  *Block
	opts Options

	// targets is the stack of enclosing breakable/continuable constructs.
	targets *targets
	// labels maps label names to their (possibly forward-declared) blocks.
	labels map[string]*labelInfo
	// pendingLabel is the label of the LabeledStmt being built, consumed
	// by the next loop/switch/select so labeled break/continue resolve.
	pendingLabel string
	// fallthroughTo is the next case body while building a switch clause.
	fallthroughTo *Block
}

// targets is one entry of the break/continue resolution stack.
type targets struct {
	tail      *targets
	label     string
	brk, cont *Block // cont is nil for switch/select entries
}

// labelInfo tracks one label: its block, created on first reference
// (LabeledStmt or goto, whichever is seen first).
type labelInfo struct {
	block *Block
}

func (b *builder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.g.Blocks), Kind: kind}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

// edge adds cur → to.
func (b *builder) edge(to *Block) { b.cur.Succs = append(b.cur.Succs, to) }

// jump ends the current block with a single edge to `to` and makes `to`
// current.
func (b *builder) jump(to *Block) {
	b.edge(to)
	b.cur = to
}

// labelBlock returns the block bound to a label, creating it on demand so
// forward gotos (including gotos into loop bodies) resolve.
func (b *builder) labelBlock(name string) *Block {
	li := b.labels[name]
	if li == nil {
		li = &labelInfo{block: b.newBlock("label." + name)}
		b.labels[name] = li
	}
	return li.block
}

// findTargets resolves a break/continue label ("" = innermost) against the
// targets stack. Continue skips entries without a continue target
// (switch/select), matching the language rule.
func (b *builder) findTargets(label string, needCont bool) *targets {
	for t := b.targets; t != nil; t = t.tail {
		if needCont && t.cont == nil {
			continue
		}
		if label == "" || t.label == label {
			return t
		}
	}
	return nil
}

// add appends a straight-line node to the current block.
func (b *builder) add(n ast.Node) { b.cur.Nodes = append(b.cur.Nodes, n) }

// terminate ends the current block with no successors (return, panic,
// after-goto): following statements land in a fresh unreachable block.
func (b *builder) terminate(kind string) {
	b.cur = b.newBlock(kind)
}

// stmt dispatches one statement into the graph.
func (b *builder) stmt(s ast.Stmt) {
	label := b.pendingLabel
	b.pendingLabel = ""
	switch s := s.(type) {
	case *ast.BlockStmt:
		for _, st := range s.List {
			b.stmt(st)
		}

	case *ast.ExprStmt:
		b.add(s)
		if call, ok := s.X.(*ast.CallExpr); ok && isPanic(call) {
			b.terminate("post.panic")
		}

	case *ast.AssignStmt, *ast.IncDecStmt, *ast.SendStmt, *ast.DeclStmt,
		*ast.GoStmt, *ast.EmptyStmt:
		b.add(s)

	case *ast.DeferStmt:
		b.add(s)
		b.g.Defers = append(b.g.Defers, s)

	case *ast.ReturnStmt:
		b.add(s)
		b.terminate("post.return")

	case *ast.BranchStmt:
		b.branch(s)

	case *ast.LabeledStmt:
		lb := b.labelBlock(s.Label.Name)
		b.jump(lb)
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""

	case *ast.IfStmt:
		b.ifStmt(s)

	case *ast.ForStmt:
		b.forStmt(s, label)

	case *ast.RangeStmt:
		b.rangeStmt(s, label)

	case *ast.SwitchStmt:
		b.switchStmt(s, label)

	case *ast.TypeSwitchStmt:
		b.typeSwitchStmt(s, label)

	case *ast.SelectStmt:
		b.selectStmt(s, label)

	default:
		// BadStmt and anything future: keep it visible to walkers.
		if s != nil {
			b.add(s)
		}
	}
}

// branch handles break/continue/goto/fallthrough.
func (b *builder) branch(s *ast.BranchStmt) {
	label := ""
	if s.Label != nil {
		label = s.Label.Name
	}
	switch s.Tok {
	case token.BREAK:
		if t := b.findTargets(label, false); t != nil {
			b.edge(t.brk)
		}
		b.terminate("post.break")
	case token.CONTINUE:
		if t := b.findTargets(label, true); t != nil {
			b.edge(t.cont)
		}
		b.terminate("post.continue")
	case token.GOTO:
		b.edge(b.labelBlock(label))
		b.terminate("post.goto")
	case token.FALLTHROUGH:
		if b.fallthroughTo != nil {
			b.edge(b.fallthroughTo)
		}
		b.terminate("post.fallthrough")
	}
}

// cond decomposes a condition expression, wiring edges to t on true and f
// on false. Short-circuit operators split into chained condition blocks;
// compile-time constant conditions emit only the live edge.
func (b *builder) cond(e ast.Expr, t, f *Block) {
	switch e := e.(type) {
	case *ast.ParenExpr:
		b.cond(e.X, t, f)
		return
	case *ast.UnaryExpr:
		if e.Op == token.NOT {
			b.cond(e.X, f, t)
			return
		}
	case *ast.BinaryExpr:
		switch e.Op {
		case token.LAND:
			mid := b.newBlock("cond.and")
			b.cond(e.X, mid, f)
			b.cur = mid
			b.cond(e.Y, t, f)
			return
		case token.LOR:
			mid := b.newBlock("cond.or")
			b.cond(e.X, t, mid)
			b.cur = mid
			b.cond(e.Y, t, f)
			return
		}
	}
	b.add(e)
	if b.opts.ConstCond != nil {
		if val, ok := b.opts.ConstCond(e); ok {
			if val {
				b.edge(t)
			} else {
				b.edge(f)
			}
			return
		}
	}
	b.edge(t)
	b.edge(f)
}

func (b *builder) ifStmt(s *ast.IfStmt) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	then := b.newBlock("if.then")
	done := b.newBlock("if.done")
	els := done
	if s.Else != nil {
		els = b.newBlock("if.else")
	}
	b.cond(s.Cond, then, els)
	b.cur = then
	b.stmt(s.Body)
	b.edge(done)
	if s.Else != nil {
		b.cur = els
		b.stmt(s.Else)
		b.edge(done)
	}
	b.cur = done
}

func (b *builder) forStmt(s *ast.ForStmt, label string) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	head := b.newBlock("for.head")
	b.jump(head)
	body := b.newBlock("for.body")
	done := b.newBlock("for.done")
	post := head
	if s.Post != nil {
		post = b.newBlock("for.post")
	}
	if s.Cond != nil {
		b.cond(s.Cond, body, done)
	} else {
		b.edge(body)
	}
	b.targets = &targets{tail: b.targets, label: label, brk: done, cont: post}
	b.cur = body
	b.stmt(s.Body)
	b.edge(post)
	b.targets = b.targets.tail
	if s.Post != nil {
		b.cur = post
		b.add(s.Post)
		b.edge(head)
	}
	b.cur = done
}

func (b *builder) rangeStmt(s *ast.RangeStmt, label string) {
	head := b.newBlock("range.head")
	b.jump(head)
	b.add(s.X)
	if s.Key != nil {
		b.add(s.Key)
	}
	if s.Value != nil {
		b.add(s.Value)
	}
	body := b.newBlock("range.body")
	done := b.newBlock("range.done")
	b.edge(body)
	b.edge(done)
	b.targets = &targets{tail: b.targets, label: label, brk: done, cont: head}
	b.cur = body
	b.stmt(s.Body)
	b.edge(head)
	b.targets = b.targets.tail
	b.cur = done
}

func (b *builder) switchStmt(s *ast.SwitchStmt, label string) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	if s.Tag != nil {
		b.add(s.Tag)
	}
	head := b.cur
	done := b.newBlock("switch.done")
	b.targets = &targets{tail: b.targets, label: label, brk: done}

	var clauses []*ast.CaseClause
	for _, c := range s.Body.List {
		clauses = append(clauses, c.(*ast.CaseClause))
	}
	bodies := make([]*Block, len(clauses))
	hasDefault := false
	for i, c := range clauses {
		bodies[i] = b.newBlock("switch.body")
		head.Succs = append(head.Succs, bodies[i])
		if c.List == nil {
			hasDefault = true
		} else {
			for _, e := range c.List {
				head.Nodes = append(head.Nodes, e)
			}
		}
	}
	if !hasDefault {
		head.Succs = append(head.Succs, done)
	}
	for i, c := range clauses {
		b.cur = bodies[i]
		if i+1 < len(clauses) {
			b.fallthroughTo = bodies[i+1]
		} else {
			b.fallthroughTo = nil
		}
		for _, st := range c.Body {
			b.stmt(st)
		}
		b.fallthroughTo = nil
		b.edge(done)
	}
	b.targets = b.targets.tail
	b.cur = done
}

func (b *builder) typeSwitchStmt(s *ast.TypeSwitchStmt, label string) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	b.add(s.Assign)
	head := b.cur
	done := b.newBlock("typeswitch.done")
	b.targets = &targets{tail: b.targets, label: label, brk: done}

	hasDefault := false
	var bodies []*Block
	var clauses []*ast.CaseClause
	for _, c := range s.Body.List {
		cc := c.(*ast.CaseClause)
		clauses = append(clauses, cc)
		blk := b.newBlock("typeswitch.body")
		bodies = append(bodies, blk)
		head.Succs = append(head.Succs, blk)
		if cc.List == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		head.Succs = append(head.Succs, done)
	}
	for i, c := range clauses {
		b.cur = bodies[i]
		for _, st := range c.Body {
			b.stmt(st)
		}
		b.edge(done)
	}
	b.targets = b.targets.tail
	b.cur = done
}

func (b *builder) selectStmt(s *ast.SelectStmt, label string) {
	head := b.cur
	done := b.newBlock("select.done")
	b.targets = &targets{tail: b.targets, label: label, brk: done}

	var bodies []*Block
	var clauses []*ast.CommClause
	for _, c := range s.Body.List {
		cc := c.(*ast.CommClause)
		clauses = append(clauses, cc)
		blk := b.newBlock("select.comm")
		bodies = append(bodies, blk)
		head.Succs = append(head.Succs, blk)
	}
	for i, c := range clauses {
		b.cur = bodies[i]
		if c.Comm != nil {
			b.stmt(c.Comm)
		}
		for _, st := range c.Body {
			b.stmt(st)
		}
		b.edge(done)
	}
	b.targets = b.targets.tail
	// select{} with no clauses blocks forever: done is unreachable, which
	// the graph states by giving head no successors.
	b.cur = done
}

// isPanic reports whether call is the builtin panic. The builder treats it
// as a terminator; conditional panics (assert helpers) stay ordinary calls
// because only the call's enclosing block ends, not its guard.
func isPanic(call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}
