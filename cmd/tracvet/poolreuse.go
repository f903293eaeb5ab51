package main

import (
	"go/ast"
	"go/token"
	"go/types"
)

// poolreuse enforces the executor's batch-pool ownership discipline (PR 4):
// "NextBatch transfers ownership of the returned batch to the caller;
// whoever consumes a batch without forwarding it calls PutBatch." A batch
// touched after PutBatch is a data race waiting to happen — the pool may
// already have handed the same header to a concurrent pipeline, so Cols/Sel
// are being rewritten under the reader. The analyzer runs reaching-
// definitions-style dataflow over the AST-level CFG (cfg.go), tracking each
// local acquired from GetBatch/NextBatch through every path:
//
//   - use after PutBatch (including uses only reachable on some paths);
//   - double PutBatch (the second put poisons a batch another pipeline now
//     owns);
//   - a GetBatch-acquired batch that is neither recycled nor forwarded on
//     every path (early returns and error paths leak pool capacity);
//   - a batch *header* alias (x := b.Cols / b.Sel) or a *vector* taken from
//     it (v := b.Cols[i]) used after the batch is recycled. What goes back
//     to the pool depends on the batch: one that views a sealed segment's
//     vectors returns only its header and Sel, one that was transposed or
//     gathered returns the vectors it owns too. Which kind a batch is, is a
//     run-time fact, so a vector is held to the stricter rule: it dies with
//     the batch it came from.
//
// One level of callee summaries keeps the check useful across helpers: a
// call f(b) where f's body provably calls PutBatch on that parameter counts
// as a put at the call site; a callee that only reads the batch borrows it;
// a call through a function type the package declares (exec.Kernel) borrows
// too; anything else the analyzer cannot see (other dynamic calls,
// other-module callees, storing callees) transfers ownership away and ends
// tracking — escape, the no-false-positive default.
var poolreuseAnalyzer = &Analyzer{
	Name: "poolreuse",
	Doc:  "pooled exec.Batch ownership: no use-after-put, double-put, or leaked batches",
	Run:  runPoolreuse,
}

// Per-variable dataflow states (a bitmask: joins are unions).
const (
	prLive    = 1 << iota // acquired and owned here
	prPut                 // recycled; any touch is use-after-put
	prEscaped             // ownership handed elsewhere; tracking ends
)

// prAcquireKind distinguishes GetBatch (definitely non-nil, leak-checked)
// from NextBatch-style acquires (may be nil on error/exhaustion, so only
// use-after-put/double-put are enforced).
type prAcquireKind int

const (
	prAcqNone prAcquireKind = iota
	prAcqGet
	prAcqNext
)

// prBatchSummary is the one-level callee summary for a function with
// *Batch-shaped parameters.
type prBatchSummary struct {
	puts   []bool // param i is PutBatch'd on some path
	stores []bool // param i escapes inside the callee (stored, forwarded, returned)
}

func runPoolreuse(p *Pass) {
	summaries := prCollectSummaries(p)
	for _, u := range funcUnits(p) {
		prCheckUnit(p, u, summaries)
	}
}

// isBatchPtr reports whether t is a pointer to a named type called "Batch" —
// exec.Batch in the real repo, a local stand-in in golden fixtures.
func isBatchPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	return ok && named.Obj().Name() == "Batch"
}

// prAcquire classifies a call that mints an owned batch: GetBatch() (or any
// niladic *Batch-returning func named Get*) and NextBatch-shaped methods
// whose first result is *Batch.
func prAcquire(p *Pass, call *ast.CallExpr) prAcquireKind {
	fn := p.calleeFunc(call)
	if fn == nil {
		return prAcqNone
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 || !isBatchPtr(sig.Results().At(0).Type()) {
		return prAcqNone
	}
	switch fn.Name() {
	case "GetBatch":
		return prAcqGet
	case "NextBatch":
		return prAcqNext
	}
	return prAcqNone
}

// prIsPutCall matches PutBatch(x) and returns the batch argument.
func prIsPutCall(p *Pass, call *ast.CallExpr) (ast.Expr, bool) {
	fn := p.calleeFunc(call)
	if fn == nil || fn.Name() != "PutBatch" || len(call.Args) != 1 {
		return nil, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Params().Len() != 1 || !isBatchPtr(sig.Params().At(0).Type()) {
		return nil, false
	}
	return call.Args[0], true
}

// prCollectSummaries computes the one-level batch-parameter summaries for
// every function in the package.
func prCollectSummaries(p *Pass) map[*types.Func]*prBatchSummary {
	out := make(map[*types.Func]*prBatchSummary)
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := p.Info.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			sig := fn.Type().(*types.Signature)
			var batchParams []*types.Var
			for i := 0; i < sig.Params().Len(); i++ {
				if isBatchPtr(sig.Params().At(i).Type()) {
					batchParams = append(batchParams, sig.Params().At(i))
				}
			}
			if len(batchParams) == 0 {
				continue
			}
			sum := &prBatchSummary{
				puts:   make([]bool, sig.Params().Len()),
				stores: make([]bool, sig.Params().Len()),
			}
			paramIdx := func(v *types.Var) int {
				for i := 0; i < sig.Params().Len(); i++ {
					if sig.Params().At(i) == v {
						return i
					}
				}
				return -1
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					if arg, ok := prIsPutCall(p, n); ok {
						if v := prIdentVar(p, arg); v != nil {
							if i := paramIdx(v); i >= 0 {
								sum.puts[i] = true
							}
						}
						return true
					}
					// A batch param passed onward counts as a store (one
					// level only: no recursion into the next callee).
					for _, a := range n.Args {
						if v := prIdentVar(p, a); v != nil {
							if i := paramIdx(v); i >= 0 {
								sum.stores[i] = true
							}
						}
					}
				case *ast.ReturnStmt:
					for _, r := range n.Results {
						if v := prIdentVar(p, r); v != nil {
							if i := paramIdx(v); i >= 0 {
								sum.stores[i] = true
							}
						}
					}
				case *ast.AssignStmt:
					for _, r := range n.Rhs {
						if v := prIdentVar(p, r); v != nil {
							if i := paramIdx(v); i >= 0 {
								sum.stores[i] = true
							}
						}
					}
				case *ast.SendStmt:
					if v := prIdentVar(p, n.Value); v != nil {
						if i := paramIdx(v); i >= 0 {
							sum.stores[i] = true
						}
					}
				case *ast.CompositeLit:
					for _, e := range n.Elts {
						expr := e
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							expr = kv.Value
						}
						if v := prIdentVar(p, expr); v != nil {
							if i := paramIdx(v); i >= 0 {
								sum.stores[i] = true
							}
						}
					}
				}
				return true
			})
			out[fn] = sum
		}
	}
	return out
}

// prIdentVar resolves e to the variable it names, or nil.
func prIdentVar(p *Pass, e ast.Expr) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	if v, ok := p.Info.Uses[id].(*types.Var); ok {
		return v
	}
	if v, ok := p.Info.Defs[id].(*types.Var); ok {
		return v
	}
	return nil
}

// prCheckUnit runs the dataflow over one function body.
func prCheckUnit(p *Pass, u funcUnit, summaries map[*types.Func]*prBatchSummary) {
	// Pass 0: find the tracked variables (locals acquired from the pool)
	// and header or vector aliases (x := b.Cols / b.Sel / b.Cols[i]).
	tracked := make(map[*types.Var]prAcquireKind)
	acquirePos := make(map[*types.Var]token.Pos)
	walkShallow(u.Body, func(n ast.Node) bool {
		asg, ok := n.(*ast.AssignStmt)
		if !ok || len(asg.Rhs) != 1 {
			return true
		}
		call, ok := ast.Unparen(asg.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return true
		}
		kind := prAcquire(p, call)
		if kind == prAcqNone {
			return true
		}
		if v := prIdentVar(p, asg.Lhs[0]); v != nil && isBatchPtr(v.Type()) {
			if _, seen := tracked[v]; !seen || kind == prAcqGet {
				tracked[v] = kind
			}
			if _, seen := acquirePos[v]; !seen {
				acquirePos[v] = call.Pos()
			}
		}
		return true
	})
	if len(tracked) == 0 {
		return
	}

	aliases := prCollectHeaderAliases(p, u.Body, tracked)

	// Deferred direct puts exempt their batch from the leak check and do
	// not count as flow-time puts (they run at exit).
	g := buildCFG(u.Body)
	deferredPut := make(map[*types.Var]bool)
	for _, d := range g.defers {
		if arg, ok := prIsPutCall(p, d.Call); ok {
			if v := prIdentVar(p, arg); v != nil {
				deferredPut[v] = true
			}
		}
	}

	// Worklist dataflow to fixpoint, then one reporting pass. Every node is
	// visited at least once: a node whose state did not change is not
	// re-queued, and the state before a function's first acquire is empty, so
	// seeding the entry alone would stop at the first statement that does not
	// acquire — an early return before GetBatch hid every path after it.
	states := make([]map[*types.Var]uint8, len(g.nodes))
	for i := range states {
		states[i] = make(map[*types.Var]uint8)
	}
	tr := &prTransfer{p: p, tracked: tracked, aliases: aliases, summaries: summaries}

	work := []*cfgNode{g.entry}
	inWork := map[*cfgNode]bool{g.entry: true}
	for _, n := range g.nodes {
		if !inWork[n] {
			work, inWork[n] = append(work, n), true
		}
	}
	for len(work) > 0 {
		n := work[0]
		work, inWork[n] = work[1:], false
		out := tr.apply(n, states[n.idx], nil)
		for _, s := range n.succs {
			if prMerge(states[s.idx], out) && !inWork[s] {
				inWork[s] = true
				work = append(work, s)
			}
		}
	}

	rep := &prReporter{p: p, seen: make(map[string]bool)}
	leaked := make(map[*types.Var]bool)
	for _, n := range g.nodes {
		if n == g.entry || len(states[n.idx]) > 0 || n == g.exit {
			out := tr.apply(n, states[n.idx], rep)
			if n.isReturn {
				for v, st := range out {
					if st&prLive != 0 && tracked[v] == prAcqGet && !deferredPut[v] {
						leaked[v] = true
					}
				}
			}
		}
	}
	for v, st := range states[g.exit.idx] {
		if st&prLive != 0 && tracked[v] == prAcqGet && !deferredPut[v] {
			leaked[v] = true
		}
	}
	for v := range leaked {
		rep.reportf(p, acquirePos[v],
			"batch %s is not recycled on every path: an early return leaks it from the pool — PutBatch it (or defer) before returning", v.Name())
	}
}

// prHeaderField matches b.Cols, b.Sel and a vector b.Cols[i], returning the
// batch expression.
func prHeaderField(e ast.Expr) (ast.Expr, bool) {
	e = ast.Unparen(e)
	if idx, ok := e.(*ast.IndexExpr); ok {
		if sel, ok := ast.Unparen(idx.X).(*ast.SelectorExpr); ok && sel.Sel.Name == "Cols" {
			return sel.X, true
		}
		return nil, false
	}
	if sel, ok := e.(*ast.SelectorExpr); ok && (sel.Sel.Name == "Cols" || sel.Sel.Name == "Sel") {
		return sel.X, true
	}
	return nil, false
}

// prCollectHeaderAliases maps variables assigned from a tracked batch's
// Cols/Sel field, or from one of its vectors, to that batch.
func prCollectHeaderAliases(p *Pass, body *ast.BlockStmt, tracked map[*types.Var]prAcquireKind) map[*types.Var]*types.Var {
	out := make(map[*types.Var]*types.Var)
	walkShallow(body, func(n ast.Node) bool {
		asg, ok := n.(*ast.AssignStmt)
		if !ok || len(asg.Rhs) != 1 || len(asg.Lhs) != 1 {
			return true
		}
		x, ok := prHeaderField(asg.Rhs[0])
		if !ok {
			return true
		}
		base := prIdentVar(p, x)
		if base == nil {
			return true
		}
		if _, ok := tracked[base]; !ok {
			return true
		}
		if v := prIdentVar(p, asg.Lhs[0]); v != nil {
			out[v] = base
		}
		return true
	})
	return out
}

func prMerge(dst, src map[*types.Var]uint8) bool {
	changed := false
	for v, st := range src {
		if dst[v]|st != dst[v] {
			dst[v] |= st
			changed = true
		}
	}
	return changed
}

// prReporter dedupes diagnostics across the reporting pass (joins can visit
// a node with a superset state more than once).
type prReporter struct {
	p    *Pass
	seen map[string]bool
}

func (r *prReporter) reportf(p *Pass, pos token.Pos, format string, args ...any) {
	key := p.Fset.Position(pos).String() + format
	if r.seen[key] {
		return
	}
	r.seen[key] = true
	p.Reportf(pos, format, args...)
}

// prTransfer applies one node's effects to a state, optionally reporting.
type prTransfer struct {
	p         *Pass
	tracked   map[*types.Var]prAcquireKind
	aliases   map[*types.Var]*types.Var
	summaries map[*types.Func]*prBatchSummary
}

func (t *prTransfer) apply(n *cfgNode, in map[*types.Var]uint8, rep *prReporter) map[*types.Var]uint8 {
	out := make(map[*types.Var]uint8, len(in))
	for v, st := range in {
		out[v] = st
	}
	if n.stmt == nil {
		return out
	}
	isDefer := false
	if _, ok := n.stmt.(*ast.DeferStmt); ok {
		isDefer = true
	}
	for _, use := range n.uses {
		t.walkExpr(use, out, rep, isDefer)
	}
	// Returned batches transfer ownership to the caller (after the use walk,
	// so `return b` still reports when b was already recycled).
	if ret, ok := n.stmt.(*ast.ReturnStmt); ok {
		for _, r := range ret.Results {
			t.markEscapeIn(r, out)
		}
	}
	// Assignment kills/gens happen after RHS uses.
	if asg, ok := n.stmt.(*ast.AssignStmt); ok {
		t.applyAssign(asg, out)
	}
	if ds, ok := n.stmt.(*ast.DeclStmt); ok {
		if gd, ok := ds.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, name := range vs.Names {
						if v := prIdentVar(t.p, name); v != nil {
							if _, ok := t.tracked[v]; ok {
								delete(out, v)
							}
						}
					}
				}
			}
		}
	}
	return out
}

// applyAssign processes LHS effects: acquire gens and reassignment kills.
func (t *prTransfer) applyAssign(asg *ast.AssignStmt, out map[*types.Var]uint8) {
	acquire := prAcqNone
	if len(asg.Rhs) == 1 {
		if call, ok := ast.Unparen(asg.Rhs[0]).(*ast.CallExpr); ok {
			acquire = prAcquire(t.p, call)
		}
	}
	for i, lhs := range asg.Lhs {
		v := prIdentVar(t.p, lhs)
		if v == nil {
			continue
		}
		if _, ok := t.tracked[v]; ok {
			if i == 0 && acquire != prAcqNone {
				out[v] = prLive
			} else {
				delete(out, v) // reassigned to something untracked
			}
		}
	}
}

// walkExpr scans one expression tree for batch uses, puts, and escapes.
func (t *prTransfer) walkExpr(node ast.Node, out map[*types.Var]uint8, rep *prReporter, inDefer bool) {
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// Capture by a closure ends tracking for every mentioned batch.
			ast.Inspect(n.Body, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok {
					if v, ok := t.p.Info.Uses[id].(*types.Var); ok {
						if _, tracked := t.tracked[v]; tracked {
							out[v] = prEscaped
						}
					}
				}
				return true
			})
			return false

		case *ast.CallExpr:
			if arg, ok := prIsPutCall(t.p, n); ok {
				if v := prIdentVar(t.p, arg); v != nil {
					if _, tracked := t.tracked[v]; tracked {
						if inDefer {
							return false // runs at exit; handled via g.defers
						}
						if out[v]&prPut != 0 && rep != nil {
							rep.reportf(t.p, n.Pos(),
								"double PutBatch of %s: a concurrent pipeline may already own this batch", v.Name())
						}
						out[v] = putState(out[v])
						return false
					}
				}
				// PutBatch of an untracked expression: fine.
				return true
			}
			// Argument uses happen before the call's effect takes hold: walk
			// the sub-expressions with the pre-call state, then apply the
			// callee's summary (put/escape), and stop the automatic descent
			// so it cannot re-read the post-call state.
			t.walkExpr(n.Fun, out, rep, inDefer)
			for _, a := range n.Args {
				t.walkExpr(a, out, rep, inDefer)
			}
			t.applyCallArgs(n, out, rep)
			return false

		case *ast.GoStmt:
			// A goroutine argument is concurrent: ownership leaves.
			for _, a := range n.Call.Args {
				t.consume(a, out, rep)
			}
			return true

		case *ast.ReturnStmt:
			for _, r := range n.Results {
				t.consume(r, out, rep)
			}
			return true

		case *ast.SendStmt:
			t.consume(n.Value, out, rep)
			return true

		case *ast.CompositeLit:
			for _, e := range n.Elts {
				expr := e
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					expr = kv.Value
				}
				t.consume(expr, out, rep)
			}
			return true

		case *ast.UnaryExpr:
			if n.Op == token.AND {
				t.consume(n.X, out, rep)
			}
			return true

		case *ast.AssignStmt:
			// RHS batch idents flowing into a different variable escape
			// (x := b aliases; s.f = b stores). Skip bare LHS idents: a
			// reassignment is a kill, not a use.
			acquire := prAcqNone
			if len(n.Rhs) == 1 {
				if call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr); ok {
					acquire = prAcquire(t.p, call)
				}
			}
			for _, r := range n.Rhs {
				if acquire == prAcqNone {
					if _, ok := prHeaderField(r); ok {
						// Header alias; the base use below is tracked via aliases.
					} else if v := prIdentVar(t.p, r); v != nil {
						if _, tracked := t.tracked[v]; tracked {
							t.consume(r, out, rep)
							continue
						}
					}
				}
				t.walkExpr(r, out, rep, inDefer)
			}
			for _, l := range n.Lhs {
				if _, ok := ast.Unparen(l).(*ast.Ident); ok {
					continue // kill target, handled by applyAssign
				}
				t.walkExpr(l, out, rep, inDefer)
			}
			return false

		case *ast.Ident:
			if v, ok := t.p.Info.Uses[n].(*types.Var); ok {
				if _, tracked := t.tracked[v]; tracked {
					t.checkUse(v, n.Pos(), out, rep)
				}
				if base, ok := t.aliases[v]; ok && rep != nil {
					if out[base]&prPut != 0 {
						rep.reportf(t.p, n.Pos(),
							"%s aliases the Cols/Sel header or a vector of batch %s, which has been recycled: the pool is rewriting it", v.Name(), base.Name())
					}
				}
			}
			return true
		}
		return true
	})
}

// applyCallArgs consumes batch arguments per the callee's summary.
func (t *prTransfer) applyCallArgs(call *ast.CallExpr, out map[*types.Var]uint8, rep *prReporter) {
	fn := t.p.calleeFunc(call)
	var sum *prBatchSummary
	known := false
	if fn != nil {
		sum, known = t.summaries[fn]
		if !known {
			// A resolvable callee with no batch params, or a Batch method
			// (b.Append, b.Len): a borrow, not an escape — unless it is in
			// another package or has no visible body.
			if fn.Pkg() == t.p.Pkg || prIsBatchMethod(fn) {
				known = true
				sum = nil
			}
		}
	} else if named, ok := t.p.Info.TypeOf(call.Fun).(*types.Named); ok && named.Obj().Pkg() == t.p.Pkg {
		// A call through a function type the package declares (exec.Kernel)
		// borrows: the package states that type's contract. An unnamed or
		// foreign function value stays an escape.
		known = true
	}
	for i, a := range call.Args {
		v := prIdentVar(t.p, a)
		if v == nil {
			continue
		}
		if _, tracked := t.tracked[v]; !tracked {
			continue
		}
		// The use itself was already checked by the argument walk; only the
		// callee's effect on ownership is applied here.
		switch {
		case !known:
			out[v] = prEscaped // dynamic or unseen callee: ownership gone
		case sum == nil:
			// borrow: state unchanged
		case i < len(sum.puts) && sum.puts[i]:
			if out[v]&prPut != 0 && rep != nil {
				rep.reportf(t.p, a.Pos(),
					"double PutBatch of %s (via %s, which recycles its argument)", v.Name(), fn.Name())
			}
			out[v] = putState(out[v])
		case i < len(sum.stores) && sum.stores[i]:
			out[v] = prEscaped
		}
	}
}

// putState is a batch's state after a PutBatch: on every path that owned
// it, recycled. A batch that escaped on some path stays escaped — its owner
// is unknown there, so neither a later use nor a later put is reported — but
// no path still owns it, so it cannot leak.
func putState(st uint8) uint8 {
	if st&prEscaped != 0 {
		return st &^ prLive
	}
	return prPut
}

// prIsBatchMethod reports whether fn is a method whose receiver is *Batch.
func prIsBatchMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if isBatchPtr(t) {
		return true
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Batch"
}

func (t *prTransfer) checkUse(v *types.Var, pos token.Pos, out map[*types.Var]uint8, rep *prReporter) {
	if rep != nil && out[v]&prPut != 0 && out[v]&prEscaped == 0 {
		rep.reportf(t.p, pos,
			"use of batch %s after PutBatch: the pool may have handed it to a concurrent pipeline", v.Name())
	}
}

func (t *prTransfer) markEscapeIn(e ast.Expr, out map[*types.Var]uint8) {
	if v := prIdentVar(t.p, e); v != nil {
		if _, tracked := t.tracked[v]; tracked {
			out[v] = prEscaped
		}
	}
}

// consume is a use followed by an ownership transfer: report if the batch
// was already recycled, then end tracking.
func (t *prTransfer) consume(e ast.Expr, out map[*types.Var]uint8, rep *prReporter) {
	if v := prIdentVar(t.p, e); v != nil {
		if _, tracked := t.tracked[v]; tracked {
			t.checkUse(v, e.Pos(), out, rep)
			out[v] = prEscaped
		}
	}
}
