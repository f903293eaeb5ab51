package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// lockorder builds the global lock-acquisition-order graph: one node per
// *lock class* (a mutex-typed struct field like storage.Table.mu, a
// package-level mutex var, or a type that embeds a mutex), one edge A→B for
// every place the code acquires B while provably holding A — either directly
// in the same function, or through any chain of static calls (the callee's
// transitive may-acquire set). A cycle in that graph is a potential
// deadlock: two goroutines entering the cycle from different edges can each
// hold the lock the other wants. The analyzer also flags the one ordering
// bug that needs no second goroutine at all: taking mu.Lock() while already
// holding mu.RLock() in the same function — sync.RWMutex cannot upgrade, so
// the writer waits for a reader that is itself.
//
// Held regions are lexical (acquire to the matching unlock by lock
// expression, or end of function for deferred unlocks), matching the
// lockcheck analyzer's model. Lock classes abstract over instances: every
// *Table locks in the same class, which is exactly the granularity a global
// ordering discipline is stated at.
var lockorderAnalyzer = &Analyzer{
	Name:       "lockorder",
	Doc:        "cycles in the cross-package lock acquisition graph; RLock→Lock upgrades",
	RunProgram: runLockorder,
}

// loAcquire is one direct mutex acquire with its lexical held region.
type loAcquire struct {
	class  string // lock class ("pkg.Type.field", "pkg.var", or "pkg.Type")
	key    string // lock expression ("w.mu"), for matching releases
	method string // Lock or RLock
	pos    token.Pos
	from   token.Pos // held region start (end of the acquire call)
	to     token.Pos // held region end (matching unlock, or body end)
}

// loFuncInfo is the per-function summary the order graph is built from.
type loFuncInfo struct {
	name     string
	pkg      *pkgInfo
	acquires []loAcquire     // region-bearing acquires (outside nested literals)
	calls    []loCall        // static call sites (outside nested literals)
	seeds    map[string]bool // classes acquired anywhere in the body, literals included
	callees  []*types.Func   // all static callees, literals included
	may      map[string]bool // fixpoint: classes reachable through any call chain
}

type loCall struct {
	callee *types.Func
	pos    token.Pos
}

// loEdge is one acquisition-order edge with a witness position.
type loEdge struct {
	from, to string
	pos      token.Pos // where `to` is acquired (or the call that reaches it)
	via      string    // function the witness is in; "" for a direct acquire
	fn       string    // enclosing function, for the message
}

func runLockorder(pp *ProgPass) {
	prog := pp.Prog
	infos := make(map[*types.Func]*loFuncInfo)
	for fn, d := range prog.Decls {
		infos[fn] = loSummarize(prog.PassFor(d.Pkg), d)
	}

	// Transitive may-acquire sets to fixpoint over the static call graph.
	for changed := true; changed; {
		changed = false
		for _, info := range infos {
			for _, callee := range info.callees {
				ci := infos[callee]
				if ci == nil {
					continue
				}
				for c := range ci.seeds {
					if !info.may[c] {
						info.may[c] = true
						changed = true
					}
				}
				for c := range ci.may {
					if !info.may[c] {
						info.may[c] = true
						changed = true
					}
				}
			}
		}
	}

	// Edges: for each held region, every other class acquired inside it —
	// directly, or through whatever a call site may reach.
	var edges []loEdge
	for _, info := range infos {
		for _, a := range info.acquires {
			for _, b := range info.acquires {
				if b.class != a.class && b.pos > a.from && b.pos < a.to {
					edges = append(edges, loEdge{from: a.class, to: b.class, pos: b.pos, fn: info.name})
				}
			}
			for _, c := range info.calls {
				if c.pos <= a.from || c.pos >= a.to {
					continue
				}
				ci := infos[c.callee]
				if ci == nil {
					continue
				}
				reach := make(map[string]bool, len(ci.seeds)+len(ci.may))
				for cl := range ci.seeds {
					reach[cl] = true
				}
				for cl := range ci.may {
					reach[cl] = true
				}
				for cl := range reach {
					if cl != a.class {
						edges = append(edges, loEdge{from: a.class, to: cl, pos: c.pos, via: ci.name, fn: info.name})
					}
				}
			}
		}
		loCheckUpgrade(pp, info)
	}

	loReportCycles(pp, edges)
}

// loReportCycles finds strongly connected components among lock classes and
// reports every witness edge inside one.
func loReportCycles(pp *ProgPass, edges []loEdge) {
	succ := make(map[string]map[string]bool)
	for _, e := range edges {
		if succ[e.from] == nil {
			succ[e.from] = make(map[string]bool)
		}
		succ[e.from][e.to] = true
	}
	scc := tarjanSCC(succ)
	comp := make(map[string]int)
	cycleDesc := make(map[int]string)
	for i, c := range scc {
		if len(c) < 2 {
			continue // a lone class with no self-edge cannot cycle
		}
		sort.Strings(c)
		for _, cl := range c {
			comp[cl] = i + 1
		}
		cycleDesc[i+1] = strings.Join(c, " ⇄ ")
	}
	if len(cycleDesc) == 0 {
		return
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].pos < edges[j].pos })
	seen := make(map[string]bool)
	for _, e := range edges {
		id := comp[e.from]
		if id == 0 || comp[e.to] != id {
			continue
		}
		k := fmt.Sprintf("%d:%s→%s:%d", id, e.from, e.to, e.pos)
		if seen[k] {
			continue
		}
		seen[k] = true
		if e.via != "" {
			pp.Reportf(e.pos,
				"%s acquires %s (via %s) while holding %s, closing a lock-order cycle (%s): potential deadlock",
				e.fn, e.to, e.via, e.from, cycleDesc[id])
		} else {
			pp.Reportf(e.pos,
				"%s acquires %s while holding %s, closing a lock-order cycle (%s): potential deadlock",
				e.fn, e.to, e.from, cycleDesc[id])
		}
	}
}

// loCheckUpgrade flags Lock() on a lock expression whose RLock is still held
// in the same function: sync.RWMutex cannot upgrade a read lock.
func loCheckUpgrade(pp *ProgPass, info *loFuncInfo) {
	for _, a := range info.acquires {
		if a.method != "RLock" {
			continue
		}
		for _, b := range info.acquires {
			if b.key == a.key && b.method == "Lock" && b.pos > a.from && b.pos < a.to {
				pp.Reportf(b.pos,
					"%s takes %s.Lock() while holding %s.RLock(): sync.RWMutex cannot upgrade — the writer waits for its own read lock",
					info.name, b.key, a.key)
			}
		}
	}
}

// loSummarize builds one function's lock summary.
func loSummarize(p *Pass, d *ProgDecl) *loFuncInfo {
	fd := d.Decl
	info := &loFuncInfo{
		name:  fd.Name.Name,
		pkg:   d.Pkg,
		seeds: make(map[string]bool),
		may:   make(map[string]bool),
	}
	if fd.Recv != nil {
		if fn, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				if named := loNamedOf(recv.Type()); named != nil {
					info.name = named.Obj().Name() + "." + fd.Name.Name
				}
			}
		}
	}

	// Region-bearing ops and call sites: lexical, outside nested literals.
	// Defer-wrapped mutex calls are excluded from the lexical op list — a
	// `defer mu.Unlock()` releases at function exit, not at its own line, so
	// treating it as an in-place release would shrink the held region to
	// nothing, and letting it satisfy an *earlier* explicit Lock/Unlock pair
	// would stretch that pair's region past its real end (the engine.attachWAL
	// shape: lock/unlock, work, lock/defer-unlock).
	deferCalls := make(map[*ast.CallExpr]bool)
	walkShallow(fd.Body, func(n ast.Node) bool {
		if ds, ok := n.(*ast.DeferStmt); ok {
			deferCalls[ds.Call] = true
		}
		return true
	})
	var ops []lockOp
	var classes []string
	walkShallow(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if op, lockExpr, ok := loMutexOp(p, call); ok {
			if !deferCalls[call] {
				ops = append(ops, op)
				classes = append(classes, lockClass(p, lockExpr))
			}
			return true
		}
		if fn := p.calleeFunc(call); fn != nil {
			info.calls = append(info.calls, loCall{callee: fn, pos: call.Pos()})
		}
		return true
	})
	for i, op := range ops {
		unlock := lockPairs[op.method]
		if unlock == "" || classes[i] == "" {
			continue
		}
		// Held until the lexically next explicit matching unlock; a lock
		// released only by defer is held to the end of the function.
		to := fd.Body.End()
		for _, later := range ops[i+1:] {
			if later.key == op.key && later.method == unlock {
				to = later.call.Pos()
				break
			}
		}
		info.acquires = append(info.acquires, loAcquire{
			class: classes[i], key: op.key, method: op.method,
			pos: op.call.Pos(), from: op.call.End(), to: to,
		})
		info.seeds[classes[i]] = true
	}

	// Seeds and callees including nested literals: a closure's acquire still
	// happens downstream of whoever runs it, so it propagates through `may`.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if op, lockExpr, ok := loMutexOp(p, call); ok {
			if lockPairs[op.method] != "" {
				if cl := lockClass(p, lockExpr); cl != "" {
					info.seeds[cl] = true
				}
			}
			return true
		}
		if fn := p.calleeFunc(call); fn != nil {
			info.callees = append(info.callees, fn)
		}
		return true
	})
	return info
}

// loMutexOp recognizes a sync mutex method call and also returns the lock
// expression (the receiver of .Lock()/.RLock()/...).
func loMutexOp(p *Pass, call *ast.CallExpr) (lockOp, ast.Expr, bool) {
	op, ok := syncMutexOp(p, call)
	if !ok {
		return lockOp{}, nil, false
	}
	sel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	return op, sel.X, true
}

// lockClass maps a lock expression to its global class: the declaring
// package+type+field for struct-field mutexes, package+name for
// package-level mutex vars, and package+type for values that embed a mutex
// (t.Lock() promoted from an embedded sync.RWMutex). Locals and parameters
// of bare sync type have no stable identity and return "".
func lockClass(p *Pass, e ast.Expr) string {
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.Ident:
		v, ok := p.Info.Uses[x].(*types.Var)
		if !ok {
			return ""
		}
		if p.Pkg != nil && v.Parent() == p.Pkg.Scope() {
			return p.Pkg.Path() + "." + v.Name()
		}
		return loEmbeddedClass(v.Type())
	case *ast.SelectorExpr:
		if sel, ok := p.Info.Selections[x]; ok {
			if v, ok := sel.Obj().(*types.Var); ok && v.IsField() {
				if named := loNamedOf(sel.Recv()); named != nil && named.Obj().Pkg() != nil {
					return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + v.Name()
				}
			}
			return ""
		}
		// Package-qualified var: otherpkg.Mu.
		if v, ok := p.Info.Uses[x.Sel].(*types.Var); ok && v.Pkg() != nil {
			return v.Pkg().Path() + "." + v.Name()
		}
	}
	return ""
}

// loEmbeddedClass names the class for a receiver that embeds its mutex.
func loEmbeddedClass(t types.Type) string {
	named := loNamedOf(t)
	if named == nil || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() == "sync" {
		return ""
	}
	return named.Obj().Pkg().Path() + "." + named.Obj().Name()
}

func loNamedOf(t types.Type) *types.Named {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// tarjanSCC returns the strongly connected components of the class graph.
func tarjanSCC(succ map[string]map[string]bool) [][]string {
	nodes := make(map[string]bool)
	for a, ts := range succ {
		nodes[a] = true
		for b := range ts {
			nodes[b] = true
		}
	}
	var order []string
	for n := range nodes {
		order = append(order, n)
	}
	sort.Strings(order)

	index := make(map[string]int)
	low := make(map[string]int)
	onStack := make(map[string]bool)
	var stack []string
	next := 1
	var out [][]string

	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v], low[v] = next, next
		next++
		stack = append(stack, v)
		onStack[v] = true
		var ws []string
		for w := range succ[v] {
			ws = append(ws, w)
		}
		sort.Strings(ws)
		for _, w := range ws {
			if index[w] == 0 {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var comp []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			out = append(out, comp)
		}
	}
	for _, v := range order {
		if index[v] == 0 {
			strongconnect(v)
		}
	}
	return out
}
