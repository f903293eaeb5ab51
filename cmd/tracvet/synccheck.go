package main

import (
	"go/ast"
	"go/constant"
	"go/types"
	"os"
)

// synccheck guards the durability discipline the crash-safe storage layer
// (engine.OpenDir / CheckpointDir, the WAL, crashfs.WriteDurable) depends
// on: an unchecked Close or Sync on a writable file silently converts "the
// bytes are on disk" into "the bytes are probably on disk". A failed fsync
// means the kernel could not persist buffered writes; a failed close on
// many filesystems reports exactly the same thing. Discarding either return
// value is how databases lose acknowledged commits.
//
// The analyzer flags statement-position calls to Close() or Sync() on
// file-like values (anything with both Close() error and Sync() error, so
// *os.File and crashfs.File implementations) where the error result is
// discarded. Exemptions:
//
//   - defer f.Close() — the idiomatic cleanup for read paths; defers have
//     no error channel at all, so flagging them would just breed noise.
//     Write paths must still call a checked Close before returning (the
//     deferred second close is a no-op).
//   - files provably opened read-only in the same function (os.Open, or an
//     OpenFile whose flag argument has no write bits): closing a read
//     handle cannot lose data.
//   - _ = f.Close() — the explicit discard documents the decision and is
//     the escape hatch when the error genuinely cannot matter.
var synccheckAnalyzer = &Analyzer{
	Name: "synccheck",
	Doc:  "Close/Sync errors on writable files are checked (durability)",
	Run:  runSynccheck,
}

// writeFlagBits are the os.OpenFile flag bits that make a handle writable.
const writeFlagBits = os.O_WRONLY | os.O_RDWR | os.O_APPEND | os.O_CREATE | os.O_TRUNC

func runSynccheck(p *Pass) {
	for _, u := range funcUnits(p) {
		readonly := collectReadOnlyFiles(p, u.Body)
		walkShallow(u.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.DeferStmt:
				return false // no error channel; see the exemption above
			case *ast.ExprStmt:
				call, ok := n.X.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || (sel.Sel.Name != "Close" && sel.Sel.Name != "Sync") || len(call.Args) != 0 {
					return true
				}
				if p.isPkgName(sel.X) || !isFileLike(p.TypeOf(sel.X)) {
					return true
				}
				if id, ok := sel.X.(*ast.Ident); ok {
					if v, ok := p.Info.Uses[id].(*types.Var); ok && readonly[v] {
						return true
					}
				}
				p.Reportf(n.Pos(),
					"%s error discarded on file %s; a failed %s can lose persisted data — check it (or assign to _ if it provably cannot matter)",
					sel.Sel.Name, exprKey(p.Fset, sel.X), sel.Sel.Name)
			}
			return true
		})
	}
}

// collectReadOnlyFiles finds variables in body assigned from a read-only
// open: os.Open, or any OpenFile-style call whose flag argument carries no
// write bits.
func collectReadOnlyFiles(p *Pass, body *ast.BlockStmt) map[*types.Var]bool {
	readonly := make(map[*types.Var]bool)
	walkShallow(body, func(n ast.Node) bool {
		asg, ok := n.(*ast.AssignStmt)
		if !ok || len(asg.Rhs) != 1 {
			return true
		}
		call, ok := asg.Rhs[0].(*ast.CallExpr)
		if !ok || !isReadOnlyOpen(p, call) {
			return true
		}
		for _, lhs := range asg.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			if v, ok := p.Info.Defs[id].(*types.Var); ok {
				readonly[v] = true
			} else if v, ok := p.Info.Uses[id].(*types.Var); ok {
				readonly[v] = true
			}
		}
		return true
	})
	return readonly
}

// isReadOnlyOpen reports whether call opens a file without write access.
func isReadOnlyOpen(p *Pass, call *ast.CallExpr) bool {
	fn := p.calleeFunc(call)
	if fn == nil {
		return false
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "os" && fn.Name() == "Open" {
		return true
	}
	if fn.Name() != "OpenFile" || len(call.Args) < 2 {
		return false
	}
	tv, ok := p.Info.Types[call.Args[1]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return false
	}
	flags, ok := constant.Int64Val(tv.Value)
	return ok && flags&int64(writeFlagBits) == 0
}

// isFileLike reports whether t has both Close() error and Sync() error —
// the shape of *os.File and of crashfs.File implementations.
func isFileLike(t types.Type) bool {
	return hasNiladicErrorMethod(t, "Close") && hasNiladicErrorMethod(t, "Sync")
}

func hasNiladicErrorMethod(t types.Type, name string) bool {
	if t == nil {
		return false
	}
	for _, typ := range []types.Type{t, types.NewPointer(t)} {
		ms := types.NewMethodSet(typ)
		for i := 0; i < ms.Len(); i++ {
			f, ok := ms.At(i).Obj().(*types.Func)
			if !ok || f.Name() != name {
				continue
			}
			sig, ok := f.Type().(*types.Signature)
			if !ok || sig.Params().Len() != 0 || sig.Results().Len() != 1 {
				return false
			}
			named, ok := sig.Results().At(0).Type().(*types.Named)
			return ok && named.Obj().Name() == "error" && named.Obj().Pkg() == nil
		}
	}
	return false
}
