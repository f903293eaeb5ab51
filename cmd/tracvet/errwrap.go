package main

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// errwrap enforces the error-chain discipline the fault-tolerant ingestion
// path (PR 2) depends on: sniffer resync logic classifies failures with
// errors.Is(err, engine.ErrWALAppend) and errors.Is(err, gridsim.ErrTransient),
// which only works while every layer preserves the chain.
//
//  1. Two error values must not be compared with == or != (except against
//     nil): wrapped sentinels never compare equal, so the comparison
//     silently stops matching the day someone adds context with %w.
//     Use errors.Is.
//  2. fmt.Errorf with an error argument must wrap it with %w; formatting an
//     error with %v/%s discards the chain that errors.Is/As need.
var errwrapAnalyzer = &Analyzer{
	Name: "errwrap",
	Doc:  "sentinel comparisons use errors.Is; fmt.Errorf wraps errors with %w",
	Run:  runErrwrap,
}

func runErrwrap(p *Pass) {
	errType := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	isErr := func(e ast.Expr) bool {
		t := p.TypeOf(e)
		if t == nil {
			return false
		}
		if b, ok := t.(*types.Basic); ok && b.Kind() == types.UntypedNil {
			return false
		}
		return types.Implements(t, errType) || types.Implements(types.NewPointer(t), errType)
	}

	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if (n.Op == token.EQL || n.Op == token.NEQ) && isErr(n.X) && isErr(n.Y) {
					p.Reportf(n.OpPos,
						"error compared with %s; wrapped sentinels never match — use errors.Is",
						n.Op)
				}
			case *ast.CallExpr:
				checkErrorfWrap(p, n, isErr)
			}
			return true
		})
	}
}

// checkErrorfWrap flags fmt.Errorf calls that format an error argument
// without a %w verb in the format string.
func checkErrorfWrap(p *Pass, call *ast.CallExpr, isErr func(ast.Expr) bool) {
	fn := p.calleeFunc(call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "fmt" || fn.Name() != "Errorf" {
		return
	}
	if len(call.Args) < 2 {
		return
	}
	tv, ok := p.Info.Types[call.Args[0]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return
	}
	format := constant.StringVal(tv.Value)
	if strings.Contains(format, "%w") {
		return
	}
	for _, arg := range call.Args[1:] {
		if isErr(arg) {
			p.Reportf(arg.Pos(),
				"error passed to fmt.Errorf without %%w; the chain is lost for errors.Is/As — wrap it")
			return
		}
	}
}
