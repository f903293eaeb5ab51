package main

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// A Finding is one diagnostic at a file position. Reason is set only on
// suppressed findings (the text after the analyzer name in the
// //tracvet:ignore comment).
type Finding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
	Reason   string `json:"reason,omitempty"`
}

// Analyzer is one repo-specific invariant checker. Per-package analyzers set
// Run; whole-program analyzers (lockorder) set RunProgram instead and see
// every module-internal package at once.
type Analyzer struct {
	Name       string
	Doc        string
	Run        func(*Pass)
	RunProgram func(*ProgPass)
}

// Pass is the per-package state handed to each analyzer.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	Path  string

	reportf func(pos token.Pos, msg string)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.reportf(pos, fmt.Sprintf(format, args...))
}

// TypeOf returns the static type of an expression (nil when unknown).
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if tv, ok := p.Info.Types[e]; ok {
		return tv.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := p.Info.Uses[id]; obj != nil {
			return obj.Type()
		}
		if obj := p.Info.Defs[id]; obj != nil {
			return obj.Type()
		}
	}
	return nil
}

// namedTypeName returns the name of e's named type (dereferencing one
// pointer), or "".
func (p *Pass) namedTypeName(e ast.Expr) string {
	t := p.TypeOf(e)
	if t == nil {
		return ""
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	if ptr, ok := t.(*types.Pointer); ok {
		if named, ok := ptr.Elem().(*types.Named); ok {
			return named.Obj().Name()
		}
	}
	return ""
}

// isPkgName reports whether e is a bare package qualifier (fmt in fmt.Errorf).
func (p *Pass) isPkgName(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	_, ok = p.Info.Uses[id].(*types.PkgName)
	return ok
}

// calleeFunc resolves the static callee of a call (function or method), or
// nil for dynamic calls, conversions, and builtins.
func (p *Pass) calleeFunc(call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := p.Info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := p.Info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// exprKey renders an expression as a stable source-ish string, used to match
// lock expressions like "s.mu" across statements.
func exprKey(fset *token.FileSet, e ast.Expr) string {
	var buf bytes.Buffer
	printer.Fprint(&buf, fset, e)
	return buf.String()
}

// walkShallow traverses n without descending into nested function literals
// (a FuncLit root is traversed; FuncLits encountered below it are not).
func walkShallow(n ast.Node, fn func(ast.Node) bool) {
	root := n
	ast.Inspect(n, func(m ast.Node) bool {
		if m == nil {
			return false
		}
		if _, ok := m.(*ast.FuncLit); ok && m != root {
			return false
		}
		return fn(m)
	})
}

// funcUnit is one function body analyzed independently: a declaration or a
// function literal.
type funcUnit struct {
	Name     string // display name ("(*Sniffer).Poll", "func literal")
	Decl     *ast.FuncDecl
	Body     *ast.BlockStmt
	RecvName string // receiver identifier ("" for plain funcs/literals)
	RecvType *types.Named
}

// funcUnits returns every function body in the pass, function literals as
// separate units (defer semantics are per function).
func funcUnits(p *Pass) []funcUnit {
	var units []funcUnit
	addLits := func(outer string, body *ast.BlockStmt) {
		ast.Inspect(body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				units = append(units, funcUnit{Name: outer + " literal", Body: lit.Body})
			}
			return true
		})
	}
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			u := funcUnit{Name: fd.Name.Name, Decl: fd, Body: fd.Body}
			if fd.Recv != nil && len(fd.Recv.List) == 1 {
				if len(fd.Recv.List[0].Names) == 1 {
					u.RecvName = fd.Recv.List[0].Names[0].Name
				}
				t := p.TypeOf(fd.Recv.List[0].Type)
				if ptr, ok := t.(*types.Pointer); ok {
					t = ptr.Elem()
				}
				if named, ok := t.(*types.Named); ok {
					u.RecvType = named
					u.Name = named.Obj().Name() + "." + fd.Name.Name
				}
			}
			units = append(units, u)
			addLits(u.Name, fd.Body)
		}
	}
	return units
}

// ---------------------------------------------------------------------------
// suppression comments

// suppression is one parsed //tracvet:ignore comment.
type suppression struct {
	File     string
	Line     int
	Analyzer string
	Reason   string
	used     bool
}

var ignoreRE = regexp.MustCompile(`^//tracvet:ignore(?:\s+(\S+))?(?:\s+(.*\S))?\s*$`)

// collectSuppressions parses //tracvet:ignore comments from a file.
// Malformed comments (missing analyzer or reason, or an unknown analyzer
// name) are reported as findings of the driver itself, so a typo cannot
// silently disable a check.
func collectSuppressions(fset *token.FileSet, f *ast.File, known map[string]bool, malformed func(pos token.Pos, msg string)) []suppression {
	var out []suppression
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, "//tracvet:ignore") {
				continue
			}
			m := ignoreRE.FindStringSubmatch(c.Text)
			if m == nil || m[1] == "" {
				malformed(c.Pos(), "malformed //tracvet:ignore: want \"//tracvet:ignore <analyzer> <reason>\"")
				continue
			}
			if !known[m[1]] {
				malformed(c.Pos(), fmt.Sprintf("//tracvet:ignore names unknown analyzer %q", m[1]))
				continue
			}
			if m[2] == "" {
				malformed(c.Pos(), fmt.Sprintf("//tracvet:ignore %s has no reason; suppressions must be justified", m[1]))
				continue
			}
			pos := fset.Position(c.Pos())
			out = append(out, suppression{File: pos.Filename, Line: pos.Line, Analyzer: m[1], Reason: m[2]})
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// runner

// result is the outcome of running analyzers over a set of packages.
type result struct {
	Findings   []Finding      `json:"findings"`
	Suppressed []Finding      `json:"suppressed"`
	Counts     map[string]int `json:"counts"`
}

// runAnalyzers runs every given analyzer over every package and applies
// suppression comments. Findings come back sorted and with paths relative
// to relDir (when non-empty).
func runAnalyzers(l *loader, pkgs []*pkgInfo, analyzers []*Analyzer, relDir string) *result {
	known := make(map[string]bool, len(allAnalyzers)+1)
	known["tracvet"] = true
	for _, a := range allAnalyzers {
		known[a.Name] = true
	}

	type rawFinding struct {
		analyzer string
		pos      token.Position
		msg      string
	}
	var raw []rawFinding
	var sups []suppression

	for _, pi := range pkgs {
		if len(pi.Files) == 0 {
			continue
		}
		for _, f := range pi.Files {
			fileSups := collectSuppressions(l.Fset, f, known, func(pos token.Pos, msg string) {
				raw = append(raw, rawFinding{"tracvet", l.Fset.Position(pos), msg})
			})
			sups = append(sups, fileSups...)
		}
		pass := &Pass{Fset: l.Fset, Files: pi.Files, Pkg: pi.Pkg, Info: pi.Info, Path: pi.Path}
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			name := a.Name
			pass.reportf = func(pos token.Pos, msg string) {
				raw = append(raw, rawFinding{name, l.Fset.Position(pos), msg})
			}
			a.Run(pass)
		}
	}

	// Whole-program analyzers run once over the dependency-closed package
	// set; their findings are filtered to command-line targets by ProgPass.
	var progAnalyzers []*Analyzer
	for _, a := range analyzers {
		if a.RunProgram != nil {
			progAnalyzers = append(progAnalyzers, a)
		}
	}
	if len(progAnalyzers) > 0 {
		prog := buildProgram(l, pkgs)
		for _, a := range progAnalyzers {
			name := a.Name
			pp := &ProgPass{Prog: prog, reportf: func(pos token.Pos, msg string) {
				raw = append(raw, rawFinding{name, l.Fset.Position(pos), msg})
			}}
			a.RunProgram(pp)
		}
	}

	// Non-nil slices so the -json encoding is stable: a clean run emits
	// "findings": [] rather than null.
	res := &result{Findings: []Finding{}, Suppressed: []Finding{}, Counts: make(map[string]int)}
	match := func(rf rawFinding) (string, bool) {
		for i := range sups {
			s := &sups[i]
			if s.Analyzer == rf.analyzer && s.File == rf.pos.Filename &&
				(s.Line == rf.pos.Line || s.Line == rf.pos.Line-1) {
				s.used = true
				return s.Reason, true
			}
		}
		return "", false
	}
	reasons := make([]string, len(raw))
	suppressedAt := make([]bool, len(raw))
	for i, rf := range raw {
		reasons[i], suppressedAt[i] = match(rf)
	}
	// A suppression that matched nothing is itself a finding (only when its
	// analyzer actually ran — a test that runs one analyzer leaves the
	// others' suppressions mute, not dead).
	enabled := make(map[string]bool, len(analyzers)+1)
	enabled["tracvet"] = true
	for _, a := range analyzers {
		enabled[a.Name] = true
	}
	for _, s := range sups {
		if !s.used && enabled[s.Analyzer] {
			raw = append(raw, rawFinding{"tracvet",
				token.Position{Filename: s.File, Line: s.Line, Column: 1},
				fmt.Sprintf("unused //tracvet:ignore %s: nothing is suppressed here — delete it (stale suppressions hide future regressions)", s.Analyzer)})
			reasons = append(reasons, "")
			suppressedAt = append(suppressedAt, false)
		}
	}
	for i, rf := range raw {
		f := Finding{
			Analyzer: rf.analyzer,
			File:     rf.pos.Filename,
			Line:     rf.pos.Line,
			Col:      rf.pos.Column,
			Message:  rf.msg,
			Reason:   reasons[i],
		}
		if relDir != "" {
			if rel, err := relPath(relDir, f.File); err == nil {
				f.File = rel
			}
		}
		if suppressedAt[i] {
			res.Suppressed = append(res.Suppressed, f)
		} else {
			f.Reason = ""
			res.Findings = append(res.Findings, f)
			res.Counts[f.Analyzer]++
		}
	}
	sortFindings(res.Findings)
	sortFindings(res.Suppressed)
	res.Counts["total"] = len(res.Findings)
	res.Counts["suppressed"] = len(res.Suppressed)
	return res
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}
