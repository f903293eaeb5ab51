// Command tracvet is TRAC's repo-specific static-analysis suite. It enforces
// the invariants the recency/consistency machinery depends on but that the
// compiler cannot check:
//
//	catbump        catalog mutations bump the catalog version (plan-cache coherence)
//	lockcheck      locks are released on every path; no self-deadlock via exported methods
//	errwrap        sentinel comparisons use errors.Is; fmt.Errorf wraps with %w
//	synccheck      Close/Sync errors on writable files are checked (durability)
//	lockorder      no cycles in the global lock acquisition graph; no RLock→Lock upgrades
//	poolreuse      pooled exec.Batch ownership: no use-after-put/double-put/leak
//	fsdiscipline   durable paths mutate the filesystem via crashfs only
//
// Each stays because a one-edit mutant of the tree makes it fire while every
// test still passes (EXPERIMENTS.md, "tracvet on a diet"). The first four and
// fsdiscipline are per-package syntactic/type-based checks. poolreuse runs
// flow-sensitive dataflow over an AST-level CFG (cfg.go) with one level of
// callee summaries; lockorder is whole-program, building a lock-class
// acquisition graph across every module-internal package reachable from the
// arguments (program.go).
//
// Usage:
//
//	tracvet [-json] [packages]
//
// Packages default to "./...". Exit status: 0 clean, 1 findings, 2 usage or
// load errors. False positives are silenced in place with a justified
// comment on (or the line before) the flagged line:
//
//	//tracvet:ignore <analyzer> <reason>
//
// Malformed, unknown, reasonless, or unused suppressions are themselves
// findings, so a typo cannot silently disable a check and stale suppressions
// cannot linger.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

var allAnalyzers = []*Analyzer{
	catbumpAnalyzer,
	lockcheckAnalyzer,
	errwrapAnalyzer,
	synccheckAnalyzer,
	lockorderAnalyzer,
	poolreuseAnalyzer,
	fsdisciplineAnalyzer,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(argv []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("tracvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as JSON")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: tracvet [-json] [packages]\n\nAnalyzers:\n")
		for _, a := range allAnalyzers {
			fmt.Fprintf(stderr, "  %-15s %s\n", a.Name, a.Doc)
		}
		fs.PrintDefaults()
	}
	if err := fs.Parse(argv); err != nil {
		return 2
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	res, err := vet(patterns, allAnalyzers)
	if err != nil {
		fmt.Fprintln(stderr, "tracvet:", err)
		return 2
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fmt.Fprintln(stderr, "tracvet:", err)
			return 2
		}
	} else {
		for _, f := range res.Findings {
			fmt.Fprintf(stdout, "%s:%d:%d: [%s] %s\n", f.File, f.Line, f.Col, f.Analyzer, f.Message)
		}
		if n := len(res.Suppressed); n > 0 {
			fmt.Fprintf(stdout, "tracvet: %d finding(s) suppressed by //tracvet:ignore\n", n)
		}
	}
	if len(res.Findings) > 0 {
		return 1
	}
	return 0
}

// vet loads the packages matched by patterns and runs the given analyzers.
func vet(patterns []string, analyzers []*Analyzer) (*result, error) {
	dirs, err := expandPatterns(patterns)
	if err != nil {
		return nil, err
	}
	if len(dirs) == 0 {
		return nil, fmt.Errorf("no packages match %v", patterns)
	}
	modRoot, modPath, err := findModule(dirs[0])
	if err != nil {
		return nil, err
	}
	l := newLoader(modRoot, modPath)
	var pkgs []*pkgInfo
	for _, dir := range dirs {
		pi, err := l.LoadDir(dir)
		if err != nil {
			return nil, err
		}
		if len(pi.Errs) > 0 {
			return nil, fmt.Errorf("%s: %w", pi.Path, pi.Errs[0])
		}
		pkgs = append(pkgs, pi)
	}
	cwd, _ := os.Getwd()
	return runAnalyzers(l, pkgs, analyzers, cwd), nil
}

// relPath returns target relative to base when that makes it shorter and does
// not escape upward past the module; otherwise an error.
func relPath(base, target string) (string, error) {
	rel, err := filepath.Rel(base, target)
	if err != nil {
		return "", err
	}
	if strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("outside base")
	}
	return rel, nil
}
