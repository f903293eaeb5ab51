package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func analyzerByName(t *testing.T, name string) *Analyzer {
	t.Helper()
	for _, a := range allAnalyzers {
		if a.Name == name {
			return a
		}
	}
	t.Fatalf("no analyzer %q", name)
	return nil
}

var wantRE = regexp.MustCompile(`//\s*want "([^"]*)"`)

// loadWants scans a testdata package for // want "regex" annotations, keyed
// by base-filename:line.
func loadWants(t *testing.T, dir string) map[string]*regexp.Regexp {
	t.Helper()
	wants := make(map[string]*regexp.Regexp)
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRE.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			re, err := regexp.Compile(m[1])
			if err != nil {
				t.Fatalf("%s:%d: bad want regexp %q: %v", e.Name(), i+1, m[1], err)
			}
			wants[fmt.Sprintf("%s:%d", e.Name(), i+1)] = re
		}
	}
	return wants
}

// runGolden runs one analyzer over its testdata package and matches the
// findings against the // want annotations, both directions.
func runGolden(t *testing.T, name string) {
	a := analyzerByName(t, name)
	dir := filepath.Join("testdata", "src", name)
	res, err := vet([]string{dir}, []*Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}
	wants := loadWants(t, dir)
	if len(wants) == 0 {
		t.Fatalf("no // want annotations in %s", dir)
	}
	matched := make(map[string]bool)
	for _, f := range res.Findings {
		key := fmt.Sprintf("%s:%d", filepath.Base(f.File), f.Line)
		re, ok := wants[key]
		if !ok {
			t.Errorf("unexpected finding %s:%d: [%s] %s", f.File, f.Line, f.Analyzer, f.Message)
			continue
		}
		if !re.MatchString(f.Message) {
			t.Errorf("%s: finding %q does not match want %q", key, f.Message, re)
			continue
		}
		matched[key] = true
	}
	for key, re := range wants {
		if !matched[key] {
			t.Errorf("missing finding at %s (want %q)", key, re)
		}
	}
}

func TestCatbumpGolden(t *testing.T)      { runGolden(t, "catbump") }
func TestLockcheckGolden(t *testing.T)    { runGolden(t, "lockcheck") }
func TestErrwrapGolden(t *testing.T)      { runGolden(t, "errwrap") }
func TestSynccheckGolden(t *testing.T)    { runGolden(t, "synccheck") }
func TestLockorderGolden(t *testing.T)    { runGolden(t, "lockorder") }
func TestPoolreuseGolden(t *testing.T)    { runGolden(t, "poolreuse") }
func TestFsdisciplineGolden(t *testing.T) { runGolden(t, "fsdiscipline") }

// TestSuppressions: a justified //tracvet:ignore silences its finding and is
// reported in the suppressed set; malformed or unknown ones are findings of
// the driver itself.
func TestSuppressions(t *testing.T) {
	dir := filepath.Join("testdata", "src", "suppress")
	res, err := vet([]string{dir}, []*Analyzer{analyzerByName(t, "errwrap")})
	if err != nil {
		t.Fatal(err)
	}
	var driver, errwrap int
	for _, f := range res.Findings {
		switch f.Analyzer {
		case "tracvet":
			driver++
		case "errwrap":
			errwrap++
		}
	}
	if driver != 3 {
		t.Errorf("got %d driver findings for malformed suppressions, want 3:\n%v", driver, res.Findings)
	}
	if errwrap != 0 {
		t.Errorf("got %d unsuppressed errwrap findings, want 0:\n%v", errwrap, res.Findings)
	}
	if len(res.Suppressed) != 1 {
		t.Fatalf("got %d suppressed findings, want 1:\n%v", len(res.Suppressed), res.Suppressed)
	}
	s := res.Suppressed[0]
	if s.Analyzer != "errwrap" || s.Reason == "" {
		t.Errorf("suppressed finding lacks analyzer/reason: %+v", s)
	}
	if res.Counts["suppressed"] != 1 {
		t.Errorf("counts[suppressed] = %d, want 1", res.Counts["suppressed"])
	}
}

// TestRepoClean asserts the real repository is finding-free under every
// analyzer (suppressions excepted) — the invariant `make lint` enforces.
func TestRepoClean(t *testing.T) {
	res, err := vet([]string{filepath.Join("..", "..") + "/..."}, allAnalyzers)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Findings {
		t.Errorf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
	}
}

// TestJSONStable pins the -json encoding documented in EXPERIMENTS.md.
func TestJSONStable(t *testing.T) {
	res := &result{
		Findings: []Finding{{
			Analyzer: "errwrap", File: "pkg/a.go", Line: 3, Col: 9,
			Message: "error compared with ==",
		}},
		Suppressed: []Finding{},
		Counts:     map[string]int{"errwrap": 1, "suppressed": 0, "total": 1},
	}
	got, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want := `{
  "findings": [
    {
      "analyzer": "errwrap",
      "file": "pkg/a.go",
      "line": 3,
      "col": 9,
      "message": "error compared with =="
    }
  ],
  "suppressed": [],
  "counts": {
    "errwrap": 1,
    "suppressed": 0,
    "total": 1
  }
}`
	if string(got) != want {
		t.Errorf("JSON encoding changed:\ngot:\n%s\nwant:\n%s", got, want)
	}
}
