package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// driver_test exercises tracvet end to end through run(): output format,
// flag handling, and the seeded-mutant guarantees the acceptance criteria
// demand.

// capture runs the CLI with stdout and stderr redirected to temp files and
// returns the exit status plus both streams.
func capture(t *testing.T, argv ...string) (code int, stdout, stderr string) {
	t.Helper()
	outF, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	errF, err := os.CreateTemp(t.TempDir(), "stderr")
	if err != nil {
		t.Fatal(err)
	}
	code = run(argv, outF, errF)
	for _, f := range []*os.File{outF, errF} {
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	ob, err := os.ReadFile(outF.Name())
	if err != nil {
		t.Fatal(err)
	}
	eb, err := os.ReadFile(errF.Name())
	if err != nil {
		t.Fatal(err)
	}
	return code, string(ob), string(eb)
}

// writeModule materializes a throwaway module so the loader sees a real
// go.mod boundary, and returns its directory.
func writeModule(t *testing.T, name string, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module " + name + "\n\ngo 1.22\n"
	for rel, src := range files {
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// wantUsage asserts that each argv is rejected as a usage error.
func wantUsage(t *testing.T, argvs ...[]string) {
	t.Helper()
	for _, argv := range argvs {
		if code, _, stderr := capture(t, argv...); code != 2 || !strings.Contains(stderr, "usage: tracvet [-json] [packages]") {
			t.Errorf("tracvet %s: exit %d, want 2 with usage; stderr:\n%s", strings.Join(argv, " "), code, stderr)
		}
	}
}

// TestRunJSONDisable: -json round-trips through the result encoding, and
// -disable, which no longer exists, is a usage error.
func TestRunJSONDisable(t *testing.T) {
	fixture := filepath.Join("testdata", "src", "errwrap")

	code, stdout, stderr := capture(t, "-json", fixture)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr:\n%s", code, stderr)
	}
	var res result
	if err := json.Unmarshal([]byte(stdout), &res); err != nil {
		t.Fatalf("-json output does not decode: %v", err)
	}
	if res.Counts["errwrap"] == 0 {
		t.Errorf("counts[errwrap] = 0, want > 0 over the errwrap fixture")
	}

	wantUsage(t, []string{"-disable", "errwrap", fixture})
}

// TestRunFlagConflict: -json is the only flag, so -sarif, -fix and -list
// are usage errors, alone or beside -json.
func TestRunFlagConflict(t *testing.T) {
	fixture := filepath.Join("testdata", "src", "errwrap")
	wantUsage(t,
		[]string{"-sarif", fixture},
		[]string{"-json", "-sarif", fixture},
		[]string{"-fix", fixture},
		[]string{"-list"},
	)
}

// TestPoolreuseMutant: the acceptance-criteria mutant — a NextBatch
// implementation that recycles the batch and then returns it — is caught by
// poolreuse, and the healthy twin is clean.
func TestPoolreuseMutant(t *testing.T) {
	const pool = `package mutant

type Batch struct {
	Rows [][]int
	Sel  []int
}

func GetBatch() *Batch  { return &Batch{} }
func PutBatch(b *Batch) {}
`
	mutant := writeModule(t, "mutant", map[string]string{
		"pool.go": pool,
		"source.go": `package mutant

type rowSource struct{ rows [][]int }

// NextBatch recycles the batch it is about to hand out: the classic
// use-after-put the analyzer exists to catch.
func (s *rowSource) NextBatch() (*Batch, error) {
	b := GetBatch()
	b.Rows = append(b.Rows[:0], s.rows...)
	PutBatch(b)
	return b, nil
}
`,
	})
	res, err := vet([]string{mutant}, []*Analyzer{analyzerByName(t, "poolreuse")})
	if err != nil {
		t.Fatal(err)
	}
	want := regexp.MustCompile(`use of batch b after PutBatch`)
	var hits int
	for _, f := range res.Findings {
		if want.MatchString(f.Message) {
			hits++
		} else {
			t.Errorf("unexpected finding: %+v", f)
		}
	}
	if hits != 1 {
		t.Errorf("got %d use-after-put findings on the mutant, want 1:\n%+v", hits, res.Findings)
	}

	healthy := writeModule(t, "mutant", map[string]string{
		"pool.go": pool,
		"source.go": `package mutant

type rowSource struct{ rows [][]int }

// NextBatch transfers ownership to the caller; nothing to recycle here.
func (s *rowSource) NextBatch() (*Batch, error) {
	b := GetBatch()
	b.Rows = append(b.Rows[:0], s.rows...)
	return b, nil
}
`,
	})
	res, err = vet([]string{healthy}, []*Analyzer{analyzerByName(t, "poolreuse")})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Findings {
		t.Errorf("healthy twin flagged: %+v", f)
	}
}

// TestUnusedSuppressionFinding: a //tracvet:ignore that suppresses nothing is
// itself a driver finding, so stale suppressions cannot linger.
func TestUnusedSuppressionFinding(t *testing.T) {
	dir := writeModule(t, "stale", map[string]string{
		"stale.go": `package stale

//tracvet:ignore errwrap predates the rewrite of this function
func nothing() int { return 0 }
`,
	})
	res, err := vet([]string{dir}, []*Analyzer{analyzerByName(t, "errwrap")})
	if err != nil {
		t.Fatal(err)
	}
	var unused int
	for _, f := range res.Findings {
		if f.Analyzer == "tracvet" && strings.Contains(f.Message, "unused //tracvet:ignore errwrap") {
			unused++
		} else {
			t.Errorf("unexpected finding: %+v", f)
		}
	}
	if unused != 1 {
		t.Errorf("got %d unused-suppression findings, want 1:\n%+v", unused, res.Findings)
	}
}
