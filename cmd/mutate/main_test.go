package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Killer outputs as the go command prints them.
const (
	testFailed = "--- FAIL: TestF (0.00s)\nFAIL\nFAIL\tmillipage/target\t0.01s\nFAIL\n"
	testPassed = "ok  \tmillipage/target\t0.01s\n"
	noTests    = "ok  \tmillipage/target\t0.01s [no tests to run]\n"
	notBuilt   = "# millipage/target\ntarget/t.go:3:9: undefined: x\nFAIL\tmillipage/target [build failed]\nFAIL\n"
)

// TestCatalogueApplies loads every mutant of the repository's catalogue:
// each parses and its old text occurs exactly once in its file, so a
// refactor that moves a mutant's text fails here, before the mutants tier.
func TestCatalogueApplies(t *testing.T) {
	wd, _ := os.Getwd()
	t.Cleanup(func() { os.Chdir(wd) })
	if err := os.Chdir("../.."); err != nil {
		t.Fatal(err)
	}
	paths, _ := filepath.Glob("testdata/mutants/*.txt")
	if len(paths) < 20 {
		t.Fatalf("the catalogue holds %d mutants, want at least 20", len(paths))
	}
	for _, p := range paths {
		if m, err := load(p); err != nil {
			t.Error(err)
		} else if m.survivor != "" && !strings.HasPrefix(m.survivor, "item ") {
			t.Errorf("%s: survivor %q names no ROADMAP item that will kill it", p, m.survivor)
		}
	}
}

// TestLoadRefuses: an old text that occurs zero or two times, or a killer
// that is not a go command, fails the mutant.
func TestLoadRefuses(t *testing.T) {
	for name, want := range map[string]string{
		"absent": "occurs 0 times", "twice": "occurs 2 times", "shell": `"kill make test" is no`,
	} {
		if _, err := load("testdata/" + name + ".txt"); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: load = %v, want %q", name, err, want)
		}
	}
	m, err := load("testdata/plain.txt")
	if err != nil || !strings.Contains(string(m.src), "func f() int { return 0 }") || len(m.killers) != 2 || m.killers[1][1] != "run" {
		t.Fatalf("plain: %v, %q, killers %q", err, m.src, m.killers)
	}
}

// TestJudge: every killer must fail an unmarked mutant and none a marked
// survivor; a killer that runs no test or a mutant that does not build
// kills nothing.
func TestJudge(t *testing.T) {
	plain, _ := load("testdata/plain.txt")
	marked, _ := load("testdata/marked.txt")
	cases := []struct {
		name string
		m    *mutant
		outs []string // one a killer: its output, failed if it prints FAIL
		want string   // the verdict, or "error: " and the error's text
	}{
		{"killed", plain, []string{testFailed, "panic: x\nexit status 2\n"}, "killed by a; b"},
		{"survived", plain, []string{testFailed, testPassed}, `error: survived ["b"]`},
		{"no-tests", plain, []string{testFailed, noTests}, `error: killer "b" runs no test`},
		{"not-built", plain, []string{notBuilt, notBuilt}, "error: does not build under a"},
		{"marked-survives", marked, []string{testPassed}, "survived, as marked: item 99"},
		{"marked-killed", marked, []string{testFailed}, `error: marked a survivor (item 99), but ["a"] kills it: drop the mark`},
	}
	for _, tc := range cases {
		var outs []outcome
		for i, out := range tc.outs {
			outs = append(outs, outcome{string(rune('a' + i)), out, strings.Contains(out, "FAIL") || strings.Contains(out, "exit status")})
		}
		got, err := judge(tc.m, outs)
		if err != nil {
			got = "error: " + err.Error()
		}
		if got != tc.want {
			t.Errorf("%s: %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestFailedListsTopLevelTests reads go test -json output: the matrix's
// row for a mutant is the top-level tests that failed under it, and each
// package that failed in none of its tests (a timeout).
func TestFailedListsTopLevelTests(t *testing.T) {
	out := `{"Action":"fail","Package":"millipage/internal/dsm","Test":"TestA/sub"}
{"Action":"fail","Package":"millipage/internal/dsm","Test":"TestA"}
{"Action":"pass","Package":"millipage/internal/dsm","Test":"TestB"}
{"Action":"fail","Package":"millipage/internal/dsm"}
{"Action":"fail","Package":"millipage/internal/vm"}`
	if got := strings.Join(failed([]byte(out)), " "); got != "internal/dsm.TestA internal/vm" {
		t.Fatalf("failed = %q, want internal/dsm.TestA internal/vm", got)
	}
}
