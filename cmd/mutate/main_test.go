package main

import (
	"maps"
	"os"
	"os/exec"
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
		{"capped", plain, []string{testFailed, "fatal error: runtime: out of memory\nexit status 2\n"}, "killed by a; b (out of memory under the address-space cap)"},
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
// package that failed in none of its tests, with the bound it died of.
func TestFailedListsTopLevelTests(t *testing.T) {
	out := `{"Action":"fail","Package":"millipage/internal/dsm","Test":"TestA/sub"}
{"Action":"fail","Package":"millipage/internal/dsm","Test":"TestA"}
{"Action":"pass","Package":"millipage/internal/dsm","Test":"TestB"}
{"Action":"fail","Package":"millipage/internal/dsm"}
{"Action":"fail","Package":"millipage/internal/vm"}
{"Action":"output","Package":"millipage/internal/sim","Output":"fatal error: out of memory\n"}
{"Action":"fail","Package":"millipage/internal/sim"}
{"Action":"output","Package":"millipage/internal/core","Output":"panic: test timed out after 2m0s\n"}
{"Action":"fail","Package":"millipage/internal/core"}`
	want := "internal/dsm.TestA internal/vm internal/sim (out of memory under the address-space cap) internal/core (timed out)"
	if got := strings.Join(failed([]byte(out)), " "); got != want {
		t.Fatalf("failed = %q, want %q", got, want)
	}
}

// TestFamilyStatements: a family lists every statement of its package's
// blocks and case bodies (a switch's case clauses among them), outer ones
// first, with its enclosing function, and resolves each equivalent one to
// the one statement it names.
func TestFamilyStatements(t *testing.T) {
	m, err := load("testdata/family.txt")
	if err != nil || m.family == nil {
		t.Fatalf("load = %v, family %v", err, m.family)
	}
	f := m.family
	var got []string
	for _, s := range f.stmts {
		got = append(got, s.fn+": "+s.text)
	}
	want := []string{"(*T).inc: t.n++", "(*T).inc: if t.n > 2 {\n\t\tt.n = 0\n\t}", "(*T).inc: t.n = 0",
		"f: switch x {\n\tcase 1:\n\t\tx++\n\t}", "f: x++", "f: return x", "f: case 1:\n\t\tx++", "f: x++"}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Fatalf("statements:\n%q\nwant\n%q", got, want)
	}
	if want := map[int]string{2: "equivalent: the wrap is never reached", 0: "equivalent: the count is never read"}; !maps.Equal(f.listed, want) {
		t.Fatalf("listed = %v, want %v", f.listed, want)
	}
	for listing, want := range map[string]string{
		`fam.go f "x--" gone`:             "matches no statement",
		`fam.go f "x++" twice`:            "matches two statements",
		`fam.go (*T).inc "t.n++"`:         "gives no reason",
		`fam.go (*T).inc t.n++ unquoted`:  "want <file> <func> <quoted statement> <reason>",
		`fam.go (*T).inc "t.n = 0" wraps`: "",
	} {
		if _, _, err := f.lookup(listing); err == nil && want != "" || err != nil && !strings.Contains(err.Error(), want) {
			t.Errorf("lookup(%s) = %v, want %q", listing, err, want)
		}
	}
}

// TestCompileError: the first compiler error under the go command's
// header is a mutant's nobuild reason; a run that built has none.
func TestCompileError(t *testing.T) {
	if got := compileError(notBuilt); got != "target/t.go:3:9: undefined: x" {
		t.Fatalf("compileError = %q", got)
	}
	if got := compileError(testFailed); got != "" {
		t.Fatalf("compileError of a failed test = %q, want none", got)
	}
}

// TestChangedStatements: the default run deletes, for each line a change
// adds or edits, the innermost statement holding it; a deletion-only hunk
// and a line outside every statement pick none.
func TestChangedStatements(t *testing.T) {
	m, _ := load("testdata/family.txt")
	diff := "diff --git a/fam.go b/fam.go\n--- a/fam.go\n+++ b/fam.go\n" +
		"@@ -8 +8 @@\n-\t\tt.n = 1\n+\t\tt.n = 0\n" + // inside the if: the assignment, not the if
		"@@ -11,0 +12 @@\n+func f(x int) int {\n" + // a header: no statement
		"@@ -20,2 +15,2 @@\n" + // the case's x++, then the switch's closing brace
		"@@ -30 +29,0 @@\n" // a deletion: no line of the new file
	var got []string
	for _, i := range m.family.changed([]byte(diff)) {
		got = append(got, m.family.stmts[i].String())
	}
	want := []string{`fam.go:8 (*T).inc "t.n = 0"`, `fam.go:15 f "x++"`, `fam.go:13 f "switch x {\n\tcase 1:\n\t\tx++\n\t}"`}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Fatalf("changed = %q, want %q", got, want)
	}
}

// TestTouchedOnMain: the default run's change is the tree against its merge
// base with main; on main itself, where that base is HEAD, it is the last
// commit and the tree, so a committed change is still checked.
func TestTouchedOnMain(t *testing.T) {
	src, err := os.ReadFile("testdata/fam/fam.go")
	if err != nil {
		t.Fatal(err)
	}
	repo, wd := t.TempDir(), must(os.Getwd())
	git := func(args ...string) {
		cmd := exec.Command("git", append([]string{"-c", "user.name=t", "-c", "user.email=t@t"}, args...)...)
		cmd.Dir = repo
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("git %v: %v\n%s", args, err, out)
		}
	}
	cur := string(src)
	commit := func(old, new string) {
		cur = strings.Replace(cur, old, new, 1)
		if err := os.WriteFile(filepath.Join(repo, "fam", "fam.go"), []byte(cur), 0o644); err != nil {
			t.Fatal(err)
		}
		git("add", ".")
		git("commit", "-qm", "c")
	}
	must(0, os.Mkdir(filepath.Join(repo, "fam"), 0o755))
	git("init", "-q", "-b", "main")
	commit("", "")
	commit("t.n = 0", "t.n = 1")
	must(0, os.Chdir(repo))
	t.Cleanup(func() { os.Chdir(wd) })
	touched := func() string {
		f := &family{dir: "fam"}
		if err := f.load(nil); err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, i := range must(f.touched()) {
			got = append(got, f.stmts[i].text)
		}
		return strings.Join(got, "|")
	}
	if got := touched(); got != "t.n = 1" {
		t.Fatalf("on main: touched %q, want the last commit's t.n = 1", got)
	}
	git("checkout", "-qb", "work")
	commit("return x", "return x + 1")
	if got := touched(); got != "return x + 1" {
		t.Fatalf("on a branch: touched %q, want its own commit's return x + 1", got)
	}
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
