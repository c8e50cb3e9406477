package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The repository's checks are the tiers of scripts/check.sh, which selects
// tests by running all of them; CI runs the tiers and names no test itself.
// The guard below keeps the few name patterns the script does hold honest.

var (
	goTestOrRun = regexp.MustCompile(`\bgo (test|run)\b`)
	testFunc    = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz|Example)\w*)\(`)
	unquote     = strings.NewReplacer("'", "", `"`, "")
)

// selects maps each go test flag that picks functions by name to the
// prefixes of the functions it can pick.
var selects = map[string][]string{
	"-run":   {"Test", "Fuzz", "Example"},
	"-bench": {"Benchmark"},
	"-fuzz":  {"Fuzz"},
}

// TestCheckScriptNamesRealTests: every alternative of every -run, -bench
// and -fuzz pattern in scripts/check.sh selects at least one function in
// the packages its line names, so renaming or deleting a test cannot leave
// a pattern that quietly selects nothing (CI's alloc gate named
// BytesRegression for thirty-odd changes after the last test it matched
// became a row of TestE2EAllocsRegression); and ci.yml holds no go test or
// go run line, so the script stays the one list of checks.
func TestCheckScriptNamesRealTests(t *testing.T) {
	root := repoRoot(t)
	script, err := os.ReadFile(filepath.Join(root, "scripts", "check.sh"))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range deadPatterns(t, root, string(script)) {
		t.Errorf("scripts/check.sh: %s", d)
	}
	ci, err := os.ReadFile(filepath.Join(root, ".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(string(ci), "\n") {
		if goTestOrRun.MatchString(line) {
			t.Errorf("ci.yml:%d: %q: run it from a tier of scripts/check.sh", i+1, strings.TrimSpace(line))
		}
	}
}

// TestDeadPatternsFindsEachDeadAlternative feeds the guard lines it must
// reject, the first of them the alloc-gate line CI ran before the script.
func TestDeadPatternsFindsEachDeadAlternative(t *testing.T) {
	root := repoRoot(t)
	for _, c := range []struct{ line, dead string }{
		{`go test -run 'AllocsRegression|BytesRegression|AllocFree' -v ./internal/bench/ ./internal/fastmsg/ ./internal/cluster/ ./internal/dsm/`, "BytesRegression"},
		{`go test -run '^(TestAcrossWordBoundaries|TestAcross)$' ./internal/hostset/`, "TestAcross"},
		{`go test -run '^$' -bench 'AccessSamePage|NoSuchKernel' ./internal/vm/ ./internal/apps/`, "NoSuchKernel"},
		{`go test -run '^$' -fuzz=FuzzFrameDecode ./internal/mmu/`, "FuzzFrameDecode"},
		{`go test -race -count=3 -run 'TestSweep' ./internal/sim/`, "TestSweep"},
	} {
		got := deadPatterns(t, root, c.line)
		if len(got) != 1 || !strings.Contains(got[0], c.dead) {
			t.Errorf("%s: dead alternatives %q, want one naming %s", c.line, got, c.dead)
		}
	}
	if got := deadPatterns(t, root, `go test -run '^$' -bench . -benchtime=1x ./...`); len(got) != 0 {
		t.Errorf("-bench . over ./...: %q, want none dead", got)
	}
}

func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// deadPatterns returns one line for each alternative of a name pattern in
// script's go test lines that selects no function in that line's packages.
// A -run '^$' selects nothing on purpose and is skipped.
func deadPatterns(t *testing.T, root, script string) []string {
	t.Helper()
	var dead []string
	for _, line := range strings.Split(script, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "#") {
			continue
		}
		_, args, ok := strings.Cut(line, "go test ")
		if !ok {
			continue
		}
		// A name pattern holds no blank, so blanks split the words and
		// the quotes can go.
		words := strings.Fields(unquote.Replace(args))
		var pkgs []string
		pats := map[string]string{}
		for i := 0; i < len(words); i++ {
			w := words[i]
			flag, val, hasVal := strings.Cut(w, "=")
			switch {
			case selects[flag] != nil && hasVal:
				pats[flag] = val
			case selects[flag] != nil && i+1 < len(words):
				pats[flag] = words[i+1]
				i++
			case strings.HasPrefix(w, "./"):
				pkgs = append(pkgs, w)
			}
		}
		var names []string
		for _, p := range pkgs {
			names = append(names, funcsIn(t, root, p)...)
		}
		for _, flag := range []string{"-run", "-bench", "-fuzz"} {
			pat, ok := pats[flag]
			if !ok || (flag == "-run" && pat == "^$") {
				continue
			}
			for _, alt := range alternatives(pat) {
				re, err := regexp.Compile(alt)
				if err != nil {
					dead = append(dead, fmt.Sprintf("%s %q: %v", flag, pat, err))
					continue
				}
				if !selectsOne(re, names, selects[flag]) {
					dead = append(dead, fmt.Sprintf("%s %q: %s selects no function in %s", flag, pat, alt, strings.Join(pkgs, " ")))
				}
			}
		}
	}
	return dead
}

func selectsOne(re *regexp.Regexp, names, prefixes []string) bool {
	for _, n := range names {
		for _, p := range prefixes {
			if strings.HasPrefix(n, p) && re.MatchString(n) {
				return true
			}
		}
	}
	return false
}

// alternatives splits a name pattern into its top-level alternatives, each
// anchored as the whole was: '^(A|B)$' gives '^(?:A)$' and '^(?:B)$'.
func alternatives(pat string) []string {
	pre, suf := "", ""
	if strings.HasPrefix(pat, "^") {
		pre, pat = "^", pat[1:]
	}
	if strings.HasSuffix(pat, "$") {
		suf, pat = "$", pat[:len(pat)-1]
	}
	if len(pat) > 1 && pat[0] == '(' && closer(pat) == len(pat)-1 {
		pat = pat[1 : len(pat)-1]
	}
	var alts []string
	depth, from := 0, 0
	for i, c := range pat {
		switch c {
		case '(':
			depth++
		case ')':
			depth--
		case '|':
			if depth == 0 {
				alts = append(alts, pat[from:i])
				from = i + 1
			}
		}
	}
	alts = append(alts, pat[from:])
	for i, a := range alts {
		alts[i] = pre + "(?:" + a + ")" + suf
	}
	return alts
}

// closer returns the index of the parenthesis that closes pat[0].
func closer(pat string) int {
	depth := 0
	for i, c := range pat {
		switch c {
		case '(':
			depth++
		case ')':
			if depth--; depth == 0 {
				return i
			}
		}
	}
	return -1
}

// funcsIn returns the Test, Benchmark, Fuzz and Example functions declared
// in the _test.go files of pkg, a ./-relative package path under dir or a
// ./... pattern, whatever their build tags.
func funcsIn(t *testing.T, dir, pkg string) []string {
	t.Helper()
	var names []string
	scan := func(d string) {
		files, err := filepath.Glob(filepath.Join(d, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range testFunc.FindAllStringSubmatch(string(src), -1) {
				names = append(names, m[1])
			}
		}
	}
	base, recursive := strings.CutSuffix(pkg, "...")
	base = filepath.Join(dir, base)
	if !recursive {
		scan(base)
		return names
	}
	err := filepath.WalkDir(base, func(path string, e os.DirEntry, err error) error {
		if err != nil || !e.IsDir() {
			return err
		}
		name := e.Name()
		if path != base && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil && path != base {
			return filepath.SkipDir // a module of its own, outside ./...
		}
		scan(path)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}
