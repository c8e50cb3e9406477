// Command mutate runs the mutant catalogue, testdata/mutants: one file a
// mutant, '#' comments on what it undoes, `file <go file>`, a `kill <go
// command>` line a killer (split on spaces), `survivor <ROADMAP item>` for
// a known survivor, then `--- old`, the exact text to replace, `--- new`
// and its replacement. `go run ./cmd/mutate [name...]` requires every
// killer to fail; with -matrix it lists the top-level tests `go test
// ./...` fails instead. Mutants reach the go command through -overlay,
// with UPDATE_PINS cleared: the checkout and its pins are never written.
package main

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
)

type mutant struct {
	file, survivor, old, new string // file made absolute
	killers                  [][]string
	src                      []byte // file with the replacement made
}

// outcome is one killer's run under a mutant.
type outcome struct {
	killer, out string
	failed      bool
}

func main() {
	matrix := flag.Bool("matrix", false, "list the top-level tests go test -json ./... fails under each mutant")
	flag.Parse()
	paths, _ := filepath.Glob("testdata/mutants/*.txt")
	if flag.NArg() > 0 {
		paths = flag.Args() // names, which the loop makes paths
	}
	bad := 0
	for _, path := range paths {
		name := strings.TrimSuffix(filepath.Base(path), ".txt")
		verdict, err := try(filepath.Join("testdata/mutants", name+".txt"), *matrix)
		if err != nil {
			verdict, bad = "FAIL: "+err.Error(), bad+1
		}
		fmt.Printf("%-26s %s\n", name, verdict)
	}
	if bad > 0 {
		log.Fatalf("mutate: %d of %d mutants failed", bad, len(paths))
	}
}

// try runs the mutant at path's killers, or under matrix every test.
func try(path string, matrix bool) (string, error) {
	m, err := load(path)
	dir, _ := os.MkdirTemp("", "mutant")
	defer os.RemoveAll(dir)
	ov := filepath.Join(dir, "overlay.json")
	if err := errors.Join(err, os.WriteFile(ov+".go", m.src, 0o644), os.WriteFile(ov, []byte(fmt.Sprintf(`{"Replace":{%q:%q}}`, m.file, ov+".go")), 0o644)); err != nil {
		return "", err
	}
	run := func(k []string) outcome { // go <verb> -overlay <args>
		cmd := exec.Command(k[0], append([]string{k[1], "-overlay=" + ov}, k[2:]...)...)
		cmd.Env = slices.DeleteFunc(os.Environ(), func(e string) bool { return strings.HasPrefix(e, "UPDATE_PINS=") })
		out, err := cmd.CombinedOutput()
		return outcome{strings.Join(k, " "), string(out), err != nil}
	}
	if matrix {
		return "fails " + strings.Join(failed([]byte(run([]string{"go", "test", "-json", "-timeout=2m", "./..."}).out)), " "), nil
	}
	var outs []outcome
	for _, k := range m.killers {
		outs = append(outs, run(k))
	}
	return judge(m, outs)
}

// load reads a mutant and makes its replacement, which must match once.
func load(path string) (*mutant, error) {
	src, err := os.ReadFile(path)
	head, body, ok := strings.Cut(string(src), "--- old\n")
	old, repl, ok2 := strings.Cut(body, "\n--- new\n")
	m := &mutant{old: old, new: strings.TrimSuffix(repl, "\n")}
	for _, line := range strings.Split(head, "\n") {
		key, val, _ := strings.Cut(line, " ")
		switch k := strings.Fields(val); {
		case key == "file":
			m.file, _ = filepath.Abs(val)
		case key == "survivor":
			m.survivor = val
		case key == "kill" && len(k) > 2 && k[0] == "go":
			m.killers = append(m.killers, k)
		case key != "#" && line != "" && err == nil:
			err = fmt.Errorf("%s: line %q is no comment, file, kill (a go command) or survivor", path, line)
		}
	}
	if err != nil || !ok || !ok2 || m.file == "" || len(m.killers) == 0 {
		return m, cmp.Or(err, fmt.Errorf("%s: want a file, a kill line, and --- old and --- new sections", path))
	}
	if src, err = os.ReadFile(m.file); err == nil && bytes.Count(src, []byte(m.old)) != 1 {
		err = fmt.Errorf("%s: old text occurs %d times in %s, want once", path, bytes.Count(src, []byte(m.old)), m.file)
	}
	m.src = bytes.Replace(src, []byte(m.old), []byte(m.new), 1)
	return m, err
}

// judge: every killer must fail, or for a marked survivor none; a killer
// that runs no test, or a mutant that does not build, kills nothing.
func judge(m *mutant, outs []outcome) (string, error) {
	by := map[bool][]string{} // killers by whether they failed
	for _, o := range outs {
		if strings.Contains("\n"+o.out, "\n# ") { // the go command's header over compiler errors
			return "", fmt.Errorf("does not build under %s", o.killer)
		} else if strings.Contains(o.out, "[no tests to run]") {
			return "", fmt.Errorf("killer %q runs no test", o.killer)
		}
		by[o.failed] = append(by[o.failed], o.killer)
	}
	switch killed := by[true]; {
	case m.survivor != "" && len(killed) > 0:
		return "", fmt.Errorf("marked a survivor (%s), but %q kills it: drop the mark", m.survivor, killed)
	case m.survivor != "":
		return "survived, as marked: " + m.survivor, nil
	case len(by[false]) > 0:
		return "", fmt.Errorf("survived %q", by[false])
	}
	return "killed by " + strings.Join(by[true], "; "), nil
}

// failed lists the top-level tests go test -json output reports failed, and
// as a bare path each package that failed in no test (a timeout).
func failed(out []byte) (fails []string) {
	seen := map[string]bool{}
	for _, line := range bytes.Split(out, []byte("\n")) {
		var ev struct{ Action, Package, Test string }
		if json.Unmarshal(line, &ev) != nil || ev.Action != "fail" || strings.Contains(ev.Test, "/") || ev.Test == "" && seen[ev.Package] {
			continue
		}
		seen[ev.Package] = true
		fails = append(fails, strings.TrimSuffix(strings.TrimPrefix(ev.Package, "millipage/")+"."+ev.Test, "."))
	}
	return fails
}
