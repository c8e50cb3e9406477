// Command mutate runs the mutant catalogue, testdata/mutants: one file a
// mutant, '#' comments on what it undoes, `file <go file>`, a `kill <go
// command>` line a killer (split on spaces), `survivor <ROADMAP item>` for
// a known survivor, then `--- old`, the exact text to replace, `--- new`
// and its replacement. `go run ./cmd/mutate [name...]` requires every
// killer to fail; with -matrix it lists the top-level tests `go test
// ./...` fails instead. Mutants reach the go command through -overlay,
// with UPDATE_PINS cleared: the checkout and its pins are never written.
//
// A file with a `delete <package dir>` line instead is a family: one
// mutant per statement of the package, the equivalent ones listed in the
// same file (family.go). Named, it runs every statement; in the default run,
// those the change touches. A named family runs on a build cache of its
// own, warmed once, removes the entries each mutant added and, at the
// end, the cache (family.go); the default run uses the shared cache.
//
// Every go command it starts, and each program under it, runs under an
// address-space cap and a deadline (bounded), so a mutant that loops
// allocating dies of the cap in seconds, and counts as killed.
package main

import (
	"bytes"
	"cmp"
	"context"
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
	"syscall"
	"time"
)

type mutant struct {
	file, survivor, old, new string // file made absolute
	killers                  [][]string
	src                      []byte  // file with the replacement made
	family                   *family // a `delete` file's statements instead
}

// outcome is one killer's run under a mutant.
type outcome struct {
	killer, out string
	failed      bool
}

// The bounds on every go command: a test binary's -timeout, a deadline
// on the whole command, and the address space of each process.
const (
	testTimeout = time.Minute
	deadline    = 5 * time.Minute
	addrSpace   = 2 << 30
)

func main() {
	matrix := flag.Bool("matrix", false, "list the top-level tests go test -json ./... fails under each mutant")
	flag.Parse()
	if err := bounded(); err != nil {
		log.Fatalf("mutate: %v", err)
	}
	paths, _ := filepath.Glob("testdata/mutants/*.txt")
	if flag.NArg() > 0 {
		paths = flag.Args() // names, which the loop makes paths
	}
	bad := 0
	for _, path := range paths {
		name := strings.TrimSuffix(filepath.Base(path), ".txt")
		verdict, err := try(filepath.Join("testdata/mutants", name+".txt"), *matrix, flag.NArg() > 0)
		if err != nil {
			verdict, bad = "FAIL: "+err.Error(), bad+1
		}
		fmt.Printf("%-26s %s\n", name, verdict)
	}
	if bad > 0 {
		log.Fatalf("mutate: %d of %d mutants failed", bad, len(paths))
	}
}

// bounded caps this process's address space, which every process it
// starts inherits.
func bounded() error {
	var l syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_AS, &l); err != nil {
		return err
	}
	l.Cur = min(l.Max, addrSpace)
	return syscall.Setrlimit(syscall.RLIMIT_AS, &l)
}

// overlay writes src, overlaying file, into dir under file's name (which
// compiler errors then give): the -overlay argument.
func overlay(dir, file string, src []byte) (string, error) {
	ov, with := filepath.Join(dir, "overlay.json"), filepath.Join(dir, filepath.Base(file))
	return ov, errors.Join(os.WriteFile(with, src, 0o644), os.WriteFile(ov, []byte(fmt.Sprintf(`{"Replace":{%q:%q}}`, file, with)), 0o644))
}

// run runs killer k (go <verb> <args>) under overlay ov, or on the tree
// as it is if ov is "", with build cache dir cache, or the shared one if
// cache is "", bounded: a test binary under -timeout, the command and its
// children killed at the deadline.
func run(k []string, ov, cache string) outcome {
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	args := []string{k[1]}
	if ov != "" {
		args = append(args, "-overlay="+ov)
	}
	if k[1] == "test" {
		args = append(args, "-timeout="+testTimeout.String())
	}
	cmd := exec.CommandContext(ctx, k[0], append(args, k[2:]...)...)
	cmd.Env = slices.DeleteFunc(os.Environ(), func(e string) bool { return strings.HasPrefix(e, "UPDATE_PINS=") })
	if cache != "" {
		cmd.Env = append(cmd.Env, "GOCACHE="+cache) // the last of a key wins
	}
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }
	out, err := cmd.CombinedOutput()
	if ctx.Err() != nil {
		out = append(out, fmt.Sprintf("\nmutate: killed at the %v deadline\n", deadline)...)
	}
	return outcome{strings.Join(k, " "), string(out), err != nil}
}

// bound names the bound a failed run died of, if any.
func bound(out string) string {
	switch {
	case strings.Contains(out, "out of memory") || strings.Contains(out, "cannot allocate memory"):
		return " (out of memory under the address-space cap)"
	case strings.Contains(out, "panic: test timed out"):
		return " (timed out)"
	case strings.Contains(out, "mutate: killed at"):
		return " (killed at the deadline)"
	}
	return ""
}

// try runs the mutant at path's killers, or under matrix every test; a
// family all its statements if named, else those the change touches.
func try(path string, matrix, named bool) (string, error) {
	m, err := load(path)
	if err == nil && m.family != nil {
		if matrix {
			return "a family: not in the matrix", nil
		}
		return m.family.run(m.killers, named)
	}
	dir, _ := os.MkdirTemp("", "mutant")
	defer os.RemoveAll(dir)
	ov, err2 := overlay(dir, m.file, m.src)
	if err := errors.Join(err, err2); err != nil {
		return "", err
	}
	if matrix {
		return "fails " + strings.Join(failed([]byte(run([]string{"go", "test", "-json", "./..."}, ov, "").out)), " "), nil
	}
	var outs []outcome
	for _, k := range m.killers {
		outs = append(outs, run(k, ov, ""))
	}
	return judge(m, outs)
}

// load reads a mutant and makes its replacement, which must match once,
// or a family and its equivalent statements, which must each match one
// statement.
func load(path string) (*mutant, error) {
	src, err := os.ReadFile(path)
	head, body, ok := strings.Cut(string(src), "--- old\n")
	old, repl, ok2 := strings.Cut(body, "\n--- new\n")
	m := &mutant{old: old, new: strings.TrimSuffix(repl, "\n")}
	var listings []string // a family's
	for _, line := range strings.Split(head, "\n") {
		key, val, _ := strings.Cut(line, " ")
		switch k := strings.Fields(val); {
		case key == "file":
			m.file, _ = filepath.Abs(val)
		case key == "equivalent":
			listings = append(listings, line)
		case key == "survivor":
			m.survivor = val
		case key == "kill" && len(k) > 2 && k[0] == "go":
			m.killers = append(m.killers, k)
		case key == "delete" && m.family == nil:
			m.family = &family{dir: val}
		case key != "#" && line != "" && err == nil:
			err = fmt.Errorf("%s: line %q is no comment, file, kill (a go command), survivor, delete or equivalent", path, line)
		}
	}
	if m.family != nil && err == nil && len(m.killers) > 0 && m.survivor == "" {
		return m, m.family.load(listings)
	}
	if err != nil || !ok || !ok2 || m.file == "" || len(m.killers) == 0 || len(listings) > 0 {
		return m, cmp.Or(err, fmt.Errorf("%s: want a file, a kill line, and --- old and --- new sections, or a delete and a kill line and no survivor", path))
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
		if compileError(o.out) != "" {
			return "", fmt.Errorf("does not build under %s", o.killer)
		} else if strings.Contains(o.out, "[no tests to run]") {
			return "", fmt.Errorf("killer %q runs no test", o.killer)
		}
		if o.failed {
			o.killer += bound(o.out)
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

// compileError returns the first compiler error in a go command's output, after
// the header it prints over them, or "" if everything built.
func compileError(out string) string {
	_, errs, ok := strings.Cut("\n"+out, "\n# ")
	if !ok {
		return ""
	}
	_, first, _ := strings.Cut(errs, "\n")
	first, _, _ = strings.Cut(first, "\n")
	return first
}

// failed lists the top-level tests go test -json output reports failed, and
// as a bare path each package that failed in no test, with the bound it
// died of (bound) if any.
func failed(out []byte) (fails []string) {
	seen, why := map[string]bool{}, map[string]string{}
	for _, line := range bytes.Split(out, []byte("\n")) {
		var ev struct{ Action, Package, Test, Output string }
		if json.Unmarshal(line, &ev) != nil {
			continue
		} else if ev.Action == "output" && why[ev.Package] == "" {
			why[ev.Package] = bound(ev.Output)
		}
		if ev.Action != "fail" || strings.Contains(ev.Test, "/") || ev.Test == "" && seen[ev.Package] {
			continue
		}
		seen[ev.Package] = true
		if name := strings.TrimPrefix(ev.Package, "millipage/"); ev.Test != "" {
			fails = append(fails, name+"."+ev.Test)
		} else {
			fails = append(fails, name+why[ev.Package])
		}
	}
	return fails
}
