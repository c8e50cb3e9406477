// Package pins keeps a package's schedule pins: the values a deterministic
// run reproduces exactly but that a change to the simulated cluster's
// timing moves on purpose — elapsed virtual time, event, switch and hop
// counts, protocol counters, trace digests and fingerprints. A package
// keeps them in testdata/pins.txt, one "key value" line per pin, sorted by
// key, and a test compares a value with its pin through Check. Run with
// UPDATE_PINS=1, Check records the value instead; the file's diff is the
// change's re-record list.
//
// Oracle values — checksums, final memory, a workload's verdict — are no
// pins: they stay Go literals in the tests, and nothing here writes them.
// Neither are ceilings, which a test checks itself: a test that fails any
// check, an oracle's or a ceiling's, records no pin.
package pins

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// file is a package's pin file, relative to the directory its tests run in.
const file = "testdata/pins.txt"

// Update reports whether this run re-records pins (UPDATE_PINS=1) instead
// of checking them.
func Update() bool { return os.Getenv("UPDATE_PINS") == "1" }

// Check fails t unless got equals the pin recorded under key. Under
// UPDATE_PINS=1 it records got instead, as t ends and only if t passed. A
// key is one word, a value one line. Check is not for parallel tests: the
// pins of one package share one file.
func Check(t testing.TB, key, got string) {
	t.Helper()
	check(t, file, key, got)
}

func check(t testing.TB, path, key, got string) {
	t.Helper()
	if key == "" || strings.ContainsAny(key, " \t\n") || got == "" || strings.Contains(got, "\n") {
		t.Fatalf("pins: %q %q: a key is one word and a value one nonempty line", key, got)
	}
	if Update() {
		t.Cleanup(func() {
			if t.Failed() {
				t.Logf("pins: %s not re-recorded: the test failed", key)
				return
			}
			// Read again: an earlier test may have re-recorded other keys.
			pins, err := read(path)
			if err == nil {
				if old := pins[key]; old != got {
					t.Logf("pins: %s %s -> %s", key, old, got)
				}
				pins[key] = got
				err = write(path, pins)
			}
			if err != nil {
				t.Error(err)
			}
		})
		return
	}
	pins, err := read(path)
	if err != nil {
		t.Fatal(err)
	}
	switch want, ok := pins[key]; {
	case !ok:
		t.Errorf("pins: %s has no pin in %s; record it with\n\t%s", key, path, rerun(t))
	case want != got:
		t.Errorf("pins: %s is %s, pinned %s; if the schedule moved on purpose, re-record with\n\t%s", key, got, want, rerun(t))
	}
}

// read parses a pin file; a missing one holds no pins.
func read(path string) (map[string]string, error) {
	pins := map[string]string{}
	blob, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) || err == nil && len(blob) == 0 {
		return pins, nil
	}
	if err != nil {
		return nil, err
	}
	for i, line := range strings.Split(strings.TrimSuffix(string(blob), "\n"), "\n") {
		key, val, ok := strings.Cut(line, " ")
		if _, dup := pins[key]; !ok || key == "" || val == "" || dup {
			return nil, fmt.Errorf("pins: %s:%d: %q is not a \"key value\" line with a new key", path, i+1, line)
		}
		pins[key] = val
	}
	return pins, nil
}

// write replaces path with pins, one line each, sorted by key.
func write(path string, pins map[string]string) error {
	keys := make([]string, 0, len(pins))
	for k := range pins { //detlint:ok the keys are sorted before use
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k + " " + pins[k] + "\n")
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// rerun is the command that re-records t's pins: its top-level test, in
// the package under test, named from the module root.
func rerun(t testing.TB) string {
	top, _, _ := strings.Cut(t.Name(), "/")
	pkg := "."
	if wd, err := os.Getwd(); err == nil {
		for dir := wd; filepath.Dir(dir) != dir; dir = filepath.Dir(dir) {
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				rel, _ := filepath.Rel(dir, wd)
				pkg = "./" + filepath.ToSlash(rel) + "/"
				break
			}
		}
	}
	return fmt.Sprintf("UPDATE_PINS=1 go test -count=1 -run '^%s$' %s", top, pkg)
}
