package pins

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// fakeT is a test that Check can fail and end without failing the test
// that drives it.
type fakeT struct {
	testing.TB
	name     string
	errs     []string
	cleanups []func()
}

func (f *fakeT) Helper()                   {}
func (f *fakeT) Name() string              { return f.name }
func (f *fakeT) Logf(string, ...any)       {}
func (f *fakeT) Errorf(s string, a ...any) { f.errs = append(f.errs, fmt.Sprintf(s, a...)) }
func (f *fakeT) Failed() bool              { return len(f.errs) > 0 }
func (f *fakeT) Cleanup(fn func())         { f.cleanups = append(f.cleanups, fn) }

// end runs f's cleanups as the testing package does, last first.
func (f *fakeT) end() {
	for i := len(f.cleanups) - 1; i >= 0; i-- {
		f.cleanups[i]()
	}
}

// pinFile writes content to a pin file in a fresh directory and returns
// its path and a reader of what it then holds.
func pinFile(t *testing.T, content string) (string, func() string) {
	path := filepath.Join(t.TempDir(), "pins.txt")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path, func() string {
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(blob)
	}
}

// TestRoundTripIsSortedAndStable: an update run writes its pins sorted by
// key, over a file a hand left unsorted; a second update run writes the
// same bytes, and a checking run then passes.
func TestRoundTripIsSortedAndStable(t *testing.T) {
	path, content := pinFile(t, "zeta 9\nalpha 0\n")
	pins := [][2]string{{"c/x", "elapsed=3 digest=0x3"}, {"a", "1"}, {"b", "{Fetches:2 Notices:0}"}}
	const want = "a 1\nalpha 0\nb {Fetches:2 Notices:0}\nc/x elapsed=3 digest=0x3\nzeta 9\n"
	for _, update := range []string{"1", "1", ""} {
		t.Setenv("UPDATE_PINS", update)
		f := &fakeT{name: "TestRecord"}
		for _, p := range pins {
			check(f, path, p[0], p[1])
		}
		f.end()
		if got := content(); f.Failed() || got != want {
			t.Fatalf("UPDATE_PINS=%q: errors %q, pins.txt\n%s\nwant\n%s", update, f.errs, got, want)
		}
	}
}

// TestFailureNamesTheCommand: a missing pin and a moved one fail with the
// command that re-records the top-level test's pins, and write nothing.
func TestFailureNamesTheCommand(t *testing.T) {
	t.Setenv("UPDATE_PINS", "")
	path, content := pinFile(t, "moved 1\n")
	const cmd = "UPDATE_PINS=1 go test -count=1 -run '^TestSome$' ./internal/pins/"
	for _, c := range []struct{ key, want string }{{"missing", "missing has no pin"}, {"moved", "moved is 2, pinned 1"}} {
		f := &fakeT{name: "TestSome/case/deeper"}
		check(f, path, c.key, "2")
		f.end()
		if len(f.errs) != 1 || !strings.Contains(f.errs[0], c.want) || !strings.HasSuffix(f.errs[0], "\n\t"+cmd) {
			t.Errorf("%s: errors %q, want one saying %q and ending in %q", c.key, f.errs, c.want, cmd)
		}
	}
	if got := content(); got != "moved 1\n" {
		t.Errorf("a checking run wrote %q", got)
	}
}

// TestNoWayToWriteAnOracle: the package exports Update and Check and
// nothing else, and Check takes no path: a pin reaches disk only as a line
// of testdata/pins.txt, never as a Go literal, so an oracle written in a
// test is out of any update run's reach.
func TestNoWayToWriteAnOracle(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "pins.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	ast.FileExports(f)
	var api []string
	for _, d := range f.Decls {
		var b bytes.Buffer
		if fn, ok := d.(*ast.FuncDecl); ok {
			printer.Fprint(&b, fset, fn.Type)
			api = append(api, fn.Name.Name+" "+b.String())
		} else {
			printer.Fprint(&b, fset, d)
			api = append(api, b.String())
		}
	}
	if want := []string{"Update func() bool", "Check func(t testing.TB, key, got string)"}; !slices.Equal(api, want) {
		t.Errorf("exported API %q, want %q", api, want)
	}
	if file != "testdata/pins.txt" {
		t.Errorf("pins are written to %s", file)
	}
}

// TestFailedTestWritesNothing: a value above its ceiling fails the test,
// and an update run then leaves its pin as it was; a test that passes
// records its value.
func TestFailedTestWritesNothing(t *testing.T) {
	t.Setenv("UPDATE_PINS", "1")
	path, content := pinFile(t, "events 100\n")
	const ceiling = 110
	for _, c := range []struct {
		events int
		want   string
	}{{120, "events 100\n"}, {105, "events 105\n"}} {
		f := &fakeT{name: "TestCeiling"}
		check(f, path, "events", fmt.Sprint(c.events))
		if c.events > ceiling {
			f.Errorf("%d events, want at most %d", c.events, ceiling)
		}
		f.end()
		if got := content(); got != c.want {
			t.Errorf("%d events: pins.txt is %q, want %q", c.events, got, c.want)
		}
	}
}

// TestTwoTestsKeepEachOthersKeys: two tests of one package re-record
// different keys, each checked before either ends; both values land.
func TestTwoTestsKeepEachOthersKeys(t *testing.T) {
	t.Setenv("UPDATE_PINS", "1")
	path, content := pinFile(t, "a 1\nb 2\nc 3\n")
	f1, f2 := &fakeT{name: "TestOne"}, &fakeT{name: "TestTwo"}
	check(f1, path, "a", "10")
	check(f2, path, "b", "20")
	f1.end()
	f2.end()
	if got := content(); got != "a 10\nb 20\nc 3\n" {
		t.Errorf("pins.txt is %q, want both re-records and c kept", got)
	}
}
