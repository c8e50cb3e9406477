package main

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// family is the statement-deletion family over one package: one mutant per
// statement in a block or case body of its non-test files (but the
// invariant checks, invariants_{on,off}.go, which only the tag builds). A
// compound statement is deleted whole. Its killers run in order until one
// fails: a mutant that survives them all must be listed `equivalent`, with
// its reason, and a listed one that is killed must not be.
type family struct {
	dir    string            // the package directory
	stmts  []stmt            // its statements, by file and position
	srcs   map[string][]byte // by file base name
	listed map[int]string    // the equivalent statements: index → reason
}

// stmt is one statement of the family's package.
type stmt struct {
	file, fn, text string // file base name, enclosing function, exact source
	line, last     int    // the lines it spans
	off, end       int    // its byte range in the file
}

func (s stmt) String() string {
	return fmt.Sprintf("%s:%d %s %s", s.file, s.line, s.fn, strconv.Quote(s.text))
}

// load parses the package and resolves each listing, `equivalent <file>
// <func> <quoted statement>[#n] <reason>`, to the one statement it names.
func (f *family) load(listings []string) error {
	files, _ := filepath.Glob(filepath.Join(f.dir, "*.go"))
	f.srcs, f.listed = map[string][]byte{}, map[int]string{}
	fset := token.NewFileSet()
	for _, path := range files {
		base := filepath.Base(path)
		if strings.HasSuffix(base, "_test.go") || strings.HasPrefix(base, "invariants_") {
			continue
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		file, err := parser.ParseFile(fset, path, src, 0)
		if err != nil {
			return err
		}
		f.srcs[base] = src
		for _, d := range file.Decls {
			fn := declName(d)
			ast.Inspect(d, func(n ast.Node) bool {
				var list []ast.Stmt
				switch n := n.(type) {
				case *ast.BlockStmt:
					list = n.List
				case *ast.CaseClause:
					list = n.Body
				case *ast.CommClause:
					list = n.Body
				}
				for _, s := range list {
					if _, empty := s.(*ast.EmptyStmt); !empty {
						off, end := fset.Position(s.Pos()), fset.Position(s.End())
						f.stmts = append(f.stmts, stmt{base, fn, string(src[off.Offset:end.Offset]), off.Line, end.Line, off.Offset, end.Offset})
					}
				}
				return true
			})
		}
	}
	var errs []error
	for _, l := range listings {
		i, reason, err := f.lookup(strings.TrimPrefix(l, "equivalent "))
		if err == nil && f.listed[i] != "" {
			err = fmt.Errorf("listed twice")
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", l, err))
			continue
		}
		f.listed[i] = "equivalent: " + reason
	}
	return errors.Join(errs...)
}

// lookup returns the statement a listing names, and its reason. A quoted
// statement that occurs more than once in its function takes the
// occurrence it names as a suffix, "text"#n, counted from 1 in source
// order.
func (f *family) lookup(e string) (int, string, error) {
	file, rest, _ := strings.Cut(e, " ")
	fn, rest, _ := strings.Cut(rest, " ")
	q, err := strconv.QuotedPrefix(rest)
	if err != nil {
		return 0, "", fmt.Errorf("want <file> <func> <quoted statement>[#n] <reason>")
	}
	text, _ := strconv.Unquote(q)
	rest = rest[len(q):]
	nth := 0 // the occurrence named; 0, the only one
	if suffix, ok := strings.CutPrefix(rest, "#"); ok {
		n, after, _ := strings.Cut(suffix, " ")
		if nth, err = strconv.Atoi(n); err != nil || nth < 1 {
			return 0, "", fmt.Errorf("occurrence #%s is not a count from 1", n)
		}
		rest = after
	}
	reason := strings.TrimSpace(rest)
	var at []int
	for i, s := range f.stmts {
		if s.file == file && s.fn == fn && s.text == text {
			at = append(at, i)
		}
	}
	switch {
	case len(at) == 0:
		return 0, "", fmt.Errorf("matches no statement")
	case nth == 0 && len(at) > 1:
		return 0, "", fmt.Errorf("matches %d statements, lines %d and %d: name one with #n after the quote", len(at), f.stmts[at[0]].line, f.stmts[at[1]].line)
	case nth > len(at):
		return 0, "", fmt.Errorf("names occurrence %d of %d", nth, len(at))
	case reason == "":
		return 0, "", fmt.Errorf("gives no reason")
	}
	return at[max(nth, 1)-1], reason, nil
}

// declName names a declaration's function as a listing does: f, T.m or
// (*T).m, type parameters dropped; a var its first name.
func declName(d ast.Decl) string {
	switch d := d.(type) {
	case *ast.FuncDecl:
		if d.Recv == nil {
			return d.Name.Name
		}
		typ, star := d.Recv.List[0].Type, false
		if s, ok := typ.(*ast.StarExpr); ok {
			typ, star = s.X, true
		}
		switch t := typ.(type) {
		case *ast.IndexExpr:
			typ = t.X
		case *ast.IndexListExpr:
			typ = t.X
		}
		if star {
			return "(*" + typ.(*ast.Ident).Name + ")." + d.Name.Name
		}
		return typ.(*ast.Ident).Name + "." + d.Name.Name
	case *ast.GenDecl:
		if v, ok := d.Specs[0].(*ast.ValueSpec); ok {
			return v.Names[0].Name
		}
	}
	return "-"
}

// run deletes each statement, all of them or those the change touches, and
// sorts it: killed by the first killer that fails, nobuild, or survived.
func (f *family) run(killers [][]string, all bool) (string, error) {
	picked := make([]int, 0, len(f.stmts))
	if all {
		for i := range f.stmts {
			picked = append(picked, i)
		}
	} else {
		var err error
		if picked, err = f.touched(); err != nil {
			return "", err
		}
	}
	dir, _ := os.MkdirTemp("", "mutant")
	defer os.RemoveAll(dir)
	cache, err := goCache(all && len(picked) > 0, killers)
	if err != nil {
		return "", err
	}
	defer os.RemoveAll(cache) // "" removes nothing
	killedBy, nobuild, equivalent := make([]int, len(killers)), 0, 0
	var errs []error
	for _, i := range picked {
		s, start, kept := f.stmts[i], time.Now(), cacheEntries(cache)
		src := f.srcs[s.file]
		abs, _ := filepath.Abs(filepath.Join(f.dir, s.file))
		ov, err := overlay(dir, abs, append(src[:s.off:s.off], src[s.end:]...))
		if err != nil {
			return "", err
		}
		verdict := "survived"
		for k, killer := range killers {
			o := run(killer, ov, cache)
			if first := compileError(o.out); first != "" {
				verdict, nobuild = "nobuild: "+strings.TrimPrefix(first, dir+"/"), nobuild+1
				break
			}
			if o.failed {
				verdict = fmt.Sprintf("killed by %d%s", k+1, bound(o.out))
				killedBy[k]++
				break
			}
		}
		switch l, listed := f.listed[i]; {
		case verdict == "survived" && listed:
			verdict, equivalent = l, equivalent+1
		case verdict == "survived":
			errs = append(errs, fmt.Errorf("%v survived: delete it if dead, test it, or list it", s))
		case listed:
			errs = append(errs, fmt.Errorf("%v is listed (%s), but %s: drop the listing", s, l, verdict))
		}
		dropAdded(cache, kept)
		fmt.Printf("  %v: %s (%.1f s)\n", s, verdict, time.Since(start).Seconds())
	}
	sum := fmt.Sprintf("%d of %d statements: killed by each killer %v, %d nobuild, %d equivalent", len(picked), len(f.stmts), killedBy, nobuild, equivalent)
	if len(errs) > 0 {
		return "", fmt.Errorf("%s; %w", sum, errors.Join(errs...))
	}
	return sum, nil
}

// touched lists the statements the change touches: the tree against its
// merge base with the first of main, origin/HEAD and origin/main that
// exists (a local main first: a remote's may be long stale), else
// against HEAD. On that branch itself, where the merge base is HEAD, the
// change is the last commit and the tree: the diff is against HEAD~1.
func (f *family) touched() ([]int, error) {
	base := "HEAD"
	for _, ref := range []string{"main", "origin/HEAD", "origin/main"} {
		if out, err := exec.Command("git", "merge-base", "HEAD", ref).Output(); err == nil {
			base = strings.TrimSpace(string(out))
			break
		}
	}
	if head, _ := exec.Command("git", "rev-parse", "HEAD").Output(); base == strings.TrimSpace(string(head)) {
		base = "HEAD~1"
	}
	diff, err := exec.Command("git", "diff", "-U0", base, "--", f.dir).Output()
	if err != nil {
		return nil, fmt.Errorf("git diff %s: %w", base, err)
	}
	return f.changed(diff), nil
}

// changed lists, for each line a diff (-U0) adds or edits in the package,
// the innermost statement holding it, once.
func (f *family) changed(diff []byte) (picked []int) {
	seen, file := map[int]bool{}, ""
	for _, line := range strings.Split(string(diff), "\n") {
		if name, ok := strings.CutPrefix(line, "+++ b/"); ok {
			file = filepath.Base(name)
		}
		_, plus, ok := strings.Cut(line, " +")
		from, n := 0, 1
		if !strings.HasPrefix(line, "@@ ") || !ok {
			continue
		}
		fmt.Sscanf(strings.Replace(plus, ",", " ", 1), "%d %d", &from, &n)
		for l := from; l < from+n; l++ {
			in := -1 // the innermost: statements are listed outer first
			for i, s := range f.stmts {
				if s.file == file && s.line <= l && l <= s.last {
					in = i
				}
			}
			if in >= 0 && !seen[in] {
				seen[in] = true
				picked = append(picked, in)
			}
		}
	}
	return picked
}

// goCache returns the build cache of a whole-family run (whole), "" for
// none: a new directory of its own, for the run to remove at its end,
// which the killers have run on once, on the tree as it is, so what a
// clean build puts there is kept for every mutant after. No other go
// command can add entries to it, so the run cleans up after each mutant
// (dropAdded) without losing any but its own. The default run, a change's
// few statements, uses the shared cache and keeps its entries, so that
// running the tier again on the same change hits them.
func goCache(whole bool, killers [][]string) (string, error) {
	if !whole {
		return "", nil
	}
	dir, err := os.MkdirTemp("", "mutate-gocache")
	if err != nil {
		return "", err
	}
	for _, k := range killers {
		run(k, "", dir)
	}
	return dir, nil
}

// cacheEntries lists the entries of build cache dir: the files of its
// two-hex-digit subdirectories.
func cacheEntries(dir string) map[string]bool {
	names := map[string]bool{}
	if dir == "" {
		return names
	}
	files, _ := filepath.Glob(filepath.Join(dir, "[0-9a-f][0-9a-f]", "*"))
	for _, f := range files {
		names[f] = true
	}
	return names
}

// dropAdded removes the entries of build cache dir absent from kept: a
// mutant's builds and test results, which no later run reproduces, so
// the family's own cache stays the size of a clean build instead of
// growing by megabytes a statement.
func dropAdded(dir string, kept map[string]bool) {
	for f := range cacheEntries(dir) {
		if !kept[f] {
			os.Remove(f)
		}
	}
}
