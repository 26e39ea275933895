// Command deadcode lists the functions declared in internal/ that no
// binary of the repository links.
//
// It builds every cmd/*, every examples/* and perfbench (its own module,
// built from inside perfbench/) into a temporary directory with inlining
// off, so that no function disappears into its callers. It then reads
// each binary's text symbols with `go tool nm` and reports every non-test
// function declaration under internal/ that none of them contains, minus
// the entries of a committed allowlist (cmd/deadcode/allowlist.txt). An
// allowlist entry sits under a header naming its reason:
//
//	[oracle]            a reference implementation or proof only tests run
//	[test-support]      called by the tests of another package
//	[interface-marker]  a method that only marks a type as implementing an interface
//	[public-api]        exported API that the shipped binaries do not call
//	[roadmap: <item>]   kept for the named ROADMAP.md item
//
// Run it from the repository root (`make deadcode`). It exits 1 when a
// function is unlinked and not allowlisted, or when an allowlist entry is
// stale: linked again, or no longer declared; and 2 when a build, a file
// or the allowlist itself cannot be read.
package main

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

const (
	module        = "lasagne"
	allowlistPath = "cmd/deadcode/allowlist.txt"
	roadmapPath   = "ROADMAP.md"
)

func main() {
	ok, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "deadcode:", err)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

// run prints every unlinked function missing from the allowlist and every
// stale allowlist entry, and reports whether there were none.
func run() (bool, error) {
	allow, err := readAllowlist(allowlistPath)
	if err != nil {
		return false, err
	}
	decls, err := declarations("internal")
	if err != nil {
		return false, err
	}
	linked, err := linkedFuncs()
	if err != nil {
		return false, err
	}

	declared := make(map[string]bool, len(decls))
	dead, lines := 0, 0
	for _, d := range decls {
		declared[d.key] = true
		if !linked[d.key] && allow[d.key] == "" {
			fmt.Printf("%s:%d: %s is linked by no binary (%d lines)\n", d.file, d.line, d.key, d.lines)
			dead++
			lines += d.lines
		}
	}
	if dead > 0 {
		fmt.Printf("%d unlinked functions, %d lines: delete them or allowlist them in %s\n", dead, lines, allowlistPath)
	}

	var stale []string
	for key, reason := range allow {
		switch {
		case !declared[key]:
			stale = append(stale, fmt.Sprintf("%s: stale entry %s [%s]: no longer declared", allowlistPath, key, reason))
		case linked[key]:
			stale = append(stale, fmt.Sprintf("%s: stale entry %s [%s]: now linked", allowlistPath, key, reason))
		}
	}
	sort.Strings(stale)
	for _, s := range stale {
		fmt.Println(s)
	}
	if dead > 0 || len(stale) > 0 {
		return false, nil
	}
	fmt.Printf("deadcode: %d functions in internal/, %d allowlisted, none else unlinked\n", len(decls), len(allow))
	return true, nil
}

// A decl is one function declaration in a non-test file under internal/.
type decl struct {
	key   string // as normalize returns it, e.g. "ir.Interp.Run"
	file  string
	line  int
	lines int
}

// declarations parses every non-test Go file under dir that the default
// build context compiles and returns its function declarations, sorted by
// file and line, keyed with package paths relative to dir. Package init
// functions are skipped: they are not API.
func declarations(dir string) ([]decl, error) {
	var out []decl
	fset := token.NewFileSet()
	err := filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(path), e.Name()); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, filepath.Dir(path))
		if err != nil {
			return err
		}
		pkg := filepath.ToSlash(rel)
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name.Name == "init" || fd.Name.Name == "_" {
				continue
			}
			key := pkg + "." + fd.Name.Name
			if fd.Recv != nil {
				key = pkg + "." + recvName(fd.Recv.List[0].Type) + "." + fd.Name.Name
			}
			start, end := fset.Position(fd.Pos()), fset.Position(fd.End())
			out = append(out, decl{key: key, file: path, line: start.Line, lines: end.Line - start.Line + 1})
		}
		return nil
	})
	return out, err
}

// recvName returns the base type name of a receiver: T for T, *T, T[K]
// and *T[K, V].
func recvName(x ast.Expr) string {
	for {
		switch t := x.(type) {
		case *ast.StarExpr:
			x = t.X
		case *ast.ParenExpr:
			x = t.X
		case *ast.IndexExpr:
			x = t.X
		case *ast.IndexListExpr:
			x = t.X
		case *ast.Ident:
			return t.Name
		default:
			return fmt.Sprintf("%T", x)
		}
	}
}

// linkedFuncs builds the binaries into a temporary directory and returns
// the normalized keys of every internal/ function any of them links.
func linkedFuncs() (map[string]bool, error) {
	tmp, err := os.MkdirTemp("", "deadcode-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	mains, err := filepath.Glob("cmd/*")
	if err != nil {
		return nil, err
	}
	examples, err := filepath.Glob("examples/*")
	if err != nil {
		return nil, err
	}
	var bins []string
	// cmd/litmus and examples/litmus share a name, so each binary is
	// named after its whole directory path.
	for _, dir := range append(mains, examples...) {
		out := filepath.Join(tmp, strings.ReplaceAll(dir, string(filepath.Separator), "-"))
		if err := goBuild(".", out, "./"+filepath.ToSlash(dir)); err != nil {
			return nil, err
		}
		bins = append(bins, out)
	}
	out := filepath.Join(tmp, "perfbench")
	if err := goBuild("perfbench", out, "."); err != nil {
		return nil, err
	}
	bins = append(bins, out)

	linked := make(map[string]bool)
	for _, b := range bins {
		cmd := exec.Command("go", "tool", "nm", b)
		cmd.Stderr = os.Stderr
		nm, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("go tool nm %s: %w", filepath.Base(b), err)
		}
		for _, line := range strings.Split(string(nm), "\n") {
			if name, ok := textSymbol(line); ok {
				if key, ok := normalize(name); ok {
					linked[key] = true
				}
			}
		}
	}
	return linked, nil
}

// goBuild builds the main package pkg, from dir, into the binary out with
// inlining off.
func goBuild(dir, out, pkg string) error {
	cmd := exec.Command("go", "build", "-gcflags=all=-l", "-o", out, pkg)
	cmd.Dir = dir
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go build %s (in %s): %w", pkg, dir, err)
	}
	return nil
}

// nmLine matches one line of `go tool nm` output: an optional address,
// the one-letter symbol type and the name, which runs to the end of the
// line (generic instantiations contain spaces).
var nmLine = regexp.MustCompile(`^\s*(?:[0-9a-f]+\s+)?([A-Za-z])\s(.+)$`)

// textSymbol returns the name of a text (code) symbol in an nm line.
func textSymbol(line string) (string, bool) {
	m := nmLine.FindStringSubmatch(line)
	if m == nil || (m[1] != "T" && m[1] != "t") {
		return "", false
	}
	return m[2], true
}

// wrapperPart matches the name parts the compiler appends to a function's
// own symbol: closures (.func1, and .1 for a closure nested in one), go
// and defer wrappers (.gowrap1, .deferwrap1).
var wrapperPart = regexp.MustCompile(`^(func|gowrap|deferwrap)?[0-9]+$`)

// normalize maps a linker symbol of an internal/ function to its
// declaration key, "pkg.F" or "pkg.T.M" with pkg relative to internal/:
// it strips instantiation brackets (nested ones too), maps closures, go
// and defer wrappers and method values (-fm) to the enclosing function,
// and treats pointer and value receivers alike. It reports false for any
// symbol outside internal/.
func normalize(sym string) (string, bool) {
	prefix := module + "/internal/"
	if !strings.HasPrefix(sym, prefix) {
		return "", false
	}
	sym = stripBrackets(strings.TrimPrefix(sym, prefix))
	slash := strings.LastIndexByte(sym, '/')
	dot := strings.IndexByte(sym[slash+1:], '.')
	if dot < 0 {
		return "", false
	}
	pkg, rest := sym[:slash+1+dot], sym[slash+1+dot+1:]
	rest = strings.NewReplacer("(*", "", ")", "").Replace(rest)
	parts := strings.Split(rest, ".")
	for i, p := range parts {
		// -fm marks a method value, -rangeN a range-over-func body.
		if cut, _, found := strings.Cut(p, "-"); found {
			parts[i] = cut
		}
	}
	for len(parts) > 1 && wrapperPart.MatchString(parts[len(parts)-1]) {
		parts = parts[:len(parts)-1]
	}
	return pkg + "." + strings.Join(parts, "."), true
}

// stripBrackets removes every balanced [...] group from s.
func stripBrackets(s string) string {
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// reasons are the allowlist headers; "roadmap:" takes the item's name.
var reasons = map[string]bool{"oracle": true, "test-support": true, "interface-marker": true, "public-api": true}

// readAllowlist parses the allowlist into entry → reason.
func readAllowlist(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	roadmap, err := os.ReadFile(roadmapPath)
	if err != nil {
		return nil, err
	}
	return parseAllowlist(path, string(data), string(roadmap))
}

// parseAllowlist parses an allowlist. Blank lines and lines starting with
// # are comments; every entry must follow a header, and a roadmap header
// must name an item that roadmap (the text of ROADMAP.md) contains.
func parseAllowlist(path, text, roadmap string) (map[string]string, error) {
	roadmap = strings.Join(strings.Fields(roadmap), " ")
	allow := make(map[string]string)
	reason := ""
	for i, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		switch {
		case line == "" || strings.HasPrefix(line, "#"):
		case strings.HasPrefix(line, "[") && strings.HasSuffix(line, "]"):
			reason = strings.TrimSpace(line[1 : len(line)-1])
			item, isRoadmap := strings.CutPrefix(reason, "roadmap:")
			item = strings.TrimSpace(item)
			switch {
			case reasons[reason]:
			case !isRoadmap:
				return nil, fmt.Errorf("%s:%d: unknown reason [%s]", path, i+1, reason)
			case item == "" || !strings.Contains(roadmap, item):
				return nil, fmt.Errorf("%s:%d: [%s] names no item of %s", path, i+1, reason, roadmapPath)
			}
		case reason == "":
			return nil, fmt.Errorf("%s:%d: entry %s before any [reason] header", path, i+1, line)
		default:
			if prev, dup := allow[line]; dup {
				return nil, fmt.Errorf("%s:%d: %s already listed under [%s]", path, i+1, line, prev)
			}
			allow[line] = reason
		}
	}
	return allow, nil
}
