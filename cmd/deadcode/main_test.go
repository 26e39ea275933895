package main

import (
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func TestTextSymbol(t *testing.T) {
	for _, c := range []struct {
		line, name string
		ok         bool
	}{
		{"  4e5da0 T lasagne/internal/ir.(*Instr).String.func1", "lasagne/internal/ir.(*Instr).String.func1", true},
		{"  4e5da0 t lasagne/internal/ir.fbin", "lasagne/internal/ir.fbin", true},
		// A generic instantiation's shape type contains spaces: the name
		// runs to the end of the line.
		{"  57b600 T lasagne/internal/machine.(*ModuleLifter[go.shape.struct { Op lasagne/internal/x86.Op; Size uint8 }]).LiftFunc",
			"lasagne/internal/machine.(*ModuleLifter[go.shape.struct { Op lasagne/internal/x86.Op; Size uint8 }]).LiftFunc", true},
		{"  6a1f00 D lasagne/internal/eval.Parallelism", "", false},
		{"  6a1f00 R lasagne/internal/ir..dict.F[int]", "", false},
		{"           U runtime.morestack", "", false},
		{"", "", false},
	} {
		name, ok := textSymbol(c.line)
		if name != c.name || ok != c.ok {
			t.Errorf("textSymbol(%q) = %q, %v; want %q, %v", c.line, name, ok, c.name, c.ok)
		}
	}
}

func TestNormalize(t *testing.T) {
	for _, c := range []struct {
		sym, key string
		ok       bool
	}{
		{"lasagne/internal/ir.NewInterp", "ir.NewInterp", true},
		// Pointer and value receivers map to the same key.
		{"lasagne/internal/ir.(*Interp).Run", "ir.Interp.Run", true},
		{"lasagne/internal/arm64.Reg.Enc", "arm64.Reg.Enc", true},
		{"lasagne/internal/arm64.(*Reg).Enc", "arm64.Reg.Enc", true},
		// Instantiation brackets, nested ones and ones holding spaces too.
		{"lasagne/internal/machine.(*ModuleLifter[go.shape.struct { Op lasagne/internal/x86.Op; Args [4]lasagne/internal/x86.Operand }]).LiftFunc",
			"machine.ModuleLifter.LiftFunc", true},
		{"lasagne/internal/par.Collect[go.shape.[]*lasagne/internal/ir.Param,go.shape.map[string][2]int]", "par.Collect", true},
		{"lasagne/internal/machine.(*Frame[go.shape.94bac207e4750432]).Call.func2", "machine.Frame.Call", true},
		// Closures, nested closures, go and defer wrappers, method values
		// and range-over-func bodies belong to their enclosing function.
		{"lasagne/internal/arm64.Encode.func4", "arm64.Encode", true},
		{"lasagne/internal/backend.allocate.func8.1", "backend.allocate", true},
		{"lasagne/internal/core.(*pipeline).passBundle.func1.deferwrap1", "core.pipeline.passBundle", true},
		{"lasagne/internal/serve.(*Server).Start.gowrap2", "serve.Server.Start", true},
		{"lasagne/internal/backend.(*arm64gen).sext-fm", "backend.arm64gen.sext", true},
		{"lasagne/internal/campaign.Run-range1", "campaign.Run", true},
		{"lasagne/internal/core/cache.(*Cache).insert.deferwrap1", "core/cache.Cache.insert", true},
		// Symbols outside internal/.
		{"lasagne.Translate", "", false},
		{"slices.Index[go.shape.[]*lasagne/internal/ir.Param,go.shape.*lasagne/internal/ir.Param]", "", false},
		{"type:.eq.[2]lasagne/internal/ir.Value", "", false},
	} {
		key, ok := normalize(c.sym)
		if key != c.key || ok != c.ok {
			t.Errorf("normalize(%q) = %q, %v; want %q, %v", c.sym, key, ok, c.key, c.ok)
		}
	}
}

// TestDeclarations checks that declaration keys match the keys normalize
// gives the same functions' symbols.
func TestDeclarations(t *testing.T) {
	dir := t.TempDir()
	write := func(name, src string) {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("p/p.go", `package p
type T int
type G[K comparable, V any] struct{}
func F() {}
func (T) Value() {}
func (*T) Pointer() {}
func (g *G[K, V]) Method() {}
func init() {}
`)
	write("p/q/q.go", "package q\nfunc H() {}\n")
	write("p/p_test.go", "package p\nfunc TestOnly() {}\n")
	write("p/tagged.go", "//go:build ignore\n\npackage p\nfunc Ignored() {}\n")

	decls, err := declarations(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range decls {
		got = append(got, d.key)
	}
	sort.Strings(got)
	want := []string{"p.F", "p.G.Method", "p.T.Pointer", "p.T.Value", "p/q.H"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("declarations = %v, want %v", got, want)
	}
}

func TestParseAllowlist(t *testing.T) {
	const roadmap = "- **Check the translator that ships, not a\n  model of it.** The litmus campaign ..."
	allow, err := parseAllowlist("allowlist.txt", `# comment

[oracle]
ir.Interp.Run
[roadmap: Check the translator that ships, not a model of it]
memmodel.StrengthenIR
`, roadmap)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"ir.Interp.Run":         "oracle",
		"memmodel.StrengthenIR": "roadmap: Check the translator that ships, not a model of it",
	}
	if !reflect.DeepEqual(allow, want) {
		t.Fatalf("allowlist = %v, want %v", allow, want)
	}

	for _, c := range []struct{ text, err string }{
		{"ir.F\n", "before any [reason] header"},
		{"[unused]\nir.F\n", "unknown reason [unused]"},
		{"[roadmap:]\nir.F\n", "names no item"},
		{"[roadmap: Some finished item]\nir.F\n", "names no item"},
		{"[oracle]\nir.F\n[public-api]\nir.F\n", "already listed under [oracle]"},
	} {
		if _, err := parseAllowlist("allowlist.txt", c.text, roadmap); err == nil || !strings.Contains(err.Error(), c.err) {
			t.Errorf("parseAllowlist(%q) error = %v, want one containing %q", c.text, err, c.err)
		}
	}
}
