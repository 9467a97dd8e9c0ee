package lint

import (
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// loadCallGraphFixture type-checks a small synthetic package and returns
// its program and package.
func loadCallGraphFixture(t *testing.T) (*Program, *Package) {
	t.Helper()
	root := t.TempDir()
	dir := filepath.Join(root, "cgfix")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	src := `package cgfix

type counter struct{ n int }

func (c *counter) bump()    { c.n++ }
func (c *counter) bumpTwo() { c.bump(); c.bump() }

func ident[T any](x T) T { return x }

func leaf() int { return ident(1) }

func middle(c *counter) int {
	c.bumpTwo()
	return leaf()
}
`
	if err := os.WriteFile(filepath.Join(dir, "a.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	loader := NewLoader(root, "")
	prog, err := loader.Load("cgfix")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	return prog, prog.Packages["cgfix"]
}

// fnByName resolves a package-scope function, or a method via "type.name".
func fnByName(t *testing.T, pkg *Package, name string) *types.Func {
	t.Helper()
	scope := pkg.Types.Scope()
	if obj := scope.Lookup(name); obj != nil {
		if fn, ok := obj.(*types.Func); ok {
			return fn
		}
	}
	for _, tn := range []string{"counter"} {
		named, ok := scope.Lookup(tn).Type().(*types.Named)
		if !ok {
			continue
		}
		for i := 0; i < named.NumMethods(); i++ {
			if m := named.Method(i); m.Name() == name {
				return m
			}
		}
	}
	t.Fatalf("function %s not found in fixture", name)
	return nil
}

func TestCallGraphEdges(t *testing.T) {
	prog, pkg := loadCallGraphFixture(t)
	g := prog.CallGraph()
	if g2 := prog.CallGraph(); g2 != g {
		t.Error("CallGraph() should cache and return the same graph")
	}

	callers := func(name string) []string {
		callee := fnByName(t, pkg, name)
		var out []string
		for _, site := range g.CallsTo(callee) {
			if site.Callee != callee {
				t.Errorf("CallsTo(%s) returned a site whose callee is %v", name, site.Callee)
			}
			if site.Call == nil {
				t.Error("call site without its CallExpr")
			}
			out = append(out, site.Caller.Name())
		}
		return out
	}
	for _, tc := range []struct {
		callee string
		want   []string
	}{
		{"bump", []string{"bumpTwo", "bumpTwo"}},
		{"bumpTwo", []string{"middle"}},
		{"leaf", []string{"middle"}},
		// The generic call ident(1) must resolve to its origin function.
		{"ident", []string{"leaf"}},
	} {
		if got := callers(tc.callee); !slices.Equal(got, tc.want) {
			t.Errorf("CallsTo(%s) callers = %v, want %v", tc.callee, got, tc.want)
		}
	}
}
