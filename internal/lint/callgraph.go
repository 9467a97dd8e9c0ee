package lint

import (
	"go/ast"
	"go/types"
)

// This file implements the static call graph the interprocedural analyzers
// share: resetcomplete and stateversion follow helper calls through it
// instead of only same-receiver method calls, stateversion verifies that
// every caller of a //gridlint:stateversion-bumped-by-caller method really
// bumps.
//
// The graph is purely static: an edge exists for every direct call whose
// callee resolves to a *types.Func through the type-checker (plain
// functions, methods, generic instantiations resolved to their origin).
// Calls through interface values, function-typed variables and fields are
// not resolved — the analyzers that consume the graph treat an unresolved
// call conservatively at their own judgement. Calls inside function
// literals are attributed to the enclosing declared function: the literal
// runs only if something the enclosing function created invokes it.

// CallSite is one static call: caller, resolved callee, and the call
// expression (for argument inspection and diagnostics).
type CallSite struct {
	Caller *types.Func
	Callee *types.Func
	Call   *ast.CallExpr
}

// CallGraph indexes the program's static call sites by callee.
type CallGraph struct {
	callers map[*types.Func][]CallSite
}

// CallGraph returns the program's static call graph, building and caching
// it on first use.
func (p *Program) CallGraph() *CallGraph {
	if p.callgraph != nil {
		return p.callgraph
	}
	g := &CallGraph{callers: make(map[*types.Func][]CallSite)}
	for _, pkg := range p.Sorted() {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				caller, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					callee := CalleeOf(pkg.Info, call)
					if callee == nil {
						return true
					}
					g.callers[callee] = append(g.callers[callee], CallSite{Caller: caller, Callee: callee, Call: call})
					return true
				})
			}
		}
	}
	p.callgraph = g
	return g
}

// CalleeOf resolves a call expression to the statically called function, or
// nil for calls through values, builtins and conversions. Generic
// instantiations resolve to their origin function, which is where the
// declaration (and any directives) live.
func CalleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.IndexExpr:
		// Explicitly instantiated generic: f[T](...).
		if base, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			id = base
		} else if sel, ok := ast.Unparen(fun.X).(*ast.SelectorExpr); ok {
			id = sel.Sel
		}
	case *ast.IndexListExpr:
		if base, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			id = base
		} else if sel, ok := ast.Unparen(fun.X).(*ast.SelectorExpr); ok {
			id = sel.Sel
		}
	}
	if id == nil {
		return nil
	}
	fn, ok := info.Uses[id].(*types.Func)
	if !ok {
		return nil
	}
	if origin := fn.Origin(); origin != nil {
		return origin
	}
	return fn
}

// CallsTo returns the static call sites whose resolved callee is fn.
func (g *CallGraph) CallsTo(fn *types.Func) []CallSite { return g.callers[fn] }

// flattenParams returns the callee's parameter objects in declaration
// order, nil-padded for unnamed parameters, so positional arguments map to
// parameter objects. Variadic tails are returned as declared (an argument
// passed variadically is not mapped).
func flattenParams(info *types.Info, decl *ast.FuncDecl) []types.Object {
	var params []types.Object
	if decl.Type.Params == nil {
		return nil
	}
	for _, field := range decl.Type.Params.List {
		if len(field.Names) == 0 {
			params = append(params, nil)
			continue
		}
		for _, name := range field.Names {
			params = append(params, info.Defs[name])
		}
	}
	return params
}
