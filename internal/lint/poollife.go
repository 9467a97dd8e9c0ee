package lint

import (
	"go/ast"
	"go/types"
)

// PoolLife enforces the bounded lifetime of pooled buffers. A function
// marked //gridlint:pooled hands out memory it will overwrite later (the
// scheduler's Advance notification slice); a caller may read the result and
// copy out of it, but must not retain the reference itself. The analyzer
// tracks locals initialised from pooled calls (and locals they are
// re-assigned to) inside each function and flags:
//
//   - stores of a tracked value into a struct field or package-level
//     variable;
//   - returning a tracked value from a function that is not itself marked
//     //gridlint:pooled (which would extend the lifetime invisibly);
//   - capturing a tracked value in a function literal that escapes (is
//     assigned, passed, or returned rather than immediately invoked).
//
// append(dst, tracked...) and copy(dst, tracked) are copies and therefore
// always safe. A deliberate ownership transfer — the provider publishing a
// pool buffer into its own field — is annotated //gridlint:allow-retain on
// the storing statement.
var PoolLife = &Analyzer{
	Name: "poollife",
	Doc: "results of //gridlint:pooled functions must not be retained in fields, " +
		"globals or escaping closures without a copy (override: //gridlint:allow-retain)",
	Run: runPoolLife,
}

func runPoolLife(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkPoolLifeFunc(pass, fd)
		}
	}
	return nil
}

// pooledCallee returns the called function if the call expression resolves
// to a //gridlint:pooled function (method or plain call), or nil.
func pooledCallee(pass *Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, ok := pass.Info.Uses[id].(*types.Func)
	if !ok {
		return nil
	}
	if pass.Prog.FuncHasDirective(fn, DirPooled) {
		return fn
	}
	return nil
}

func checkPoolLifeFunc(pass *Pass, fd *ast.FuncDecl) {
	// tracked maps a local variable object to the pooled provider whose
	// result it holds.
	tracked := make(map[types.Object]*types.Func)

	fn, _ := pass.Info.Defs[fd.Name].(*types.Func)
	selfPooled := fn != nil && pass.Prog.FuncHasDirective(fn, DirPooled)

	// isTracked reports whether the expression is a tracked local or a
	// direct pooled call, unwrapping slicing (sub-slices alias the same
	// backing array, so they keep the bounded lifetime).
	var providerOf func(expr ast.Expr) *types.Func
	providerOf = func(expr ast.Expr) *types.Func {
		switch e := expr.(type) {
		case *ast.Ident:
			if obj := pass.Info.Uses[e]; obj != nil {
				return tracked[obj]
			}
		case *ast.CallExpr:
			return pooledCallee(pass, e)
		case *ast.SliceExpr:
			return providerOf(e.X)
		case *ast.ParenExpr:
			return providerOf(e.X)
		}
		return nil
	}

	// Pass 1: seed tracked locals from assignments, in source order. A
	// single forward pass is enough for the straight-line call sites the
	// engine has; re-assignment through another local propagates tracking.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) && len(as.Rhs) != 1 {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			obj := pass.Info.Defs[id]
			if obj == nil {
				obj = pass.Info.Uses[id]
			}
			if obj == nil {
				continue
			}
			rhs := as.Rhs[0]
			if len(as.Lhs) == len(as.Rhs) {
				rhs = as.Rhs[i]
			} else if i > 0 {
				continue // multi-value call: only position 0 can be the buffer
			}
			if p := providerOf(rhs); p != nil {
				tracked[obj] = p
			}
		}
		return true
	})

	// Pass 2: flag retention sites.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				rhs := n.Rhs[0]
				if len(n.Lhs) == len(n.Rhs) {
					rhs = n.Rhs[i]
				} else if i > 0 {
					continue
				}
				p := providerOf(rhs)
				if p == nil {
					continue
				}
				if retentionTarget(pass, lhs) && !pass.Prog.NodeHasDirective(n, DirAllowRetain) {
					pass.Reportf(n.Pos(),
						"pooled result of %s stored in %s outlives its bounded lifetime (copy it, or annotate the store //gridlint:allow-retain)",
						p.Name(), describeTarget(pass, lhs))
				}
			}
		case *ast.ReturnStmt:
			if selfPooled {
				return true
			}
			for _, res := range n.Results {
				if p := providerOf(res); p != nil && !pass.Prog.NodeHasDirective(n, DirAllowRetain) {
					pass.Reportf(n.Pos(),
						"pooled result of %s returned from %s, which is not marked //gridlint:pooled",
						p.Name(), fd.Name.Name)
				}
			}
		case *ast.FuncLit:
			if escapingFuncLit(pass, fd, n) {
				checkFuncLitCaptures(pass, fd, n, tracked)
			}
			return false // captures handled above; don't double-visit
		}
		return true
	})
}

// retentionTarget reports whether the assignment target outlives the
// enclosing call: a field selection (on any value) or a package-level
// variable.
func retentionTarget(pass *Pass, lhs ast.Expr) bool {
	switch l := lhs.(type) {
	case *ast.SelectorExpr:
		if sel, ok := pass.Info.Selections[l]; ok && sel.Kind() == types.FieldVal {
			return true
		}
		// pkg.Var — qualified package-level variable.
		if obj, ok := pass.Info.Uses[l.Sel].(*types.Var); ok && obj.Parent() == obj.Pkg().Scope() {
			return true
		}
	case *ast.Ident:
		obj := pass.Info.Uses[l]
		if obj == nil {
			obj = pass.Info.Defs[l]
		}
		if v, ok := obj.(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return true
		}
	case *ast.IndexExpr:
		return retentionTarget(pass, l.X)
	}
	return false
}

func describeTarget(pass *Pass, lhs ast.Expr) string {
	switch l := lhs.(type) {
	case *ast.SelectorExpr:
		return "field " + l.Sel.Name
	case *ast.Ident:
		return "package-level variable " + l.Name
	case *ast.IndexExpr:
		return describeTarget(pass, l.X)
	}
	return "a long-lived location"
}

// escapingFuncLit reports whether the literal escapes the enclosing
// function: anything other than being the callee of an immediate call.
func escapingFuncLit(pass *Pass, fd *ast.FuncDecl, lit *ast.FuncLit) bool {
	escapes := true
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && call.Fun == lit {
			escapes = false
		}
		return true
	})
	return escapes
}

// checkFuncLitCaptures flags tracked locals referenced inside an escaping
// function literal.
func checkFuncLitCaptures(pass *Pass, fd *ast.FuncDecl, lit *ast.FuncLit, tracked map[types.Object]*types.Func) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.Info.Uses[id]
		if obj == nil {
			return true
		}
		if p, ok := tracked[obj]; ok && !pass.Prog.NodeHasDirective(lit, DirAllowRetain) {
			pass.Reportf(id.Pos(),
				"pooled result of %s captured by an escaping closure in %s (copy it before capturing, or annotate the closure //gridlint:allow-retain)",
				p.Name(), fd.Name.Name)
		}
		return true
	})
}
