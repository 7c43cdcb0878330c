package lint

import (
	"go/ast"
	"go/types"
)

// CtxFlow pins the deadline-propagation guarantee: a client that gives
// up must stop costing the fleet anything, which only holds if every
// request-path hop threads the caller's context. Two shapes break the
// chain:
//
//   - minting a fresh root with context.Background()/context.TODO()
//     inside a serving package (legitimate roots — a background health
//     probe, a context-free compatibility wrapper — carry a
//     //lint:allow ctxflow with their justification);
//   - accepting a ctx and dropping it. In function literals this is
//     flagged even for unnamed/underscore parameters, because a
//     literal's signature is dictated by its callee — a dropped ctx
//     there means the downstream call is context-free, the exact bug.
//     Named declarations may use `_` (interface conformance); only a
//     named-but-unused ctx parameter is flagged there.
var CtxFlow = &Analyzer{
	Name:     "ctxflow",
	Doc:      "request paths must thread the caller's context",
	Packages: []string{"internal/core", "internal/server", "internal/shard"},
	Run:      runCtxFlow,
}

func runCtxFlow(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if name, ok := isPkgCall(p.Info, n, "context", "Background", "TODO"); ok {
					p.Reportf(n.Pos(), "context.%s mints a fresh root in a request-path package; thread the caller's ctx (or annotate //lint:allow ctxflow <reason>)", name)
				}
			case *ast.FuncDecl:
				if n.Body != nil {
					checkCtxParams(p, n.Type, n.Body, false)
				}
			case *ast.FuncLit:
				checkCtxParams(p, n.Type, n.Body, true)
			}
			return true
		})
	}
}

func checkCtxParams(p *Pass, typ *ast.FuncType, body *ast.BlockStmt, isLiteral bool) {
	if typ.Params == nil {
		return
	}
	for _, field := range typ.Params.List {
		if !isContextType(p, field.Type) {
			continue
		}
		if len(field.Names) == 0 {
			if isLiteral {
				p.Reportf(field.Pos(), "function literal accepts a context but drops it; name it ctx and pass it downstream")
			}
			continue
		}
		for _, name := range field.Names {
			if name.Name == "_" {
				if isLiteral {
					p.Reportf(name.Pos(), "function literal accepts a context but drops it; name it ctx and pass it downstream")
				}
				continue
			}
			obj := p.Info.Defs[name]
			if obj == nil || usesObject(p, body, obj) {
				continue
			}
			p.Reportf(name.Pos(), "parameter %s is accepted but never used; pass it downstream or discard it explicitly as _", name.Name)
		}
	}
}

func isContextType(p *Pass, e ast.Expr) bool {
	t := p.TypeOf(e)
	if t == nil {
		return false
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

func usesObject(p *Pass, body ast.Node, obj types.Object) bool {
	used := false
	ast.Inspect(body, func(n ast.Node) bool {
		if used {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && p.Info.Uses[id] == obj {
			used = true
		}
		return !used
	})
	return used
}
