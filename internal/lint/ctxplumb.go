package lint

import (
	"go/ast"
	"go/types"
)

// CtxPlumb enforces context plumbing on the RPC/fleet surface
// (internal/transport and internal/core), so a dead aggregator cannot turn
// into a hung party. Three rules:
//
//   - an exported function that takes a context.Context takes it as the
//     first parameter;
//   - library code never mints its own root context: context.Background()
//     (or TODO()) inside the transport or core silently detaches an
//     operation from the caller's deadline and cancellation. Entry points
//     (cmd/*) own the root context; everything below them threads it;
//   - an exported function that transitively performs network I/O on its
//     synchronous path takes a context.Context, or its caller cannot bound
//     or cancel it. The I/O summary is module-wide (Prepare).
//
// Deliberate exclusions from the third rule:
//   - goroutine bodies and function literals (the caller does not wait);
//   - interface- and lifecycle-pinned method names (Read, Write, Close,
//     Accept, Serve, ReadFrom, WriteTo): their signatures are fixed by
//     io/net contracts and they are bounded by Close, mirroring
//     net/http.Server.Serve;
//   - the WAL (deta/internal/journal): local fsync is not cancellable in
//     Go, and the commit-before-ack path must not be (DESIGN.md §9).
type CtxPlumb struct {
	io map[*types.Func]ioInfo
}

func (*CtxPlumb) Name() string { return "ctxplumb" }
func (*CtxPlumb) Doc() string {
	return "exported RPC/fleet functions take ctx first, take one if they transitively do network I/O, and never call context.Background()"
}

var ctxPlumbScope = []string{
	"deta/internal/transport",
	"deta/internal/core",
}

// ctxExemptNames are signature-pinned by io/net interface contracts.
var ctxExemptNames = map[string]bool{
	"Read": true, "Write": true, "Close": true, "Accept": true,
	"Serve": true, "ReadFrom": true, "WriteTo": true,
}

// Prepare computes the module-wide transitive I/O summary.
func (a *CtxPlumb) Prepare(pkgs []*Package) { a.io = computeIO(moduleUnits(pkgs)) }

func (a *CtxPlumb) Run(pkg *Package, r *Reporter) {
	if !pathIn(pkg.Path, ctxPlumbScope...) {
		return
	}
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncDecl:
				if exported(x) {
					a.checkSignature(pkg, r, x)
				}
			case *ast.CallExpr:
				if sel, ok := x.Fun.(*ast.SelectorExpr); ok && isContextRoot(pkg, sel) {
					r.Reportf(x.Pos(),
						"context.%s() in library code detaches the call from the caller's deadline and cancellation; accept a ctx parameter instead",
						sel.Sel.Name)
				}
			}
			return true
		})
	}
}

// checkSignature applies the two signature rules to an exported function:
// a context.Context parameter comes first, and a function that does
// network I/O has one.
func (a *CtxPlumb) checkSignature(pkg *Package, r *Reporter, fn *ast.FuncDecl) {
	hasCtx := false
	pos := 0
	for _, field := range fn.Type.Params.List {
		if isContextType(pkg, field.Type) {
			if pos > 0 {
				r.Reportf(field.Pos(),
					"%s: context.Context must be the first parameter", fn.Name.Name)
				return
			}
			hasCtx = true
		}
		pos += max(len(field.Names), 1)
	}
	if hasCtx || ctxExemptNames[fn.Name.Name] {
		return
	}
	obj, _ := pkg.Info.Defs[fn.Name].(*types.Func)
	if info := a.io[obj]; info.kind&ioNet != 0 {
		r.Reportf(fn.Name.Pos(),
			"%s transitively performs network I/O (via %s) but takes no context.Context: callers cannot bound or cancel it",
			fnDisplayName(&funcUnit{decl: fn}), info.via)
	}
}

func isContextType(pkg *Package, expr ast.Expr) bool {
	tv, ok := pkg.Info.Types[expr]
	if !ok || tv.Type == nil {
		return false
	}
	named, ok := tv.Type.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// isContextRoot matches context.Background / context.TODO by resolved
// object, not by name, so a local variable called `context` cannot
// confuse it.
func isContextRoot(pkg *Package, sel *ast.SelectorExpr) bool {
	if sel.Sel.Name != "Background" && sel.Sel.Name != "TODO" {
		return false
	}
	obj := pkg.Info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	return obj.Pkg().Path() == "context"
}
