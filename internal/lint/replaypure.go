package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
)

// replaypure guards determinism, the other half of the crash-safety
// contract: recovery must rebuild the exact pre-crash aggregator state
// from the journal, fusion must produce bit-identical tensors on every
// party, and every timestamp must flow through the one injectable
// core.Clock. One analyzer owns the whole invariant, so one defect yields
// one finding. Its rules differ only in scope:
//
//   - replay-reachable code — everything transitively reachable from the
//     replay roots (RecoverAggregatorNode and the WAL record handlers) and
//     the fusion kernels, computed once over the module by Prepare — must
//     not read the wall clock (time.Now / Since / Until), draw from the
//     unseeded global math/rand source (a locally seeded *rand.Rand is
//     fine and is how the deterministic shuffle works), or spawn
//     goroutines, whose completion order replay cannot reproduce;
//   - internal/core and cmd/* must not touch package time's clock surface
//     at all (readings, sleeps, timers, tickers): a direct call bypasses
//     the seam, so a FakeClock test silently runs on wall time and
//     recovery restamping races the real clock. Constructors like
//     time.Date and conversions like time.Unix compute with time values
//     and stay legal;
//   - the deterministic packages and all replay-reachable code must not
//     make map iteration order observable (see checkMapRangeBody).
//
// clock.go, the file that implements the seam behind core.SystemClock,
// is exempt from the clock rules. Call edges stop at
// deta/internal/parallel (deterministic by construction: For joins all
// workers and the index partition is fixed) and deta/internal/journal
// (the thing being replayed, not a replay consumer). Edges through
// function literals and `go` statements are followed — a closure spawned
// during replay is still replay code.
type ReplayPure struct {
	reach map[*types.Func]string // reachable function -> root it was reached from
}

func (*ReplayPure) Name() string { return "replaypure" }
func (*ReplayPure) Doc() string {
	return "flag nondeterminism (wall clock, timers, global rand, goroutines, map order) in replay-reachable code, deterministic packages, and core/cmd"
}

// replayRootNames keys the roots by package: the recovery entry points in
// core, and every fusion kernel (the Aggregate methods) in agg.
var replayRootNames = map[string]map[string]bool{
	"deta/internal/core": {
		"RecoverAggregatorNode": true,
		"applyRecord":           true,
		"restoreSnapshot":       true,
	},
	"deta/internal/agg": {
		"Aggregate": true,
	},
}

// deterministicPkgs lists the packages whose outputs must be
// bit-deterministic in every function, reachable from a root or not.
var deterministicPkgs = []string{
	"deta/internal/core",
	"deta/internal/agg",
	"deta/internal/journal",
	"deta/internal/tensor",
	"deta/internal/fl",
	"deta/internal/rng",
}

// clockSurface is package time's ambient-clock API: readings, sleeps, and
// timer constructors.
var clockSurface = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"Sleep": true, "After": true, "AfterFunc": true,
	"Tick": true, "NewTicker": true, "NewTimer": true,
}

// journalWriteMethods are order-sensitive sinks: appending to the WAL.
var journalWriteMethods = map[string]bool{
	"Append": true, "AppendNoSync": true, "Compact": true,
	"logEvent": true, "logEventDurable": true, "logEventAdvisory": true,
	"logFragmentDurable": true,
}

// replayEdgeInto reports whether the call graph follows edges into the
// package at path.
func replayEdgeInto(path string) bool {
	return pathIn(path, "deta") &&
		path != "deta/internal/parallel" &&
		path != "deta/internal/journal"
}

// Prepare builds the module call graph restricted to deta packages and
// BFS-marks everything reachable from the roots. Roots are discovered in
// package/file/declaration order and the queue preserves it, so the
// root-provenance recorded for each function is deterministic.
func (a *ReplayPure) Prepare(pkgs []*Package) {
	a.reach = map[*types.Func]string{}
	adj := map[*types.Func][]*types.Func{}
	var queue []*types.Func
	for _, pkg := range pkgs {
		rootSet := replayRootNames[pkg.Path]
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				if rootSet[fd.Name.Name] {
					if _, seen := a.reach[obj]; !seen {
						a.reach[obj] = fd.Name.Name
						queue = append(queue, obj)
					}
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					callee := calleeFunc(pkg, call)
					if callee == nil || callee.Pkg() == nil || !replayEdgeInto(callee.Pkg().Path()) {
						return true
					}
					adj[obj] = append(adj[obj], callee)
					return true
				})
			}
		}
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		for _, callee := range adj[fn] {
			if _, seen := a.reach[callee]; seen {
				continue
			}
			a.reach[callee] = a.reach[fn]
			queue = append(queue, callee)
		}
	}
}

// Run checks every declaration in pkg under the rules its scope selects.
// a.reach is written only by Prepare (sequential, before the fan-out) and
// read here, so concurrent per-package Runs are safe.
func (a *ReplayPure) Run(pkg *Package, r *Reporter) {
	if !pathIn(pkg.Path, "deta") {
		return
	}
	deterministic := pathIn(pkg.Path, deterministicPkgs...)
	clockScoped := pkg.Path == "deta/internal/core" || pathIn(pkg.Path, "deta/cmd")
	for _, file := range pkg.Files {
		inClockFile := filepath.Base(pkg.Fset.Position(file.Pos()).Filename) == "clock.go"
		for _, decl := range file.Decls {
			fd, _ := decl.(*ast.FuncDecl)
			var root string
			reachable := false
			if fd != nil {
				if fd.Body == nil {
					continue
				}
				if obj, _ := pkg.Info.Defs[fd.Name].(*types.Func); obj != nil {
					root, reachable = a.reach[obj]
				}
				if deterministic || reachable {
					checkMapOrderFunc(pkg, r, fd)
				}
			}
			if !reachable && (!clockScoped || inClockFile) {
				continue
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch v := n.(type) {
				case *ast.GoStmt:
					if reachable {
						r.Reportf(v.Pos(),
							"goroutine spawned in %s (replay-reachable from %s): completion order is not reproducible on replay",
							fd.Name.Name, root)
					}
				case *ast.CallExpr:
					fn := calleeFunc(pkg, v)
					if fn == nil || fn.Pkg() == nil {
						return true
					}
					switch fn.Pkg().Path() {
					case "time":
						if inClockFile || !clockSurface[fn.Name()] {
							return true
						}
						if reachable && (fn.Name() == "Now" || fn.Name() == "Since" || fn.Name() == "Until") {
							r.Reportf(v.Pos(),
								"wall-clock read time.%s in %s (replay-reachable from %s): replay cannot reproduce it — plumb core.Clock instead",
								fn.Name(), fd.Name.Name, root)
						} else if clockScoped {
							r.Reportf(v.Pos(),
								"direct wall-clock call time.%s bypasses the injectable core.Clock (FakeClock tests and recovery restamping break)",
								fn.Name())
						}
					case "math/rand", "math/rand/v2":
						// Package-level calls draw from the shared global
						// source; constructing a seeded local source is the
						// sanctioned path.
						if sig, ok := fn.Type().(*types.Signature); ok && reachable && sig.Recv() == nil {
							switch fn.Name() {
							case "New", "NewSource", "NewZipf":
							default:
								r.Reportf(v.Pos(),
									"global math/rand call rand.%s in %s (replay-reachable from %s): unseeded source breaks bit-identical replay — use a seeded *rand.Rand",
									fn.Name(), fd.Name.Name, root)
							}
						}
					}
				}
				return true
			})
		}
	}
}

// checkMapOrderFunc flags loop bodies in fn that make map iteration order
// observable. Go randomizes map iteration order per run, so any of the
// following inside `for ... range m` over a map is a nondeterminism bug
// unless proven otherwise:
//
//   - appending to a slice declared outside the loop (unless the slice is
//     passed to a sort.* / slices.* call later in the same function — the
//     collect-then-sort idiom is the blessed fix);
//   - compound accumulation (+= -= *= /=) into a float declared outside
//     the loop (float addition is not associative, so the sum's bits
//     depend on visit order);
//   - writing journal records (Journal.Append/AppendNoSync/Compact or the
//     aggregator's logEvent* helpers) — the WAL's record order would then
//     differ between the original run and any re-execution.
func checkMapOrderFunc(pkg *Package, r *Reporter, fn *ast.FuncDecl) {
	sorted := sortedExprs(fn)
	ast.Inspect(fn, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok || !isMapRange(pkg, rng) {
			return true
		}
		checkMapRangeBody(pkg, r, rng, sorted)
		return true
	})
}

// sortedExprs collects the (printed) first arguments of every sort.* and
// slices.* call in fn: slices that get sorted somewhere in the function
// are exempt from the append rule.
func sortedExprs(fn *ast.FuncDecl) map[string]bool {
	out := map[string]bool{}
	ast.Inspect(fn, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); ok && (id.Name == "sort" || id.Name == "slices") {
			out[types.ExprString(call.Args[0])] = true
		}
		return true
	})
	return out
}

func isMapRange(pkg *Package, rng *ast.RangeStmt) bool {
	tv, ok := pkg.Info.Types[rng.X]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

func checkMapRangeBody(pkg *Package, r *Reporter, rng *ast.RangeStmt, sorted map[string]bool) {
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.RangeStmt:
			if st != rng && isMapRange(pkg, st) {
				return false // nested map range reports its own findings
			}
		case *ast.AssignStmt:
			checkMapRangeAssign(pkg, r, rng, st, sorted)
		case *ast.CallExpr:
			if sel, ok := st.Fun.(*ast.SelectorExpr); ok && journalWriteMethods[sel.Sel.Name] {
				if isJournalWrite(pkg, sel) {
					r.Reportf(st.Pos(),
						"journal write %s.%s inside map iteration: WAL record order becomes nondeterministic, breaking replay",
						types.ExprString(sel.X), sel.Sel.Name)
				}
			}
		}
		return true
	})
}

func checkMapRangeAssign(pkg *Package, r *Reporter, rng *ast.RangeStmt, st *ast.AssignStmt, sorted map[string]bool) {
	// x = append(x, ...) with x from outside the loop.
	if st.Tok == token.ASSIGN && len(st.Rhs) == 1 {
		if call, ok := st.Rhs[0].(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "append" && len(call.Args) > 0 {
				target := types.ExprString(call.Args[0])
				if target == types.ExprString(st.Lhs[0]) && declaredOutside(pkg, st.Lhs[0], rng) && !sorted[target] {
					r.Reportf(st.Pos(),
						"append to %s inside map iteration: element order is nondeterministic (collect then sort, or iterate sorted keys)",
						target)
				}
			}
		}
	}
	// Float compound accumulation: sum += v and friends.
	switch st.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		lhs := st.Lhs[0]
		tv, ok := pkg.Info.Types[lhs]
		if !ok || tv.Type == nil {
			return
		}
		if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsFloat != 0 {
			if declaredOutside(pkg, lhs, rng) {
				r.Reportf(st.Pos(),
					"float accumulation into %s inside map iteration: float addition is order-dependent, so the result is not bit-deterministic",
					types.ExprString(lhs))
			}
		}
	}
}

// declaredOutside reports whether the assignment target lives outside the
// range statement (a selector or index rooted outside, or an ident whose
// declaration precedes the loop). Targets created inside the loop body are
// per-iteration and harmless.
func declaredOutside(pkg *Package, expr ast.Expr, rng *ast.RangeStmt) bool {
	for {
		switch x := expr.(type) {
		case *ast.SelectorExpr:
			expr = x.X
		case *ast.IndexExpr:
			expr = x.X
		case *ast.StarExpr:
			expr = x.X
		case *ast.Ident:
			obj := pkg.Info.Uses[x]
			if obj == nil {
				obj = pkg.Info.Defs[x]
			}
			if obj == nil {
				return true
			}
			return obj.Pos() < rng.Pos() || obj.Pos() > rng.End()
		default:
			return true
		}
	}
}

// isJournalWrite reports whether sel is a WAL write: a method on a type
// named Journal, or one of the aggregator's logEvent* helpers (matched by
// name so fixtures and future wrappers are covered without importing the
// journal package here).
func isJournalWrite(pkg *Package, sel *ast.SelectorExpr) bool {
	switch sel.Sel.Name {
	case "logEvent", "logEventDurable", "logEventAdvisory", "logFragmentDurable":
		return true
	}
	s, ok := pkg.Info.Selections[sel]
	if !ok {
		return false
	}
	named, ok := derefType(s.Recv()).(*types.Named)
	return ok && named.Obj().Name() == "Journal"
}
