package lint

// LockRegion flags network or disk I/O performed while a mutex is held in
// internal/core. It replaces the old syntactic lockio analyzer with real
// CFG reachability: held-lock sets are propagated through the
// control-flow graph (may-analysis — a lock held on SOME path into a
// statement counts), so conditional unlocks, early returns, and loops are
// modeled instead of approximated. Two interprocedural refinements come
// from the call-graph summaries:
//
//   - helper-held locks: a call to a method whose net effect is acquiring
//     (or releasing) a receiver/parameter mutex updates the held set at
//     the call site;
//   - transitive I/O: a call to a module function that performs network
//     or disk I/O anywhere on its synchronous path is itself a sink.
//
// The WAL's commit-before-ack is the sanctioned exception: writes through
// deta/internal/journal — direct or transitive — never count as I/O here
// (DESIGN.md §9 requires the journal append to happen under the round
// lock, before the ack is sent). Everything else that blocks on a peer's
// disk or network while holding a core mutex convoys every concurrent
// caller and is reported.
import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

type LockRegion struct {
	io     map[*types.Func]ioInfo
	lockFX map[*types.Func][]lockFX[lockPath]
}

func (*LockRegion) Name() string { return "lockregion" }
func (*LockRegion) Doc() string {
	return "flag network/disk I/O on any CFG path holding a mutex in internal/core (WAL journal exempt)"
}

// Prepare computes module-wide I/O and lock-effect summaries.
func (a *LockRegion) Prepare(pkgs []*Package) {
	units := moduleUnits(pkgs)
	a.io = computeIO(units)
	a.lockFX = computeLockFX(units, exprRoot, pathThrough)
}

func (a *LockRegion) Run(pkg *Package, r *Reporter) {
	if !pathIn(pkg.Path, "deta/internal/core") {
		return
	}
	for _, u := range funcUnits(pkg) {
		a.checkUnit(u, r)
	}
}

// lockFact is the dataflow fact: printed mutex expression -> position of
// the acquisition that put it in the held set.
type lockFact = fact[string, token.Pos]

func (a *LockRegion) checkUnit(u *funcUnit, r *Reporter) {
	body := u.body()
	if body == nil {
		return
	}
	c := buildCFG(body)
	transfer := a.lockTransfer(u.pkg)
	in := solveForward(c, lockFact{}, transfer)
	for _, blk := range reachableBlocks(c, in) {
		f := cloneFact(in[blk])
		for _, n := range blk.nodes {
			if len(f) > 0 {
				a.checkNode(u.pkg, f, n, r)
			}
			transfer(f, n)
		}
	}
}

// lockTransfer is the held-lock transfer function for pkg's functions.
// Locks are keyed by their printed expression in the function.
func (a *LockRegion) lockTransfer(pkg *Package) func(f lockFact, n ast.Node) {
	return heldTransfer(pkg, types.ExprString, func(call *ast.CallExpr) []lockFX[string] {
		callee := calleeFunc(pkg, call)
		if callee == nil {
			return nil
		}
		return callLockEffects(call, a.lockFX[callee])
	})
}

// checkNode reports I/O calls in n that execute with a non-empty held
// set. Goroutine spawns and deferred calls are skipped: the former run
// without the caller's lock, the latter at exit where inline analysis of
// the held set no longer applies.
func (a *LockRegion) checkNode(pkg *Package, f lockFact, n ast.Node, r *Reporter) {
	switch n.(type) {
	case *ast.GoStmt, *ast.DeferStmt:
		return
	}
	inspectSyncCalls(n, func(call *ast.CallExpr) {
		desc := a.ioCallDesc(pkg, call)
		if desc == "" {
			return
		}
		r.Reportf(call.Pos(),
			"%s while holding %s: I/O under a core mutex convoys every concurrent caller behind one peer's disk/network latency",
			desc, heldKeys(f))
	})
}

// ioCallDesc classifies a call as an I/O sink: a direct primitive or a
// module function whose summary says it performs I/O on its sync path.
func (a *LockRegion) ioCallDesc(pkg *Package, call *ast.CallExpr) string {
	if k, via := ioPrimitive(pkg, call); k != 0 {
		return via + " " + k.String() + " I/O"
	}
	callee := calleeFunc(pkg, call)
	if callee == nil || callee.Pkg() == nil {
		return ""
	}
	if callee.Pkg().Path() == journalPath {
		return "" // WAL barrier: commit-before-ack is sanctioned under the lock
	}
	if info := a.io[callee]; info.kind != 0 {
		return "call to " + callee.Name() + " (" + info.kind.String() + " I/O via " + info.via + ")"
	}
	return ""
}

// inspectSyncCalls visits the call expressions under n that execute
// synchronously at this program point: nested goroutine spawns, deferred
// calls, and function-literal bodies are skipped.
func inspectSyncCalls(n ast.Node, visit func(*ast.CallExpr)) {
	ast.Inspect(n, func(x ast.Node) bool {
		switch c := x.(type) {
		case *ast.GoStmt, *ast.DeferStmt, *ast.FuncLit:
			return false
		case *ast.CallExpr:
			visit(c)
		}
		return true
	})
}

// heldKeys renders the held-lock set deterministically for messages.
func heldKeys(f lockFact) string { return strings.Join(sortedKeys(f), ", ") }

// mutexOp matches `<mu>.Lock()/RLock()/Unlock()/RUnlock()` where mu is a
// sync.Mutex or sync.RWMutex, returning the mutex expression.
func mutexOp(pkg *Package, e ast.Expr) (mu ast.Expr, name string, ok bool) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return nil, "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, "", false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return nil, "", false
	}
	s, ok := pkg.Info.Selections[sel]
	if !ok {
		return nil, "", false
	}
	named, isNamed := derefType(s.Recv()).(*types.Named)
	if !isNamed || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return nil, "", false
	}
	if n := named.Obj().Name(); n != "Mutex" && n != "RWMutex" {
		return nil, "", false
	}
	return sel.X, sel.Sel.Name, true
}
