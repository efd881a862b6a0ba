package lint

// summary.go is the call-graph summary pass: module-wide facts computed
// once over all loaded packages (via the Preparer hook) so the dataflow
// analyzers can reason across function boundaries.
//
// Three summaries are computed:
//
//   - transitive I/O: which module functions perform network or disk I/O
//     on their synchronous path (goroutine bodies and function literals do
//     not count — the caller does not wait on them). Calls into
//     deta/internal/journal are a deliberate barrier: the WAL's
//     commit-before-ack write is the sanctioned, documented exception to
//     both the lock-region and context rules (DESIGN.md §9).
//   - lock effects: the net mutexes a function acquires or releases on
//     behalf of its caller, so helper-held locks are visible at call
//     sites — one fixpoint, keyed per frame for lockregion and by lock
//     class for lockorder.
//   - key taint (see keytaint.go): which fields, parameters, and returns
//     carry key material, by flow-insensitive fixpoint.
//
// All summaries key on *types.Func object identity, which is stable
// across packages because one Loader run shares a single dependency
// cache: the object a caller's Info.Uses resolves to is the same object
// the callee's package defined.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"slices"
	"strings"
)

// funcUnit is one analyzable function body: a declared function/method
// (obj non-nil) or a function literal (obj nil).
type funcUnit struct {
	pkg  *Package
	decl *ast.FuncDecl // non-nil iff a declaration
	lit  *ast.FuncLit  // non-nil iff a literal
	obj  *types.Func   // nil for literals

	// parent is the innermost enclosing unit of a function literal (nil
	// for declarations and free-standing literals, e.g. package-level var
	// initializers). Analyzers that recurse into literals from the
	// enclosing body — keytaint checks closures with the captured-variable
	// taint that holds at their creation point — skip parented units to
	// avoid analyzing the same body twice.
	parent *funcUnit
}

func (u *funcUnit) body() *ast.BlockStmt {
	if u.decl != nil {
		return u.decl.Body
	}
	return u.lit.Body
}

func (u *funcUnit) node() ast.Node {
	if u.decl != nil {
		return u.decl
	}
	return u.lit
}

func (u *funcUnit) ftype() *ast.FuncType {
	if u.decl != nil {
		return u.decl.Type
	}
	return u.lit.Type
}

// funcUnits returns every function body in the package in source order.
// Literals are their own units — they are opaque in the enclosing
// function's CFG — but carry a parent link to the unit that lexically
// encloses them, maintained with a traversal stack (ast.Inspect calls the
// callback with nil after a node's children, which is when the stack
// pops).
func funcUnits(pkg *Package) []*funcUnit {
	var units []*funcUnit
	for _, file := range pkg.Files {
		var nodes []ast.Node // traversal stack
		var open []*funcUnit // enclosing units, innermost last
		ast.Inspect(file, func(n ast.Node) bool {
			if n == nil {
				top := nodes[len(nodes)-1]
				nodes = nodes[:len(nodes)-1]
				if len(open) > 0 && open[len(open)-1].node() == top {
					open = open[:len(open)-1]
				}
				return true
			}
			nodes = append(nodes, n)
			var u *funcUnit
			switch x := n.(type) {
			case *ast.FuncDecl:
				if x.Body != nil {
					obj, _ := pkg.Info.Defs[x.Name].(*types.Func)
					u = &funcUnit{pkg: pkg, decl: x, obj: obj}
				}
			case *ast.FuncLit:
				u = &funcUnit{pkg: pkg, lit: x}
				if len(open) > 0 {
					u.parent = open[len(open)-1]
				}
			}
			if u != nil {
				units = append(units, u)
				open = append(open, u)
			}
			return true
		})
	}
	return units
}

// moduleUnits returns every function body of every package, in load and
// source order: the input of the module-wide summaries.
func moduleUnits(pkgs []*Package) []*funcUnit {
	var units []*funcUnit
	for _, pkg := range pkgs {
		units = append(units, funcUnits(pkg)...)
	}
	return units
}

// ---------------------------------------------------------------------------
// Transitive I/O summaries.

type ioKind uint8

const (
	ioNet ioKind = 1 << iota
	ioDisk
)

func (k ioKind) String() string {
	switch {
	case k&ioNet != 0 && k&ioDisk != 0:
		return "network/disk"
	case k&ioNet != 0:
		return "network"
	case k&ioDisk != 0:
		return "disk"
	}
	return "no"
}

// ioInfo records what kind of I/O a function performs on its sync path
// and a human-readable witness for the report message.
type ioInfo struct {
	kind ioKind
	via  string // first primitive or callee that contributed
}

const journalPath = "deta/internal/journal"

// netVerbsByPkg names the I/O primitives outside the module, keyed by the
// defining package of the resolved callee object (so interface methods
// like net.Conn.Read match without receiver gymnastics).
var netVerbs = map[string]map[string]bool{
	"net":        {"Read": true, "Write": true, "ReadFrom": true, "WriteTo": true, "Accept": true},
	"crypto/tls": {"Read": true, "Write": true, "Handshake": true, "HandshakeContext": true},
	"io":         {"ReadFull": true, "ReadAtLeast": true, "Copy": true, "CopyN": true, "CopyBuffer": true},
	"bufio":      {"Flush": true, "Read": true},
	// Hardcoded so fixture packages (which see transport api-only) and
	// single-package runs still classify transport calls correctly.
	"deta/internal/transport": {
		"Call": true, "CallContext": true, "CallTypedContext": true,
		"Ping": true, "Serve": true, "Accept": true, "Redial": true,
	},
}

var diskFuncs = map[string]bool{
	"Create": true, "Open": true, "OpenFile": true, "ReadFile": true,
	"WriteFile": true, "Rename": true, "Remove": true, "RemoveAll": true,
	"Mkdir": true, "MkdirAll": true, "ReadDir": true, "Truncate": true,
}

var diskVerbs = map[string]bool{
	"Read": true, "Write": true, "ReadAt": true, "WriteAt": true,
	"Sync": true, "Truncate": true, "Seek": true, "ReadFrom": true, "WriteTo": true,
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// calleeFunc resolves a call to the *types.Func it invokes (declared
// function, method, or interface method), or nil for builtins,
// conversions, and calls through plain function values.
func calleeFunc(pkg *Package, call *ast.CallExpr) *types.Func {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := pkg.Info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := pkg.Info.Uses[fun.Sel].(*types.Func)
		return f
	case *ast.IndexExpr: // generic instantiation: transport.CallTypedContext[Req, Resp](...)
		return calleeFunc(pkg, &ast.CallExpr{Fun: fun.X})
	case *ast.IndexListExpr:
		return calleeFunc(pkg, &ast.CallExpr{Fun: fun.X})
	}
	return nil
}

// ioPrimitive classifies a call as a direct I/O primitive. Calls into
// deta/internal/journal never count (WAL barrier, see package comment).
func ioPrimitive(pkg *Package, call *ast.CallExpr) (ioKind, string) {
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
		name := sel.Sel.Name
		// Calls through func-typed fields or variables named like dialers.
		obj := pkg.Info.Uses[sel.Sel]
		if v, ok := obj.(*types.Var); ok {
			if _, isSig := v.Type().Underlying().(*types.Signature); isSig &&
				(name == "Redial" || strings.HasPrefix(name, "Dial")) {
				return ioNet, types.ExprString(sel.X) + "." + name
			}
		}
	}
	f := calleeFunc(pkg, call)
	if f == nil || f.Pkg() == nil {
		// A call through a bare func value named like a dialer.
		if id, ok := unparen(call.Fun).(*ast.Ident); ok {
			if v, ok := pkg.Info.Uses[id].(*types.Var); ok {
				if _, isSig := v.Type().Underlying().(*types.Signature); isSig &&
					(id.Name == "redial" || strings.HasPrefix(id.Name, "dial") || strings.HasPrefix(id.Name, "Dial")) {
					return ioNet, id.Name
				}
			}
		}
		return 0, ""
	}
	path, name := f.Pkg().Path(), f.Name()
	if path == journalPath {
		return 0, ""
	}
	if verbs, ok := netVerbs[path]; ok {
		if verbs[name] || strings.HasPrefix(name, "Dial") {
			return ioNet, f.Pkg().Name() + "." + name
		}
	}
	if path == "net" && strings.HasPrefix(name, "Dial") {
		return ioNet, "net." + name
	}
	if path == "os" {
		if f.Type().(*types.Signature).Recv() == nil {
			if diskFuncs[name] {
				return ioDisk, "os." + name
			}
		} else if diskVerbs[name] {
			return ioDisk, "os.File." + name
		}
	}
	return 0, ""
}

// computeIO builds the transitive I/O summary over all declared module
// functions: direct primitives first, then a fixpoint over call edges.
// Goroutine bodies and function literals are excluded (async path); calls
// into deta/internal/journal are excluded (WAL barrier).
func computeIO(units []*funcUnit) map[*types.Func]ioInfo {
	io := make(map[*types.Func]ioInfo)
	edges := make(map[*types.Func][]*types.Func)
	for _, u := range units {
		if u.obj == nil {
			continue
		}
		info := io[u.obj]
		syncWalk(u.body(), func(n ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return
			}
			if k, via := ioPrimitive(u.pkg, call); k != 0 {
				if info.kind&k != k {
					info.kind |= k
					if info.via == "" {
						info.via = via
					}
				}
				return
			}
			if f := calleeFunc(u.pkg, call); f != nil && f.Pkg() != nil &&
				strings.HasPrefix(f.Pkg().Path(), "deta/") && f.Pkg().Path() != journalPath {
				edges[u.obj] = append(edges[u.obj], f)
			}
		})
		io[u.obj] = info
	}
	for changed := true; changed; {
		changed = false
		for _, u := range units {
			if u.obj == nil {
				continue
			}
			info := io[u.obj]
			for _, callee := range edges[u.obj] {
				ci := io[callee]
				if add := ci.kind &^ info.kind; add != 0 {
					info.kind |= add
					if info.via == "" {
						info.via = callee.Name()
					}
					changed = true
				}
			}
			io[u.obj] = info
		}
	}
	return io
}

// syncWalk visits the nodes of body that execute on the caller's
// synchronous path: it skips goroutine bodies and function literals
// entirely (including the spawned call expression itself).
func syncWalk(body ast.Node, visit func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.GoStmt, *ast.FuncLit:
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}

// ---------------------------------------------------------------------------
// Lock-effect summaries.
//
// One fixpoint serves both lock analyzers; they differ only in how a lock
// is named. lockregion names an *instance* relative to the function's
// frame (lockPath: receiver or parameter plus selector path), so effects
// map through call sites by substituting the call's arguments. lockorder
// names a *class* — a struct-field mutex by its owning named type plus the
// field ("core.AggregatorNode.mu", embedded owners resolved through the
// selection's index path), a package-level mutex by "pkg.var" — which is
// global, so effects cross call sites unchanged. Local mutexes have no
// name in either scheme and never propagate to callers.

// lockFX is one net lock acquisition (or release) a function performs on
// behalf of its caller, for the lock named key.
type lockFX[K comparable] struct {
	key     K
	acquire bool
}

// computeLockFX summarizes, per declared function, the net locks it
// leaves held (or releases) for its caller, to a fixpoint over call edges
// (the same shape as computeIO): a helper that locks via another helper
// still surfaces at the outermost call site. Balanced Lock/Unlock —
// direct, through calls, or Lock with a deferred Unlock — cancel out.
// key names the mutex of a direct Lock/Unlock in u's frame (false: the
// lock is invisible to callers); through maps a callee's lock name across
// a call site into u's frame (false: it does not survive the mapping).
func computeLockFX[K comparable](units []*funcUnit,
	key func(u *funcUnit, mu ast.Expr) (K, bool),
	through func(u *funcUnit, call *ast.CallExpr, k K) (K, bool),
) map[*types.Func][]lockFX[K] {
	out := make(map[*types.Func][]lockFX[K])
	// The cap bounds recursive call cycles; real helper chains stabilize
	// after one pass per call depth.
	for iter := 0; iter < 10; iter++ {
		next := make(map[*types.Func][]lockFX[K])
		for _, u := range units {
			if u.obj == nil {
				continue
			}
			if fx := unitLockFX(u, out, key, through); len(fx) > 0 {
				next[u.obj] = fx
			}
		}
		if maps.EqualFunc(out, next, slices.Equal[[]lockFX[K]]) {
			return next
		}
		out = next
	}
	return out
}

// unitLockFX computes one function's net lock effects given the current
// summaries of every other function.
func unitLockFX[K comparable](u *funcUnit, summaries map[*types.Func][]lockFX[K],
	key func(u *funcUnit, mu ast.Expr) (K, bool),
	through func(u *funcUnit, call *ast.CallExpr, k K) (K, bool),
) []lockFX[K] {
	var fx []lockFX[K]
	apply := func(k K, acquire bool) {
		// A release cancels the latest matching acquire (and vice
		// versa); otherwise it is a net effect of its own.
		for i := len(fx) - 1; i >= 0; i-- {
			if fx[i].key == k && fx[i].acquire != acquire {
				fx = append(fx[:i], fx[i+1:]...)
				return
			}
		}
		fx = append(fx, lockFX[K]{key: k, acquire: acquire})
	}
	// direct applies a Lock/Unlock statement and reports whether e was
	// one. Deferred calls (like deferred Unlocks) only ever discharge a
	// held lock, so releasesOnly drops acquisitions.
	direct := func(e ast.Expr, releasesOnly bool) bool {
		mu, name, ok := mutexOp(u.pkg, e)
		if !ok {
			return false
		}
		acquire := name == "Lock" || name == "RLock"
		if k, ok := key(u, mu); ok && !(releasesOnly && acquire) {
			apply(k, acquire)
		}
		return true
	}
	callFX := func(call *ast.CallExpr, releasesOnly bool) {
		callee := calleeFunc(u.pkg, call)
		if callee == nil {
			return
		}
		for _, e := range summaries[callee] {
			if releasesOnly && e.acquire {
				continue
			}
			if k, ok := through(u, call, e.key); ok {
				apply(k, e.acquire)
			}
		}
	}
	syncWalk(u.body(), func(n ast.Node) {
		switch st := n.(type) {
		case *ast.ExprStmt:
			if direct(st.X, false) {
				return
			}
			if call, ok := unparen(st.X).(*ast.CallExpr); ok {
				callFX(call, false)
			}
		case *ast.AssignStmt:
			for _, rhs := range st.Rhs {
				if call, ok := unparen(rhs).(*ast.CallExpr); ok {
					callFX(call, false)
				}
			}
		case *ast.DeferStmt:
			if direct(st.Call, true) {
				return
			}
			callFX(st.Call, true)
		}
	})
	return fx
}

// heldTransfer returns the transfer function of a may-held lock set over
// pkg's CFG nodes: a direct Lock/RLock adds the lock named by key (the
// first acquisition site wins), Unlock/RUnlock removes it, and otherwise
// each synchronous call applies the net effects callFX maps into the
// caller's frame — including a Lock/Unlock whose mutex key cannot name
// (it returns ""). Deferred calls run at exit and never release a lock
// mid-function, so a DeferStmt has no effect.
func heldTransfer(pkg *Package, key func(mu ast.Expr) string,
	callFX func(call *ast.CallExpr) []lockFX[string]) func(f lockFact, n ast.Node) {
	return func(f lockFact, n ast.Node) {
		if st, ok := n.(*ast.ExprStmt); ok {
			if mu, name, ok := mutexOp(pkg, st.X); ok {
				if k := key(mu); k != "" {
					setHeld(f, k, name == "Lock" || name == "RLock", st.Pos())
					return
				}
			}
		}
		if _, ok := n.(*ast.DeferStmt); ok {
			return
		}
		inspectSyncCalls(n, func(call *ast.CallExpr) {
			for _, e := range callFX(call) {
				setHeld(f, e.key, e.acquire, call.Pos())
			}
		})
	}
}

func setHeld(f lockFact, k string, acquire bool, pos token.Pos) {
	if !acquire {
		delete(f, k)
	} else if _, held := f[k]; !held {
		f[k] = pos
	}
}

// lockPath names a mutex relative to a function's frame: rooted at the
// receiver (root == -1) or a parameter (root == index), with the printed
// selector path below the root (e.g. ".mu"; "" if the root IS the mutex).
type lockPath struct {
	root int
	path string
}

// pathThrough maps a callee's lockPath through the call site: the root is
// replaced by the receiver or argument expression, re-rooted in u.
func pathThrough(u *funcUnit, call *ast.CallExpr, k lockPath) (lockPath, bool) {
	base := callSiteRoot(call, k.root)
	if base == nil {
		return lockPath{}, false
	}
	lp, ok := exprRoot(u, base)
	lp.path += k.path
	return lp, ok
}

// callSiteRoot returns the expression a call binds to a lockPath root:
// the receiver (root == -1) or argument root, nil if the call form has
// none.
func callSiteRoot(call *ast.CallExpr, root int) ast.Expr {
	if root == -1 {
		if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
			return sel.X
		}
		return nil
	}
	if root >= len(call.Args) {
		return nil
	}
	return call.Args[root]
}

// paramRoot returns the receiver (-1) or parameter index obj occupies in
// u's signature.
func paramRoot(u *funcUnit, obj types.Object) (int, bool) {
	if u.obj == nil || obj == nil {
		return 0, false
	}
	sig := u.obj.Type().(*types.Signature)
	if sig.Recv() == obj {
		return -1, true
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if sig.Params().At(i) == obj {
			return i, true
		}
	}
	return 0, false
}

// exprRoot decomposes a selector chain (possibly through & and *) into a
// lockPath rooted at one of u's receiver or parameters.
func exprRoot(u *funcUnit, e ast.Expr) (lockPath, bool) {
	full := types.ExprString(unparen(e))
	base := unparen(e)
	for {
		switch x := base.(type) {
		case *ast.SelectorExpr:
			base = unparen(x.X)
		case *ast.StarExpr:
			base = unparen(x.X)
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return lockPath{}, false
			}
			base = unparen(x.X)
		case *ast.Ident:
			root, ok := paramRoot(u, u.pkg.Info.Uses[x])
			if !ok {
				return lockPath{}, false
			}
			path := strings.TrimLeft(full, "&*")
			return lockPath{root: root, path: strings.TrimPrefix(path, x.Name)}, true
		default:
			return lockPath{}, false
		}
	}
}

// callLockEffects maps a callee's lockPath effects through a call site
// into the caller's frame, naming each lock by its printed expression
// there.
func callLockEffects(call *ast.CallExpr, fx []lockFX[lockPath]) []lockFX[string] {
	var out []lockFX[string]
	for _, e := range fx {
		if base := callSiteRoot(call, e.key.root); base != nil {
			out = append(out, lockFX[string]{key: types.ExprString(base) + e.key.path, acquire: e.acquire})
		}
	}
	return out
}

// classKey is computeLockFX's key for class-named locks.
func classKey(u *funcUnit, mu ast.Expr) (string, bool) {
	c := lockClass(u.pkg, mu)
	return c, c != ""
}

// classThrough is the identity: lock classes are instance-independent.
func classThrough(_ *funcUnit, _ *ast.CallExpr, class string) (string, bool) {
	return class, true
}

// lockClass names the lock class of a mutex-valued expression, or "" if
// the expression has no class (locals, unresolvable chains).
func lockClass(pkg *Package, e ast.Expr) string {
	switch x := unparen(e).(type) {
	case *ast.SelectorExpr:
		if s, ok := pkg.Info.Selections[x]; ok {
			return fieldClass(s)
		}
		// Package-qualified selector: otherpkg.GlobalMu.
		if v, ok := pkg.Info.Uses[x.Sel].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Name() + "." + v.Name()
		}
	case *ast.Ident:
		if v, ok := pkg.Info.Uses[x].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Name() + "." + v.Name()
		}
	}
	return ""
}

// fieldClass names the owning named type of a selected field:
// "pkg.Type.field". The selection's index path is walked so the owner is
// the struct that actually declares the field, even through embedding.
func fieldClass(s *types.Selection) string {
	t := s.Recv()
	idx := s.Index()
	for _, i := range idx[:len(idx)-1] {
		st, ok := derefType(t).Underlying().(*types.Struct)
		if !ok {
			return ""
		}
		t = st.Field(i).Type()
	}
	named, ok := derefType(t).(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	return named.Obj().Pkg().Name() + "." + named.Obj().Name() + "." + s.Obj().Name()
}

func derefType(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// mutexClassOp matches a mutex Lock/RLock/Unlock/RUnlock call whose lock
// has a resolvable class.
func mutexClassOp(pkg *Package, e ast.Expr) (class, name string, ok bool) {
	if mu, n, isOp := mutexOp(pkg, e); isOp {
		if c := lockClass(pkg, mu); c != "" {
			return c, n, true
		}
	}
	return "", "", false
}

// acqWitness records where a summarized acquisition actually happens, for
// report provenance.
type acqWitness struct {
	pos token.Pos
	fn  string
}

// computeLockAcq summarizes, per declared function, every lock class it
// MAY acquire on its synchronous path — directly or through module
// callees at any depth (a may-union fixpoint, unlike the net effects
// above: an acquire-then-release still establishes lock order). The
// journal is NOT exempt here: its mutex participates in ordering like any
// other.
func computeLockAcq(units []*funcUnit) map[*types.Func]map[string]acqWitness {
	acq := make(map[*types.Func]map[string]acqWitness)
	edges := make(map[*types.Func][]*types.Func)
	for _, u := range units {
		if u.obj == nil {
			continue
		}
		set := make(map[string]acqWitness)
		syncWalk(u.body(), func(n ast.Node) {
			switch st := n.(type) {
			case *ast.ExprStmt:
				if class, name, ok := mutexClassOp(u.pkg, st.X); ok && (name == "Lock" || name == "RLock") {
					if _, seen := set[class]; !seen {
						set[class] = acqWitness{pos: st.Pos(), fn: fnDisplayName(u)}
					}
				}
			case *ast.CallExpr:
				if f := calleeFunc(u.pkg, st); f != nil && f.Pkg() != nil &&
					strings.HasPrefix(f.Pkg().Path(), "deta/") {
					edges[u.obj] = append(edges[u.obj], f)
				}
			}
		})
		if len(set) > 0 {
			acq[u.obj] = set
		}
	}
	for changed := true; changed; {
		changed = false
		for _, u := range units {
			if u.obj == nil {
				continue
			}
			for _, callee := range edges[u.obj] {
				for class, w := range acq[callee] {
					set := acq[u.obj]
					if set == nil {
						set = make(map[string]acqWitness)
						acq[u.obj] = set
					}
					if _, ok := set[class]; !ok {
						set[class] = w
						changed = true
					}
				}
			}
		}
	}
	return acq
}

// fnDisplayName names a function unit for report messages.
func fnDisplayName(u *funcUnit) string {
	if u.decl != nil {
		if u.decl.Recv != nil && len(u.decl.Recv.List) > 0 {
			return fmt.Sprintf("(%s).%s", types.ExprString(u.decl.Recv.List[0].Type), u.decl.Name.Name)
		}
		return u.decl.Name.Name
	}
	return "func literal"
}
