// Package lint is deta's in-tree static-analysis framework: a small
// analyzer interface over go/ast + go/types (no golang.org/x/tools), the
// project-specific analyzers that enforce DeTA's security and determinism
// invariants, and the package loader that feeds them.
//
// The enforced invariants (see DESIGN.md §10), one analyzer each:
//
//   - cryptorand:     keyed/secret randomness must never come from math/rand
//   - errdiscipline:  no silently dropped Sync/Close/Write/Commit errors on
//     the durability path
//   - ctxplumb:       RPC/fleet surfaces take a caller context, first, take
//     one whenever they transitively perform network I/O, and never mint
//     context.Background() internally
//   - keytaint:       key material never reaches logs, error strings, the
//     journal, or wire messages other than the AP PermKey response
//   - lockregion:     no network/disk I/O on any CFG path holding a mutex
//     in core (the WAL commit is the sanctioned exception)
//   - lockorder:      the module-wide lock-acquisition-order graph is
//     acyclic (cycles are potential deadlocks)
//   - goleak:         no goroutine is spawned into a body that can block
//     forever on channel operations with no escape edge
//   - allocfree:      functions annotated //perf:hotpath (and their
//     synchronous callees) perform no allocations beyond the sanctioned,
//     acknowledged sites
//   - waldisc:        every durable aggregator state mutation is dominated
//     on all CFG paths by a journal append of sufficient strength
//     (WAL-before-ack)
//   - replaypure:     determinism — no wall clock, global rand, goroutine,
//     or observable map order in code reachable from replay roots or
//     fusion kernels; no map-order dependence anywhere in the
//     deterministic packages; and internal/core and cmd read time only
//     through the injectable core.Clock
//
// keytaint, lockregion, ctxplumb, lockorder, goleak, and allocfree are
// dataflow/summary analyzers: they run on per-function control-flow
// graphs (cfg.go, dataflow.go) with module-wide call-graph summaries
// (summary.go) computed once, up front, through the Preparer hook.
// waldisc and replaypure form the protocol-invariant tier on top of the
// must-analysis engine (dom.go, mustflow.go): dominance and
// every-path-append facts that the forward may-solver cannot express.
// Each defect is reported once, by the analyzer that owns its invariant.
//
// A finding on a line can be acknowledged — never silently — with a
// comment on that line or the line above:
//
//	//lint:ignore <analyzer> <reason>
//
// The reason is mandatory, and the analyzer must be one of All(): a
// malformed directive, or one naming no registered analyzer, is itself a
// finding.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"sync"

	"deta/internal/parallel"
)

// Package is one loaded, type-checked package as the analyzers see it.
// Test files (_test.go) are never included: the invariants guard
// production paths, and tests legitimately use context.Background(),
// best-effort Closes, and seeded math/rand.
type Package struct {
	Path  string // import path ("deta/internal/core")
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Finding is one analyzer hit, position-resolved for file:line output.
type Finding struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"-"`
	File     string         `json:"file"`
	Line     int            `json:"line"`
	Col      int            `json:"col"`
	Message  string         `json:"message"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
}

// Reporter collects findings for one (package, analyzer) run.
type Reporter struct {
	analyzer string
	pkg      *Package
	mu       sync.Mutex
	findings []Finding
}

// Reportf records a finding at pos.
func (r *Reporter) Reportf(pos token.Pos, format string, args ...any) {
	p := r.pkg.Fset.Position(pos)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.findings = append(r.findings, Finding{
		Analyzer: r.analyzer,
		Pos:      p,
		File:     p.Filename,
		Line:     p.Line,
		Col:      p.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzer is one invariant checker. Run inspects a single package and
// reports findings; it must be safe to call concurrently for different
// packages.
type Analyzer interface {
	Name() string
	Doc() string
	Run(pkg *Package, r *Reporter)
}

// Preparer is implemented by analyzers that need module-wide facts: Run
// always calls Prepare once with every loaded package before fanning out,
// so call-graph summaries can cross package boundaries and an analyzer's
// Run may rely on them.
type Preparer interface {
	Prepare(pkgs []*Package)
}

// All returns the full analyzer suite in stable order.
func All() []Analyzer {
	return []Analyzer{
		CryptoRand{},
		ErrDiscipline{},
		&CtxPlumb{},
		&KeyTaint{},
		&LockRegion{},
		&LockOrder{},
		&GoLeak{},
		&AllocFree{},
		WalDisc{},
		&ReplayPure{},
	}
}

// Run executes the analyzers over the packages (concurrently across
// packages, after a sequential Prepare round for analyzers that need
// module-wide summaries), applies //lint:ignore suppression, and returns
// the surviving findings sorted by position. Malformed ignore directives
// (no analyzer name or no reason) and directives naming an analyzer that
// is not registered are reported as findings of the pseudo-analyzer
// "lintignore".
func Run(pkgs []*Package, analyzers []Analyzer) []Finding {
	for _, a := range analyzers {
		if p, ok := a.(Preparer); ok {
			p.Prepare(pkgs)
		}
	}
	// Per-package fan-out over the shared worker pool (bounded, unlike
	// the old one-goroutine-per-package spawn). Each package's findings
	// land in its own slot, so the pre-sort order is already independent
	// of scheduling; the final total-order sort (file, line, col,
	// analyzer, message) makes the output canonical byte-for-byte across
	// runs and worker counts.
	results := make([][]Finding, len(pkgs))
	parallel.For(len(pkgs), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			pkg := pkgs[i]
			sup, bad := suppressions(pkg)
			var local []Finding
			for _, a := range analyzers {
				r := &Reporter{analyzer: a.Name(), pkg: pkg}
				a.Run(pkg, r)
				for _, f := range r.findings {
					if sup[supKey{f.Analyzer, f.File, f.Line}] {
						continue
					}
					local = append(local, f)
				}
			}
			results[i] = append(local, bad...)
		}
	})
	var all []Finding
	for _, fs := range results {
		all = append(all, fs...)
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return all
}

type supKey struct {
	analyzer string
	file     string
	line     int
}

// suppressions scans a package's comments for //lint:ignore directives.
// A directive suppresses the named analyzer on its own line and on the
// following line (the usual "comment above the statement" placement).
// A directive that names no registered analyzer suppresses nothing, so it
// is reported rather than left to look like an acknowledgement.
func suppressions(pkg *Package) (map[supKey]bool, []Finding) {
	registered := make(map[string]bool)
	for _, a := range All() {
		registered[a.Name()] = true
	}
	sup := make(map[supKey]bool)
	var bad []Finding
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:ignore")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				fields := strings.Fields(text)
				var msg string
				switch {
				case len(fields) < 2:
					msg = "malformed directive: want //lint:ignore <analyzer> <reason>"
				case !registered[fields[0]]:
					msg = fmt.Sprintf("directive names unknown analyzer %q and suppresses nothing (see deta-lint -list)", fields[0])
				default:
					sup[supKey{fields[0], pos.Filename, pos.Line}] = true
					sup[supKey{fields[0], pos.Filename, pos.Line + 1}] = true
					continue
				}
				bad = append(bad, Finding{
					Analyzer: "lintignore",
					Pos:      pos,
					File:     pos.Filename,
					Line:     pos.Line,
					Col:      pos.Column,
					Message:  msg,
				})
			}
		}
	}
	return sup, bad
}

// exported reports whether a function declaration is part of the package's
// exported surface (exported name; for methods, an exported receiver type
// too).
func exported(fn *ast.FuncDecl) bool {
	if !fn.Name.IsExported() {
		return false
	}
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return true
	}
	t := fn.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr: // generic receiver
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.Ident:
			return x.IsExported()
		default:
			return true
		}
	}
}

// pathIn reports whether importPath is pkg or a subpackage of pkg.
func pathIn(importPath string, pkgs ...string) bool {
	for _, p := range pkgs {
		if importPath == p || strings.HasPrefix(importPath, p+"/") {
			return true
		}
	}
	return false
}
