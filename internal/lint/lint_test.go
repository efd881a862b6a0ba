package lint

import (
	"bufio"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// Fixture packages under testdata/src/<name>/ pose as scoped deta import
// paths so the path-gated analyzers apply to them. Expected findings are
// `// want <analyzer>` markers on the offending lines; the test fails in
// both directions (missing finding, unexpected finding).

var wantRe = regexp.MustCompile(`// want ([a-z]+)`)

type mark struct {
	file     string // base name
	line     int
	analyzer string
}

// wantMarks scans a fixture directory for `// want <analyzer>` markers.
// The result is empty for a fixture that expects no findings.
func wantMarks(t *testing.T, dir string) map[mark]bool {
	t.Helper()
	out := map[mark]bool{}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			for _, m := range wantRe.FindAllStringSubmatch(sc.Text(), -1) {
				out[mark{e.Name(), line, m[1]}] = true
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	return out
}

func fixturePkg(t *testing.T, l *Loader, name, pose string) *Package {
	t.Helper()
	pkg, err := l.LoadDir(filepath.Join("testdata", "src", name), pose)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	return pkg
}

func TestAnalyzerFixtures(t *testing.T) {
	loader := NewLoader()
	// Fixtures are named for the rule they exercise; maporder, clockdisc
	// and ctxflow are rules of replaypure and ctxplumb. A clean fixture
	// asserts that no rule applies to its pose.
	cases := []struct {
		fixture  string
		pose     string
		analyzer Analyzer
		clean    bool
	}{
		{"cryptorand", "deta/internal/rng", CryptoRand{}, false},
		{"maporder", "deta/internal/core", &ReplayPure{}, false},
		{"errdiscipline", "deta/internal/journal", ErrDiscipline{}, false},
		{"ctxplumb", "deta/internal/core", &CtxPlumb{}, false},
		{"keytaint", "deta/internal/core", &KeyTaint{}, false},
		{"lockregion", "deta/internal/core", &LockRegion{}, false},
		{"ctxflow", "deta/internal/core", &CtxPlumb{}, false},
		{"lockorder", "deta/internal/core", &LockOrder{}, false},
		{"goleak", "deta/internal/core", &GoLeak{}, false},
		{"allocfree", "deta/internal/core", &AllocFree{}, false},
		{"waldisc", "deta/internal/core", WalDisc{}, false},
		{"replaypure", "deta/internal/core", &ReplayPure{}, false},
		{"replaypure_unscoped", "deta/internal/transport", &ReplayPure{}, true},
		{"clockdisc", "deta/internal/core", &ReplayPure{}, false},
		{"suppress", "deta/internal/journal", ErrDiscipline{}, false},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.fixture, func(t *testing.T) {
			t.Parallel() // the shared loader must be race-clean
			pkg := fixturePkg(t, loader, tc.fixture, tc.pose)
			got := map[mark]bool{}
			for _, f := range Run([]*Package{pkg}, []Analyzer{tc.analyzer}) {
				if f.Analyzer == "lintignore" {
					continue // asserted by TestSuppressionDirectives
				}
				got[mark{filepath.Base(f.File), f.Line, f.Analyzer}] = true
			}
			want := wantMarks(t, filepath.Join("testdata", "src", tc.fixture))
			if (len(want) == 0) != tc.clean {
				t.Fatalf("fixture %s has %d want markers, clean = %v", tc.fixture, len(want), tc.clean)
			}
			for m := range want {
				if !got[m] {
					t.Errorf("missing finding: %s:%d [%s]", m.file, m.line, m.analyzer)
				}
			}
			for m := range got {
				if !want[m] {
					t.Errorf("unexpected finding: %s:%d [%s]", m.file, m.line, m.analyzer)
				}
			}
		})
	}
}

// TestSuppressionDirectives pins the directive behaviors the fixture
// markers cannot express: the well-formed ignore actually removes its
// finding, and the malformed ignore (no reason) and the ignore naming an
// unregistered analyzer are each reported as a "lintignore" finding at the
// directive's own line.
func TestSuppressionDirectives(t *testing.T) {
	loader := NewLoader()
	pkg := fixturePkg(t, loader, "suppress", "deta/internal/journal")
	findings := Run([]*Package{pkg}, []Analyzer{ErrDiscipline{}})

	src, err := os.ReadFile(filepath.Join("testdata", "src", "suppress", "suppress.go"))
	if err != nil {
		t.Fatal(err)
	}
	wellFormed, malformed, unknown := 0, 0, 0
	for i, line := range strings.Split(string(src), "\n") {
		trimmed := strings.TrimSpace(line)
		switch {
		case trimmed == "//lint:ignore errdiscipline":
			malformed = i + 1
		case strings.HasPrefix(trimmed, "//lint:ignore errdiscipline "):
			wellFormed = i + 1
		case strings.HasPrefix(trimmed, "//lint:ignore maporder "):
			unknown = i + 1
		}
	}
	if wellFormed == 0 || malformed == 0 || unknown == 0 {
		t.Fatalf("fixture lost its directives (well-formed at %d, malformed at %d, unknown at %d)", wellFormed, malformed, unknown)
	}

	var lintignore []int
	for _, f := range findings {
		switch f.Analyzer {
		case "lintignore":
			lintignore = append(lintignore, f.Line)
		case "errdiscipline":
			if f.Line == wellFormed+1 {
				t.Errorf("finding at line %d survived the well-formed ignore above it", f.Line)
			}
		}
	}
	if want := []int{malformed, unknown}; !reflect.DeepEqual(lintignore, want) {
		t.Fatalf("lintignore findings at lines %v, want %v (the malformed and the unknown-analyzer directives)", lintignore, want)
	}
}

// TestOneDefectOneFinding pins the suite-level contract that each defect
// yields one finding: the fixture's replay-reachable time.Now() in core
// and its replay-reachable map-order float fold in a deterministic
// package each fall under two of replaypure's rules, and the full suite
// must report each line exactly once, under the marked analyzer.
func TestOneDefectOneFinding(t *testing.T) {
	pkg := fixturePkg(t, NewLoader(), "onefinding", "deta/internal/core")
	perLine := map[int]int{}
	got := map[mark]bool{}
	for _, f := range Run([]*Package{pkg}, All()) {
		perLine[f.Line]++
		got[mark{filepath.Base(f.File), f.Line, f.Analyzer}] = true
	}
	for line, n := range perLine {
		if n != 1 {
			t.Errorf("line %d: %d findings, want exactly 1", line, n)
		}
	}
	want := wantMarks(t, filepath.Join("testdata", "src", "onefinding"))
	if len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Errorf("findings %v, want %v", got, want)
	}
}

// TestDesignTableListsAnalyzers keeps DESIGN.md §10 honest: its analyzer
// table must have exactly one row per analyzer in All(), so a merged,
// renamed or retired analyzer cannot leave a stale row behind.
func TestDesignTableListsAnalyzers(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, sec, ok := strings.Cut(string(src), "\n## 10. ")
	if !ok {
		t.Fatal("DESIGN.md has no section 10")
	}
	sec, _, _ = strings.Cut(sec, "\n## ")
	row := regexp.MustCompile("(?m)^\\| `([a-z]+)` \\|")
	var rows []string
	for _, m := range row.FindAllStringSubmatch(sec, -1) {
		rows = append(rows, m[1])
	}
	var names []string
	for _, a := range All() {
		names = append(names, a.Name())
	}
	sort.Strings(rows)
	sort.Strings(names)
	if !reflect.DeepEqual(rows, names) {
		t.Fatalf("DESIGN.md §10 table rows %v, want exactly the registered analyzers %v", rows, names)
	}
}

// TestLoadSelf exercises the go-list Load path end to end: this package
// must load, type-check, and come back clean under the full suite.
func TestLoadSelf(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := NewLoader().Load(wd, ".")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || pkgs[0].Path != "deta/internal/lint" {
		t.Fatalf("loaded %+v, want exactly deta/internal/lint", pkgs)
	}
	if findings := Run(pkgs, All()); len(findings) != 0 {
		t.Fatalf("lint package is not lint-clean: %v", findings)
	}
}

// TestLockOrderRealTreeEdge pins the class machinery to the real tree:
// the aggregator calls into the journal while holding its own mutex, and
// journal methods take the journal mutex, so the order graph must contain
// the edge core.AggregatorNode.mu -> journal.Journal.mu. The edge is
// legitimate (it is the sanctioned WAL-commit order) — the analyzer's job
// is to guarantee the reverse order never appears and closes a cycle.
func TestLockOrderRealTreeEdge(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := NewLoader().Load(filepath.Join(wd, "..", ".."),
		"deta/internal/core", "deta/internal/journal")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("loaded %d packages, want 2", len(pkgs))
	}
	lo := &LockOrder{}
	lo.Prepare(pkgs)
	var got []string
	for _, e := range lo.edges {
		got = append(got, e.from+" -> "+e.to)
		if e.from == "core.AggregatorNode.mu" && e.to == "journal.Journal.mu" {
			return
		}
	}
	t.Fatalf("edge core.AggregatorNode.mu -> journal.Journal.mu not in graph; have %v", got)
}
