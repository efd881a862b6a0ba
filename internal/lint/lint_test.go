package lint

import (
	"bufio"
	"os"
	"path/filepath"
	"regexp"
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
	if len(out) == 0 {
		t.Fatalf("fixture %s has no want markers", dir)
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
	cases := []struct {
		fixture  string
		pose     string
		analyzer Analyzer
	}{
		{"cryptorand", "deta/internal/rng", CryptoRand{}},
		{"maporder", "deta/internal/core", MapOrder{}},
		{"errdiscipline", "deta/internal/journal", ErrDiscipline{}},
		{"ctxplumb", "deta/internal/core", CtxPlumb{}},
		{"keytaint", "deta/internal/core", &KeyTaint{}},
		{"lockregion", "deta/internal/core", &LockRegion{}},
		{"ctxflow", "deta/internal/core", &CtxFlow{}},
		{"lockorder", "deta/internal/core", &LockOrder{}},
		{"goleak", "deta/internal/core", &GoLeak{}},
		{"allocfree", "deta/internal/core", &AllocFree{}},
		{"waldisc", "deta/internal/core", WalDisc{}},
		{"replaypure", "deta/internal/core", &ReplayPure{}},
		{"clockdisc", "deta/internal/core", ClockDisc{}},
		{"suppress", "deta/internal/journal", ErrDiscipline{}},
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

// TestSuppressionDirectives pins the two directive behaviors the fixture
// markers cannot express: the well-formed ignore actually removes its
// finding, and the malformed ignore (no reason) is reported as a
// "lintignore" finding at the directive's own line.
func TestSuppressionDirectives(t *testing.T) {
	loader := NewLoader()
	pkg := fixturePkg(t, loader, "suppress", "deta/internal/journal")
	findings := Run([]*Package{pkg}, []Analyzer{ErrDiscipline{}})

	src, err := os.ReadFile(filepath.Join("testdata", "src", "suppress", "suppress.go"))
	if err != nil {
		t.Fatal(err)
	}
	wellFormed, malformed := 0, 0
	for i, line := range strings.Split(string(src), "\n") {
		trimmed := strings.TrimSpace(line)
		if trimmed == "//lint:ignore errdiscipline" {
			malformed = i + 1
		} else if strings.HasPrefix(trimmed, "//lint:ignore errdiscipline ") {
			wellFormed = i + 1
		}
	}
	if wellFormed == 0 || malformed == 0 {
		t.Fatalf("fixture lost its directives (well-formed at %d, malformed at %d)", wellFormed, malformed)
	}

	var lintignore []Finding
	for _, f := range findings {
		switch f.Analyzer {
		case "lintignore":
			lintignore = append(lintignore, f)
		case "errdiscipline":
			if f.Line == wellFormed+1 {
				t.Errorf("finding at line %d survived the well-formed ignore above it", f.Line)
			}
		}
	}
	if len(lintignore) != 1 {
		t.Fatalf("got %d lintignore findings, want exactly 1: %v", len(lintignore), lintignore)
	}
	if lintignore[0].Line != malformed {
		t.Errorf("lintignore finding at line %d, want %d (the malformed directive)", lintignore[0].Line, malformed)
	}
}

// TestMapOrderReplayPureDedup pins the one-defect-one-finding rule: the
// replaypure fixture's accumulate loop is an order-dependent float fold
// inside a replay-reachable function, so syntactic maporder and
// reachability-scoped replaypure both hit the same line — the driver must
// keep only the replaypure finding there, while maporder findings on
// lines replaypure does not cover (the unreachable function) survive.
func TestMapOrderReplayPureDedup(t *testing.T) {
	loader := NewLoader()
	pkg := fixturePkg(t, loader, "replaypure", "deta/internal/core")
	findings := Run([]*Package{pkg}, []Analyzer{MapOrder{}, &ReplayPure{}})

	byLine := map[int][]string{}
	for _, f := range findings {
		if filepath.Base(f.File) == "replaypure.go" || filepath.Base(f.File) == "replaypure_clean.go" {
			byLine[f.Line] = append(byLine[f.Line], f.Analyzer)
		}
	}
	// Locate the accumulate-loop line (want replaypure, inside the map
	// range) and the unreachable fold in the clean file.
	accLine := fixtureLine(t, "replaypure", "replaypure.go", "n.sum += v")
	cleanLine := fixtureLine(t, "replaypure", "replaypure_clean.go", "n.sum += v")
	if got := byLine[accLine]; len(got) != 1 || got[0] != "replaypure" {
		t.Errorf("line %d: got analyzers %v, want exactly [replaypure] (maporder duplicate must be dropped)", accLine, got)
	}
	if got := byLine[cleanLine]; len(got) != 1 || got[0] != "maporder" {
		t.Errorf("clean-file line %d: got analyzers %v, want exactly [maporder] (replaypure does not reach it)", cleanLine, got)
	}
}

// fixtureLine returns the first line of the fixture file containing
// needle.
func fixtureLine(t *testing.T, fixture, file, needle string) int {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("testdata", "src", fixture, file))
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(string(src), "\n") {
		if strings.Contains(line, needle) {
			return i + 1
		}
	}
	t.Fatalf("%s/%s: %q not found", fixture, file, needle)
	return 0
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
