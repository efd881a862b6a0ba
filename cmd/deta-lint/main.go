// deta-lint runs the project's static-analysis suite (internal/lint): the
// security and determinism invariants the compiler cannot check, enforced
// mechanically on every build. See DESIGN.md §10.
//
// Usage:
//
//	deta-lint [flags] [packages]
//
// With no packages it lints ./.... Exit status: 0 clean, 1 findings,
// 2 usage or load failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"deta/internal/lint"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command behind main: it returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("deta-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		jsonOut       = fs.Bool("json", false, "emit findings as a JSON array")
		enable        = fs.String("enable", "", "comma-separated analyzers to run (default: all)")
		disable       = fs.String("disable", "", "comma-separated analyzers to skip")
		list          = fs.Bool("list", false, "list analyzers and exit")
		baseline      = fs.String("baseline", "", "suppress findings recorded in this baseline file; fail only on new ones")
		baselineWrite = fs.String("baseline-write", "", "record current findings to this baseline file and exit 0")
		sarifOut      = fs.String("sarif", "", "also write findings (post-baseline) as SARIF 2.1.0 to this file")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "deta-lint:", err)
		return 2
	}

	analyzers := lint.All()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name(), a.Doc())
		}
		return 0
	}
	analyzers, err := selectAnalyzers(analyzers, *enable, *disable)
	if err != nil {
		return fail(err)
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	wd, err := os.Getwd()
	if err != nil {
		return fail(err)
	}
	pkgs, err := lint.NewLoader().Load(wd, patterns...)
	if err != nil {
		return fail(err)
	}

	findings := lint.Run(pkgs, analyzers)
	if *baselineWrite != "" {
		if err := lint.WriteBaseline(*baselineWrite, wd, findings); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "deta-lint: wrote %d finding(s) to baseline %s\n", len(findings), *baselineWrite)
		return 0
	}
	if *baseline != "" {
		base, err := lint.ReadBaseline(*baseline)
		if err != nil {
			return fail(err)
		}
		findings = lint.FilterBaseline(findings, base, wd)
	}
	if *sarifOut != "" {
		if err := lint.WriteSARIF(*sarifOut, wd, analyzers, findings); err != nil {
			return fail(err)
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []lint.Finding{}
		}
		if err := enc.Encode(findings); err != nil {
			return fail(err)
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(stdout, f)
		}
	}
	if len(findings) > 0 {
		if !*jsonOut {
			fmt.Fprintf(stderr, "deta-lint: %d finding(s) across %d package(s)\n", len(findings), len(pkgs))
		}
		return 1
	}
	return 0
}

// selectAnalyzers applies -enable/-disable, validating names so a typo in
// CI fails loudly instead of silently running nothing.
func selectAnalyzers(all []lint.Analyzer, enable, disable string) ([]lint.Analyzer, error) {
	byName := make(map[string]lint.Analyzer, len(all))
	for _, a := range all {
		byName[a.Name()] = a
	}
	split := func(s string) ([]string, error) {
		if s == "" {
			return nil, nil
		}
		var out []string
		for _, n := range strings.Split(s, ",") {
			n = strings.TrimSpace(n)
			if n == "" {
				continue
			}
			if _, ok := byName[n]; !ok {
				return nil, fmt.Errorf("unknown analyzer %q (try -list)", n)
			}
			out = append(out, n)
		}
		return out, nil
	}
	en, err := split(enable)
	if err != nil {
		return nil, err
	}
	dis, err := split(disable)
	if err != nil {
		return nil, err
	}
	selected := all
	if len(en) > 0 {
		selected = selected[:0:0]
		for _, n := range en {
			selected = append(selected, byName[n])
		}
	}
	if len(dis) > 0 {
		skip := make(map[string]bool, len(dis))
		for _, n := range dis {
			skip[n] = true
		}
		var kept []lint.Analyzer
		for _, a := range selected {
			if !skip[a.Name()] {
				kept = append(kept, a)
			}
		}
		selected = kept
	}
	if len(selected) == 0 {
		return nil, fmt.Errorf("no analyzers selected")
	}
	return selected, nil
}
