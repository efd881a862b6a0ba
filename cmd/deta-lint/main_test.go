package main

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// TestRetiredAnalyzerNamesRejected pins that analyzers folded into a
// survivor leave no alias behind: selecting one by its old name is a
// usage error, not a silent redirect.
func TestRetiredAnalyzerNamesRejected(t *testing.T) {
	for _, name := range []string{"lockio", "maporder", "clockdisc", "ctxflow"} {
		for _, flagName := range []string{"-enable", "-disable"} {
			var stdout, stderr bytes.Buffer
			code := run([]string{flagName, name}, &stdout, &stderr)
			if code != 2 || !strings.Contains(stderr.String(), "unknown analyzer") {
				t.Errorf("%s %s: exit %d, stderr %q; want exit 2 and \"unknown analyzer\"", flagName, name, code, stderr.String())
			}
		}
	}
}

// TestListPrintsSuite pins the registered suite: one analyzer per
// invariant, in registration order.
func TestListPrintsSuite(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list exited %d: %s", code, stderr.String())
	}
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
		names = append(names, strings.Fields(line)[0])
	}
	want := []string{
		"cryptorand", "errdiscipline", "ctxplumb", "keytaint", "lockregion",
		"lockorder", "goleak", "allocfree", "waldisc", "replaypure",
	}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("-list printed %v, want %v", names, want)
	}
}
