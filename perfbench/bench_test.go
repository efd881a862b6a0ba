package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"deta/internal/agg"
	"deta/internal/tensor"
)

// smoke runs each workload once, traced, for a few rounds; the tests
// below share the results.
var (
	smokeOnce    sync.Once
	smokeResults map[string]*Result
	smokeErr     error
)

func smoke(t *testing.T) map[string]*Result {
	t.Helper()
	smokeOnce.Do(func() {
		dir, err := os.MkdirTemp("", "perfbench-smoke")
		if err != nil {
			smokeErr = err
			return
		}
		defer os.RemoveAll(dir)
		smokeResults = make(map[string]*Result)
		for _, w := range Workloads {
			res, err := Run(w, Options{
				Seed: 7, MinRounds: 8, WarmupRounds: 1, Trace: true,
				Setups: 2, Recoveries: 2, StateDir: dir,
			})
			if err != nil {
				smokeErr = err
				return
			}
			smokeResults[w.Name] = res
		}
	})
	if smokeErr != nil {
		t.Fatal(smokeErr)
	}
	return smokeResults
}

// benchmarkJSON is the part of the repository's BENCHMARK.json these
// tests hold the benchmark to.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestBenchmarkJSONMatchesCode(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if len(bj.Workloads) != len(Workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, code has %d", len(bj.Workloads), len(Workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != Workloads[i].Name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, w.Name, Workloads[i].Name)
		}
	}
	check := func(kind string, listed []struct{ Name, Unit string }, specs []metricSpec) {
		if len(listed) != len(specs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, code reports %d", kind, len(listed), len(specs))
		}
		for _, m := range listed {
			found := false
			for _, s := range specs {
				if s.name == m.Name {
					found = true
					if s.unit != m.Unit {
						t.Errorf("%s %s: unit %q in BENCHMARK.json, %q in code", kind, m.Name, m.Unit, s.unit)
					}
				}
			}
			if !found {
				t.Errorf("%s %s: listed in BENCHMARK.json but not reported", kind, m.Name)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
}

func TestSmokeEveryWorkload(t *testing.T) {
	for name, res := range smoke(t) {
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v failed=%d/%d: %v", name, res.Correct, res.Failed, res.Attempted, res.FirstErr)
		}
		for _, s := range allMetrics() {
			m, ok := res.Metrics[s.name]
			if !ok {
				t.Errorf("%s: metric %s missing", name, s.name)
				continue
			}
			if m.Unit != s.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: metric %s = %v %s, want a finite value in %s", name, s.name, m.Value, m.Unit, s.unit)
			}
		}
		for _, s := range endToEnd {
			if res.Metrics[s.name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v, want > 0", name, s.name, res.Metrics[s.name].Value)
			}
		}
	}
}

func TestStageSumWithinTenPercent(t *testing.T) {
	for name, res := range smoke(t) {
		if pct := res.Metrics["trace.stage_sum_pct"].Value; pct < 90 || pct > 110 {
			t.Errorf("%s: trace.stage_sum_pct = %.1f, want within 90-110", name, pct)
		}
	}
}

// perturbOne changes one coordinate of every fused vector by one ulp.
type perturbOne struct{ agg.Algorithm }

func (p perturbOne) Aggregate(updates []tensor.Vector, weights []float64) (tensor.Vector, error) {
	out, err := p.Algorithm.Aggregate(updates, weights)
	if err == nil && len(out) > 0 {
		out[0] = math.Nextafter(out[0], math.Inf(1))
	}
	return out, err
}

func TestPerturbedKernelFailsOracle(t *testing.T) {
	w, _ := workloadByName("shuffle-mem")
	res, err := Run(w, Options{
		Seed: 3, MinRounds: 2, Setups: 1, StateDir: t.TempDir(),
		WrapAlg: func(a agg.Algorithm) agg.Algorithm { return perturbOne{a} },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 || res.Failed != res.Attempted {
		t.Fatalf("perturbed fusion: correct=%v failed=%d/%d, want every party-round failed", res.Correct, res.Failed, res.Attempted)
	}
}

func TestCommandPrintsResultLine(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"--workload", "fsync-mem", "--seed", "5", "--seconds", "0", "--trace", "0",
		"--state", t.TempDir()}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last struct {
		Correct   *bool
		Attempted *int
		Failed    *int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not the result object: %v", err)
	}
	if last.Correct == nil || !*last.Correct || last.Attempted == nil || *last.Attempted < 1 || last.Failed == nil || *last.Failed != 0 {
		t.Fatalf("result line %q", lines[len(lines)-1])
	}
	if len(last.Metrics) != len(endToEnd) {
		t.Errorf("untraced result carries %d metrics, want the %d end-to-end ones", len(last.Metrics), len(endToEnd))
	}
	for _, s := range endToEnd {
		if m, ok := last.Metrics[s.name]; !ok || m.Unit != s.unit {
			t.Errorf("metric %s: got %+v", s.name, m)
		}
	}
	if code := run([]string{"--workload", "nope"}, &out, &errOut); code != 2 {
		t.Errorf("unknown workload: exit %d, want 2", code)
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	base := time.Unix(0, 0)
	at := func(ms int) time.Time { return base.Add(time.Duration(ms) * time.Millisecond) }
	tr := &tracer{workload: "w", base: base, uploads: map[uploadKey]int64{}}
	tr.add(1, 1, 0, "root", "", at(0), at(100))
	tr.add(1, 2, 1, "a", "", at(10), at(40))
	tr.add(1, 3, 1, "b", "", at(30), at(60))  // overlaps a
	tr.add(1, 4, 1, "c", "", at(90), at(120)) // runs past the parent
	self := tr.selfTimes()
	if got, want := self["root"], 100*time.Millisecond-50*time.Millisecond-10*time.Millisecond; got != want {
		t.Fatalf("root self time %v, want %v", got, want)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := percentile(xs, 50); got != 2.5 {
		t.Errorf("p50 = %v, want 2.5", got)
	}
	if got := percentile(xs, 100); got != 4 {
		t.Errorf("p100 = %v, want 4", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of nothing = %v, want 0", got)
	}
}

func TestWindowOf(t *testing.T) {
	dur := 10 * time.Second
	for _, c := range []struct {
		offset, dur time.Duration
		want        int
	}{
		{0, dur, 0},
		{1999 * time.Millisecond, dur, 0},
		{2 * time.Second, dur, 1},
		{9999 * time.Millisecond, dur, numWindows - 1},
		{15 * time.Second, dur, numWindows - 1}, // held open for its minimum rounds
		{time.Second, 0, 0},
	} {
		if got := windowOf(c.offset, c.dur); got != c.want {
			t.Errorf("windowOf(%v, %v) = %d, want %d", c.offset, c.dur, got, c.want)
		}
	}
}
