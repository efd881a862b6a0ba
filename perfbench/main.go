// Command perfbench drives whole DeTA rounds through the shipped public
// API — AP control plane, Phase I/II, core.Fleet uploads and downloads
// over the RPC transport, the initiator's fuse steps, the aggregators'
// write-ahead journal — in one process, checks every party's merged model
// against an oracle bit for bit, and prints end-to-end metrics (untraced)
// or per-layer metrics (traced). See README.md in this directory.
//
//	bash perfbench/run.sh --workload shuffle-mem --seed 1 --seconds 35 --trace 0
//
// The last line of output is one JSON object per workload:
// {"correct", "attempted", "failed", "metrics"}. The exit code is 1 when
// the oracle or the recovery check fails, 2 on a usage error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	workload := fl.String("workload", "all", "comma-separated workloads (shuffle-mem, median-tls, fsync-mem) or all")
	seed := fl.Int64("seed", 1, "seed for the generated updates, weights and mapper")
	seconds := fl.Float64("seconds", 35, "length of the measured phase in seconds; a traced run measures a quarter of it untraced, then half of it traced")
	trace := fl.Int("trace", 0, "0: report end-to-end metrics; 1: also run a traced phase and report per-layer metrics")
	state := fl.String("state", ".bench_build/state", "directory for journal state (removed after each run)")
	traceOut := fl.String("trace-out", ".bench_build/trace", "directory the traced run writes its spans to as JSON lines")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	ws, err := selectWorkloads(*workload)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	opts := Options{
		Seed:         *seed,
		Duration:     time.Duration(*seconds * float64(time.Second)),
		MinRounds:    10,
		WarmupRounds: 3,
		Warmup:       2 * time.Second,
		Trace:        *trace == 1,
		Setups:       21,
		Recoveries:   5,
		StateDir:     *state,
		TraceOut:     *traceOut,
	}
	code := 0
	for _, w := range ws {
		res, err := Run(w, opts)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.Name, err)
			return 1
		}
		if len(ws) > 1 {
			res.Notes = append(res.Notes, "max_rss_mb is this process's peak so far; run one workload per process for a per-workload figure")
		}
		res.print(stdout)
		if !res.Correct {
			fmt.Fprintf(stderr, "perfbench: %s: correctness check failed: %v\n", w.Name, res.FirstErr)
			code = 1
		}
	}
	return code
}

// print writes every metric by name with its unit and sample count, then
// the JSON result line: end-to-end metrics for an untraced run, per-layer
// metrics for a traced one.
func (r *Result) print(out io.Writer) {
	w, o := r.Workload, r.Options
	journal := "off"
	if w.Journal {
		journal = "fsync"
	}
	fmt.Fprintf(out, "# %s: K=%d P=%d n=%d shuffle=%v algorithm=%s transport=%s journal=%s GOMAXPROCS=%d seed=%d rounds=%d\n",
		w.Name, numAggregators, w.Parties, w.N, w.Shuffle, w.Algorithm().Name(), w.transportName(), journal,
		runtime.GOMAXPROCS(0), o.Seed, r.Rounds)
	specs := append(append([]metricSpec(nil), endToEnd...), tails...)
	if o.Trace {
		specs = allMetrics()
	}
	for _, s := range specs {
		m := r.Metrics[s.name]
		fmt.Fprintf(out, "%-32s %14.4f %-6s n=%d\n", s.name, m.Value, m.Unit, m.N)
	}
	ratio := 0.0
	if r.Attempted > 0 {
		ratio = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Fprintf(out, "%-32s %14.4f %-6s n=%d party-rounds (%d failed)\n", "fail_ratio", ratio, "ratio", r.Attempted, r.Failed)
	if r.FirstErr != nil {
		fmt.Fprintf(out, "# first failure: %v\n", r.FirstErr)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(out, "# %s\n", n)
	}
	if r.SelfTimes != nil {
		names := make([]string, 0, len(r.SelfTimes))
		for n := range r.SelfTimes {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(out, "# self time %-16s %10.3f ms total\n", n, ms(r.SelfTimes[n]))
		}
	}
	if r.TracePath != "" {
		fmt.Fprintf(out, "# spans: %s\n", r.TracePath)
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value)
	if o.Trace {
		specs = perLayer
	} else {
		specs = endToEnd
	}
	for _, s := range specs {
		m := r.Metrics[s.name]
		metrics[s.name] = value{m.Value, m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	if err != nil {
		// Only a NaN or Inf value can fail here, and the metrics guard
		// against both; report rather than print a partial line.
		fmt.Fprintf(out, "# encoding result: %v\n", err)
		return
	}
	fmt.Fprintln(out, string(line))
}
