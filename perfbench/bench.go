package main

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"deta/internal/agg"
	"deta/internal/core"
	"deta/internal/journal"
	"deta/internal/tensor"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, measured with
// tracing off. They are the ones BENCHMARK.json bounds.
var endToEnd = []metricSpec{
	{"round_ms.p50", "ms"},
	{"rounds_per_s", "1/s"},
	{"upload_ms.p50", "ms"},
	{"setup_s", "s"},
	{"max_rss_mb", "MB"},
}

// tails are end-to-end tail latencies. They are printed with the
// end-to-end metrics but left out of the result line: preemption by other
// tenants of the machine and, on the journaled workload, the disk's fsync
// tail move them by more than any bound BENCHMARK.json may set.
var tails = []metricSpec{
	{"round_ms.p95", "ms"},
	{"upload_ms.p99", "ms"},
}

// perLayer are the metrics of single layers, from a traced run.
var perLayer = []metricSpec{
	{"core.transform.ms", "ms"},
	{"core.inverse.ms", "ms"},
	{"fleet.download.ms", "ms"},
	{"node.aggregate.ms", "ms"},
	{"initiator.sync.ms", "ms"},
	{"node.upload.ms", "ms"},
	{"node.upload.ms.p99", "ms"},
	{"agg.kernel.ms", "ms"},
	{"transport.calls_per_round", "count"},
	{"transport.failed_calls", "count"},
	{"transport.wire_bytes_per_round", "bytes"},
	{"transport.wire_overhead", "ratio"},
	{"journal.write_amp", "ratio"},
	{"journal.state_mb", "MB"},
	{"journal.recover_ms", "ms"},
	{"setup.phase1_ms", "ms"},
	{"setup.phase2_ms", "ms"},
	{"setup.journal_open_ms", "ms"},
	{"runtime.allocs_per_round", "count"},
	{"runtime.alloc_mb_per_round", "MB"},
	{"runtime.gc_pause_ms_per_round", "ms"},
	{"trace.stage_sum_pct", "%"},
	{"trace.overhead_pct", "%"},
}

// Options controls one workload run.
type Options struct {
	Seed         int64
	Duration     time.Duration // length of each measured phase
	MinRounds    int           // each measured phase runs at least this many rounds
	WarmupRounds int           // untimed rounds before the first measured phase ...
	Warmup       time.Duration // ... and for at least this long
	Trace        bool          // also run a traced phase and report per-layer metrics
	Setups       int           // set-ups to time; setup_s is their median
	Recoveries   int           // journal reopenings to time after the run
	StateDir     string
	TraceOut     string // directory for span JSON lines; "" writes none
	// WrapAlg decorates every aggregator's algorithm (fault injection in
	// tests); the oracle always uses the plain algorithm.
	WrapAlg func(agg.Algorithm) agg.Algorithm
}

// Metric is one reported number with its unit and sample count.
type Metric struct {
	Value float64
	Unit  string
	N     int
}

// Result is everything one workload run reports.
type Result struct {
	Workload  Workload
	Options   Options
	Correct   bool
	Attempted int // party-rounds
	Failed    int
	Rounds    int
	FirstErr  error
	Metrics   map[string]Metric
	Notes     []string
	SelfTimes map[string]time.Duration // traced runs: summed self time per span name
	TracePath string
}

// Run sets the workload up, drives it in a closed loop, and reports its
// metrics. A failed oracle check is reported in the Result, not as an
// error; errors mean the benchmark itself could not run.
func Run(w Workload, o Options) (*Result, error) {
	in, err := genInputs(w, o.Seed)
	if err != nil {
		return nil, err
	}
	runDir := filepath.Join(o.StateDir, fmt.Sprintf("%s-%d", w.Name, os.Getpid()))
	defer os.RemoveAll(runDir)

	res := &Result{Workload: w, Options: o, Metrics: make(map[string]Metric)}
	var setups []setupTimes
	var d *deployment
	for i := 0; i < max(o.Setups, 1); i++ {
		dir := filepath.Join(runDir, fmt.Sprintf("setup-%d", i))
		dd, err := deploy(w, dir, o.WrapAlg)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		setups = append(setups, dd.times)
		if i < o.Setups-1 {
			if err := dd.Close(); err != nil {
				return nil, fmt.Errorf("tearing down set-up %d: %w", i, err)
			}
			os.RemoveAll(dir)
			continue
		}
		d = dd
	}
	defer d.Close()

	next := 1
	phases := []*phaseStats{d.runRounds(in, nil, &next, o.WarmupRounds, o.Warmup)}
	// A traced run measures its untraced phase for a quarter as long and
	// its traced phase for half as long: the first only supplies the
	// counters and the second the spans, while the end-to-end numbers come
	// from untraced runs.
	plainDur := o.Duration
	if o.Trace {
		plainDur /= 4
	}
	before := readCounters(d)
	plain := d.runRounds(in, nil, &next, o.MinRounds, plainDur)
	counts := readCounters(d).since(before)
	phases = append(phases, plain)
	var tr *tracer
	if o.Trace {
		tr = newTracer(w.Name)
		d.traceUploads()
		phases = append(phases, d.runRounds(in, tr, &next, o.MinRounds, o.Duration/2))
	}
	lastRound := next - 1
	if err := d.Close(); err != nil {
		return nil, fmt.Errorf("closing deployment: %w", err)
	}

	for _, ph := range phases {
		res.Attempted += ph.attempted
		res.Failed += ph.failed
		res.Rounds += ph.rounds
		if res.FirstErr == nil {
			res.FirstErr = ph.firstErr
		}
	}
	res.setEndToEnd(plain, setups)

	var recoverMS []float64
	stateBytes := int64(0)
	if w.Journal {
		stateBytes = dirSize(d.stateDir)
		var rerr error
		recoverMS, rerr = d.recoverCheck(lastRound, max(o.Recoveries, 1))
		if rerr != nil && res.FirstErr == nil {
			res.FirstErr = fmt.Errorf("recovery check: %w", rerr)
		}
		if rerr == nil {
			res.Notes = append(res.Notes, fmt.Sprintf("recovery: %d reopenings report round %d fused and serve its fragment bit-identically", len(recoverMS), lastRound))
		}
	}
	res.Correct = res.FirstErr == nil

	if o.Trace {
		res.setPerLayer(tr, plain, phases[len(phases)-1], counts, setups, stateBytes, recoverMS)
		res.SelfTimes = tr.selfTimes()
		if o.TraceOut != "" {
			if res.TracePath, err = tr.write(o.TraceOut, o.Seed); err != nil {
				return nil, fmt.Errorf("writing spans: %w", err)
			}
		}
	}
	return res, nil
}

func allMetrics() []metricSpec {
	return append(append(append([]metricSpec(nil), endToEnd...), tails...), perLayer...)
}

func (r *Result) set(name string, v float64, n int) {
	r.Metrics[name] = Metric{Value: v, Unit: unitOf(name), N: n}
}

func unitOf(name string) string {
	for _, s := range allMetrics() {
		if s.name == name {
			return s.unit
		}
	}
	panic("perfbench: metric " + name + " has no spec")
}

// setEndToEnd takes each timing per window of the measured phase and
// reports the median over the windows that have samples.
func (r *Result) setEndToEnd(plain *phaseStats, setups []setupTimes) {
	perWindow := func(f func(w window) float64) float64 {
		var vals []float64
		for _, w := range plain.windows {
			if len(w.walls) > 0 {
				vals = append(vals, f(w))
			}
		}
		return percentile(vals, 50)
	}
	r.set("round_ms.p50", perWindow(func(w window) float64 { return percentile(w.walls, 50) }), len(plain.walls))
	r.set("round_ms.p95", perWindow(func(w window) float64 { return percentile(w.walls, 95) }), len(plain.walls))
	r.set("rounds_per_s", perWindow(func(w window) float64 {
		return float64(len(w.walls)) / (w.last - w.first).Seconds()
	}), len(plain.walls))
	r.set("upload_ms.p50", perWindow(func(w window) float64 { return percentile(w.uploads, 50) }), len(plain.uploads))
	r.set("upload_ms.p99", perWindow(func(w window) float64 { return percentile(w.uploads, 99) }), len(plain.uploads))
	for i, w := range plain.windows {
		if len(w.walls) > 0 {
			r.Notes = append(r.Notes, fmt.Sprintf("window %d: %d rounds, round_ms.p50 %.2f, upload_ms.p50 %.2f, host steal %.1f%%",
				i, len(w.walls), percentile(w.walls, 50), percentile(w.uploads, 50), w.stealPct()))
		}
	}
	totals := make([]float64, len(setups))
	for i, s := range setups {
		totals[i] = s.total.Seconds()
	}
	r.set("setup_s", percentile(totals, 50), len(totals))
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		r.set("max_rss_mb", float64(ru.Maxrss)/1024, 1) // Linux reports KiB
	} else {
		r.set("max_rss_mb", 0, 0)
		r.Notes = append(r.Notes, "max_rss_mb: getrusage failed: "+err.Error())
	}
}

func (r *Result) setPerLayer(tr *tracer, plain, traced *phaseStats, c counters, setups []setupTimes, stateBytes int64, recoverMS []float64) {
	w := r.Workload
	spanMedian := func(metric, span string) {
		d := tr.durations(span)
		r.set(metric, percentile(d, 50), len(d))
	}
	spanMedian("core.transform.ms", "core.transform")
	spanMedian("core.inverse.ms", "core.inverse")
	spanMedian("fleet.download.ms", "fleet.download")
	spanMedian("node.aggregate.ms", "node.aggregate")
	spanMedian("initiator.sync.ms", "initiator.sync")
	spanMedian("node.upload.ms", "node.upload")
	spanMedian("agg.kernel.ms", "agg.kernel")
	up := tr.durations("node.upload")
	r.set("node.upload.ms.p99", percentile(up, 99), len(up))

	// Counters come from the untraced phase, so span bookkeeping does not
	// inflate them.
	rounds := float64(plain.rounds)
	payload := rounds * float64(w.Parties*w.N*8) // fragment bytes uploaded per phase
	r.set("transport.calls_per_round", float64(c.calls)/rounds, plain.rounds)
	r.set("transport.failed_calls", float64(c.failures), int(c.calls))
	r.set("transport.wire_bytes_per_round", float64(c.wire)/rounds, plain.rounds)
	r.set("transport.wire_overhead", float64(c.wire)/(2*payload), plain.rounds)
	switch {
	case w.TLS:
		r.set("journal.write_amp", 0, 0)
		r.Notes = append(r.Notes, "journal.write_amp: not observable over TCP (wchar counts socket writes); no journal on this workload")
	case c.wchar < 0:
		r.set("journal.write_amp", 0, 0)
		r.Notes = append(r.Notes, "journal.write_amp: /proc/self/io unreadable")
	default:
		r.set("journal.write_amp", float64(c.wchar)/payload, plain.rounds)
	}
	r.set("journal.state_mb", float64(stateBytes)/(1<<20), boolCount(w.Journal))
	r.set("journal.recover_ms", percentile(recoverMS, 50), len(recoverMS))
	if !w.Journal {
		r.Notes = append(r.Notes, "journal.state_mb, journal.recover_ms, setup.journal_open_ms: no journal on this workload")
	}

	var p1, p2, jo []float64
	for _, s := range setups {
		p1 = append(p1, msAll(s.phase1)...)
		p2 = append(p2, msAll(s.phase2)...)
		if w.Journal {
			jo = append(jo, msAll(s.journalOpen)...)
		}
	}
	r.set("setup.phase1_ms", percentile(p1, 50), len(p1))
	r.set("setup.phase2_ms", percentile(p2, 50), len(p2))
	r.set("setup.journal_open_ms", percentile(jo, 50), len(jo))

	r.set("runtime.allocs_per_round", float64(c.mallocs)/rounds, plain.rounds)
	r.set("runtime.alloc_mb_per_round", float64(c.allocBytes)/(1<<20)/rounds, plain.rounds)
	r.set("runtime.gc_pause_ms_per_round", float64(c.pauseNs)/1e6/rounds, plain.rounds)

	r.set("trace.stage_sum_pct", tr.stageSumPct(), len(traced.walls))
	base := percentile(traced.untracedWalls, 50)
	overhead := 0.0
	if base > 0 {
		overhead = 100 * (percentile(traced.walls, 50) - base) / base
	}
	r.set("trace.overhead_pct", overhead, traced.rounds)
}

// counters are process-wide totals read before and after a phase.
type counters struct {
	calls, failures, wire, wchar int64
	mallocs, allocBytes, pauseNs uint64
}

func readCounters(d *deployment) counters {
	var c counters
	for _, s := range d.fleet.Stats() {
		c.calls += s.Calls
		c.failures += s.Failures
	}
	c.wire = d.wireBytes.Load()
	c.wchar = readWchar()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	c.mallocs, c.allocBytes, c.pauseNs = m.Mallocs, m.TotalAlloc, m.PauseTotalNs
	return c
}

func (c counters) since(b counters) counters {
	out := counters{
		calls: c.calls - b.calls, failures: c.failures - b.failures, wire: c.wire - b.wire,
		mallocs: c.mallocs - b.mallocs, allocBytes: c.allocBytes - b.allocBytes, pauseNs: c.pauseNs - b.pauseNs,
		wchar: -1,
	}
	if c.wchar >= 0 && b.wchar >= 0 {
		out.wchar = c.wchar - b.wchar
	}
	return out
}

// readWchar returns the bytes this process has passed to write-family
// syscalls, or -1 when /proc/self/io is unavailable.
func readWchar() int64 {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return -1
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "wchar:"); ok {
			n, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
			if err != nil {
				return -1
			}
			return n
		}
	}
	return -1
}

// recoverCheck reopens every aggregator's journal of the closed
// deployment `times` times, timing each RecoverAggregatorNode, and checks
// that the recovered node reports lastRound fused and serves the fragment
// party 0 downloaded for it.
func (d *deployment) recoverCheck(lastRound, times int) ([]float64, error) {
	var durs []float64
	for i := 0; i < times; i++ {
		for j, cvm := range d.cvms {
			id := d.nodes[j].ID
			t0 := time.Now()
			node, info, err := core.RecoverAggregatorNode(id, d.w.Algorithm(), cvm, core.StateDirFor(d.stateDir, id), journal.Options{})
			durs = append(durs, ms(time.Since(t0)))
			if err != nil {
				return durs, err
			}
			err = checkRecovered(node, info, lastRound, d.partyIDs[0], d.lastMerged[j])
			if cerr := node.CloseJournal(); err == nil {
				err = cerr
			}
			if err != nil {
				return durs, fmt.Errorf("%s: %w", id, err)
			}
		}
	}
	return durs, nil
}

func checkRecovered(node *core.AggregatorNode, info *core.RecoveryInfo, round int, party string, want tensor.Vector) error {
	if info.LastAggregated != round || node.LastAggregatedRound() != round {
		return fmt.Errorf("recovered last fused round %d, want %d", info.LastAggregated, round)
	}
	got, err := node.Download(round, party)
	if err != nil {
		return err
	}
	if !bitEqual(got, want) {
		return errors.New("recovered fragment differs from the one served during the run")
	}
	return nil
}

func dirSize(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil {
			return nil // a vanished file counts as empty
		}
		if info, ierr := e.Info(); ierr == nil && e.Type().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n
}

// percentile interpolates linearly between the closest ranks; it returns
// 0 for no samples.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func msAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

func boolCount(b bool) int {
	if b {
		return 1
	}
	return 0
}
