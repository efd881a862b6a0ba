package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. All spans of a round share the
// trace ID "<workload>/<round>" (filled in when spans are written). The
// root is the round itself, its children are the four phases, and the
// per-party and per-aggregator calls hang below those.
type span struct {
	Trace  string `json:"trace"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 for the round root
	Name   string `json:"name"`
	Attr   string `json:"attr,omitempty"` // party or aggregator ID
	Start  int64  `json:"start_ns"`       // since the tracer started
	End    int64  `json:"end_ns"`
	round  int
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced loop pays only nil checks.
type tracer struct {
	workload string
	base     time.Time
	ids      atomic.Int64

	// round and kernelParent let the algorithm decorator, which sees only
	// the fusion call, attach its span to the fuse step that caused it.
	round        atomic.Int64
	kernelParent [numAggregators]atomic.Int64

	// Spans go to one of several buffers by ID, so the many concurrent
	// party goroutines rarely wait on each other to record.
	shards [16]struct {
		mu    sync.Mutex
		spans []span
	}

	mu      sync.Mutex
	uploads map[uploadKey]int64 // (round, party) -> the party's fleet.upload span
}

type uploadKey struct {
	round int
	party string
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, base: time.Now(), uploads: make(map[uploadKey]int64)}
}

// newID reserves a span ID, for a span whose children finish before it.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// add records a finished span; id 0 allocates a fresh ID.
func (t *tracer) add(round int, id, parent int64, name, attr string, start, end time.Time) {
	if t == nil {
		return
	}
	if id == 0 {
		id = t.newID()
	}
	s := span{
		ID: id, Parent: parent, Name: name, Attr: attr,
		Start: start.Sub(t.base).Nanoseconds(), End: end.Sub(t.base).Nanoseconds(),
		round: round,
	}
	sh := &t.shards[id%int64(len(t.shards))]
	sh.mu.Lock()
	sh.spans = append(sh.spans, s)
	sh.mu.Unlock()
}

// all returns every recorded span.
func (t *tracer) all() []span {
	var out []span
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		out = append(out, sh.spans...)
		sh.mu.Unlock()
	}
	return out
}

// beginRound resets the per-round parent links.
func (t *tracer) beginRound(round int) {
	if t == nil {
		return
	}
	t.round.Store(int64(round))
	t.mu.Lock()
	clear(t.uploads)
	t.mu.Unlock()
}

func (t *tracer) setUploadParent(round int, party string, id int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.uploads[uploadKey{round, party}] = id
	t.mu.Unlock()
}

func (t *tracer) uploadParent(round int, party string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.uploads[uploadKey{round, party}]
}

func (t *tracer) setKernelParent(agg int, id int64) {
	if t != nil {
		t.kernelParent[agg].Store(id)
	}
}

// durations returns every span duration with the given name, in ms.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.all() {
		if s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// stageSumPct is the four sequential phases' total time as a percentage
// of the round roots' total time. A root spans the whole loop iteration,
// including the correctness check after the round, so the result says how
// much of the loop the phases account for.
func (t *tracer) stageSumPct() float64 {
	var phases, roots time.Duration
	for _, s := range t.all() {
		switch s.Name {
		case "round":
			roots += s.dur()
		case "phase.roundid", "phase.upload", "phase.fuse", "phase.download":
			phases += s.dur()
		}
	}
	if roots == 0 {
		return 0
	}
	return 100 * float64(phases) / float64(roots)
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of it that its children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	spans := t.all()
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var total, curLo, curHi int64
	for i, v := range ivs {
		if i == 0 || v.lo > curHi {
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		} else if v.hi > curHi {
			curHi = v.hi
		}
	}
	total += curHi - curLo
	return time.Duration(total)
}

// write stores the spans as JSON lines in dir/<workload>-seed<seed>.jsonl
// and returns the path.
func (t *tracer) write(dir string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", t.workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.all() {
		s.Trace = fmt.Sprintf("%s/%d", t.workload, s.round)
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}
