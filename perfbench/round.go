package main

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"deta/internal/core"
	"deta/internal/tensor"
)

// roundTimeout bounds one round, so a broken deployment fails the run
// instead of hanging it.
const roundTimeout = 60 * time.Second

// roundResult is what one round reports back to the loop.
type roundResult struct {
	wall    time.Duration   // round-ID fetch through the last party's merge
	uploads []time.Duration // per successful UploadAll call
	models  []tensor.Vector // per party merged model, nil if the party failed
	errs    []error         // per party first error
	fatal   error           // the round could not fuse at all
}

// round drives one closed-loop DeTA round through the shipped API: fetch
// the round ID once; all parties Transform and UploadAll concurrently; once
// every upload is acknowledged the initiator fuses (local node first, then
// each follower over RPC); then all parties DownloadAll and
// InverseTransform concurrently. root is the round's span ID.
func (d *deployment) round(ctx context.Context, r int, in *inputs, tr *tracer, root int64) roundResult {
	ctx, cancel := context.WithTimeout(ctx, roundTimeout)
	defer cancel()
	P := len(d.partyIDs)
	res := roundResult{models: make([]tensor.Vector, P), errs: make([]error, P)}
	slot := r % poolSlots

	start := time.Now()
	roundID, err := d.ap.RoundID(ctx, r)
	tUpload := time.Now()
	tr.add(r, 0, root, "phase.roundid", "", start, tUpload)
	if err != nil {
		return res.fail(fmt.Errorf("round %d: fetching round ID: %w", r, err))
	}

	upPhase := tr.newID()
	frags := make([][]tensor.Vector, P)
	uploads := make([]time.Duration, P)
	var wg sync.WaitGroup
	for p := 0; p < P; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := d.partyIDs[p]
			t0 := time.Now()
			f, err := core.Transform(in.mapper, d.shufflers[p], in.updates[p][slot], roundID, d.w.Shuffle)
			t1 := time.Now()
			tr.add(r, 0, upPhase, "core.transform", id, t0, t1)
			if err != nil {
				res.errs[p] = err
				return
			}
			frags[p] = f
			span := tr.newID()
			tr.setUploadParent(r, id, span)
			err = d.fleet.UploadAll(ctx, r, id, f, in.weights[p])
			t2 := time.Now()
			tr.add(r, span, upPhase, "fleet.upload", id, t1, t2)
			uploads[p] = t2.Sub(t1)
			res.errs[p] = err
		}()
	}
	wg.Wait()
	tFuse := time.Now()
	tr.add(r, upPhase, root, "phase.upload", "", tUpload, tFuse)
	for p, e := range res.errs {
		if e == nil {
			res.uploads = append(res.uploads, uploads[p])
		}
	}

	fusePhase := tr.newID()
	err = d.fuse(ctx, r, tr, fusePhase)
	tDownload := time.Now()
	tr.add(r, fusePhase, root, "phase.fuse", "", tFuse, tDownload)
	if err != nil {
		return res.fail(err)
	}

	dlPhase := tr.newID()
	for p := 0; p < P; p++ {
		if res.errs[p] != nil {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := d.partyIDs[p]
			t0 := time.Now()
			merged, err := d.fleet.DownloadAll(ctx, r, id, nil)
			t1 := time.Now()
			tr.add(r, 0, dlPhase, "fleet.download", id, t0, t1)
			if err != nil {
				res.errs[p] = err
				return
			}
			model, err := core.InverseTransform(in.mapper, d.shufflers[p], merged, roundID, d.w.Shuffle)
			tr.add(r, 0, dlPhase, "core.inverse", id, t1, time.Now())
			if err != nil {
				res.errs[p] = err
				return
			}
			res.models[p] = model
			// As deta-party does, hand only the upload-side fragments back
			// to the tensor pool.
			for _, f := range frags[p] {
				tensor.PutVector(f)
			}
			if p == 0 {
				d.lastMerged = merged
			}
		}()
	}
	wg.Wait()
	end := time.Now()
	tr.add(r, dlPhase, root, "phase.download", "", tDownload, end)
	res.wall = end.Sub(start)
	return res
}

func (res roundResult) fail(err error) roundResult {
	res.fatal = err
	for p := range res.errs {
		if res.errs[p] == nil {
			res.errs[p] = err
		}
	}
	return res
}

// fuse is the initiator's step once every upload is acknowledged — the
// calls startInitiatorSync and syncFollower make, without their polling:
// RoundStatus and Aggregate on the local node, then CompleteStatus and
// Aggregate on each follower over the shared RPC link.
func (d *deployment) fuse(ctx context.Context, r int, tr *tracer, parent int64) error {
	local := d.nodes[0]
	if complete, abandoned := local.RoundStatus(r); !complete {
		return fmt.Errorf("round %d: initiator %s not complete (abandoned=%v) after every upload was acknowledged", r, local.ID, abandoned)
	}
	span := tr.newID()
	tr.setKernelParent(0, span)
	t0 := time.Now()
	err := local.Aggregate(r)
	tr.add(r, span, parent, "node.aggregate", local.ID, t0, time.Now())
	if err != nil {
		return fmt.Errorf("round %d: local aggregate: %w", r, err)
	}
	for j := 1; j < len(d.fleet.Clients); j++ {
		f := d.fleet.Clients[j]
		span := tr.newID()
		tr.setKernelParent(j, span)
		t0 := time.Now()
		err := syncFollower(ctx, f, r)
		tr.add(r, span, parent, "initiator.sync", f.ID, t0, time.Now())
		if err != nil {
			return fmt.Errorf("round %d: follower %s: %w", r, f.ID, err)
		}
	}
	return nil
}

func syncFollower(ctx context.Context, f *core.AggregatorClient, r int) error {
	done, abandoned, err := f.CompleteStatus(ctx, r)
	if err != nil {
		return err
	}
	if !done {
		return fmt.Errorf("not complete (abandoned=%v) after every upload was acknowledged", abandoned)
	}
	return f.Aggregate(ctx, r)
}

// numWindows is how many equal spans of time a measured phase is split
// into. The end-to-end timings are taken per window and reported as the
// median over windows, so a burst of load from outside the benchmark moves
// one window's figure rather than the run's.
const numWindows = 5

// window is one span of a measured phase: the rounds that started in it.
type window struct {
	walls   []float64 // ms per round
	uploads []float64 // ms per UploadAll call
	// first and last are the first round's start and the last round's
	// end, since the phase began.
	first, last time.Duration
	// Machine-wide CPU time stolen by the hypervisor and in total, in
	// clock ticks, at the same two points.
	stealFirst, stealLast uint64
	ticksFirst, ticksLast uint64
}

// stealPct is the share of the machine's CPU time that the hypervisor
// gave to other guests during the window.
func (w window) stealPct() float64 {
	if w.ticksLast <= w.ticksFirst {
		return 0
	}
	return 100 * float64(w.stealLast-w.stealFirst) / float64(w.ticksLast-w.ticksFirst)
}

// phaseStats accumulates one measured phase of rounds.
type phaseStats struct {
	rounds    int
	walls     []float64 // ms per round
	uploads   []float64 // ms per UploadAll call
	windows   [numWindows]window
	attempted int // party-rounds
	failed    int // party-rounds with an error or a wrong model
	firstErr  error
	// untracedWalls are the walls of the rounds a traced phase ran
	// untraced, interleaved with the traced ones so that both see the
	// same machine.
	untracedWalls []float64
}

// runRounds runs rounds from *next on until at least minRounds ran and
// dur elapsed, checking every party's merged model against the oracle
// after each round's timing has been taken. With a tracer, every second
// round runs untraced. It stops early on a round that could not fuse.
func (d *deployment) runRounds(in *inputs, tr *tracer, next *int, minRounds int, dur time.Duration) *phaseStats {
	st := &phaseStats{}
	ctx := context.Background()
	begin := time.Now()
	for st.rounds < minRounds || time.Since(begin) < dur {
		r := *next
		*next++
		rt := tr
		if st.rounds%2 == 1 {
			rt = nil
		}
		d.tracer.Store(rt)
		rt.beginRound(r)
		root := rt.newID()
		start := time.Now()
		steal, ticks := hostTicks()
		res := d.round(ctx, r, in, rt, root)
		st.rounds++
		win := &st.windows[windowOf(start.Sub(begin), dur)]
		if len(win.walls) == 0 {
			win.first = start.Sub(begin)
			win.stealFirst, win.ticksFirst = steal, ticks
		}
		win.last = time.Since(begin)
		win.stealLast, win.ticksLast = hostTicks()
		switch {
		case res.fatal != nil:
		case rt == nil && tr != nil:
			st.untracedWalls = append(st.untracedWalls, ms(res.wall))
		default:
			st.walls = append(st.walls, ms(res.wall))
			win.walls = append(win.walls, ms(res.wall))
		}
		for _, u := range res.uploads {
			st.uploads = append(st.uploads, ms(u))
			win.uploads = append(win.uploads, ms(u))
		}
		oracle := in.oracle[r%poolSlots]
		for p, m := range res.models {
			st.attempted++
			err := res.errs[p]
			if err == nil && !bitEqual(m, oracle) {
				err = fmt.Errorf("round %d: party %s merged model differs from the oracle", r, d.partyIDs[p])
			}
			if err != nil {
				st.failed++
				if st.firstErr == nil {
					st.firstErr = err
				}
			}
		}
		rt.add(r, root, 0, "round", "", start, time.Now())
		if res.fatal != nil {
			break
		}
	}
	return st
}

// windowOf is the window a round starting at offset into a phase of
// length dur falls in; rounds past dur (a phase held open for its minimum
// round count) go to the last window.
func windowOf(offset, dur time.Duration) int {
	if dur <= 0 {
		return 0
	}
	return min(int(offset*numWindows/dur), numWindows-1)
}

// hostTicks returns the machine's stolen and total CPU time in clock
// ticks from /proc/stat, or zeros when it is unreadable.
func hostTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already part of user.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}
