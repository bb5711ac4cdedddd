package main

import (
	"bufio"
	_ "embed"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"caft/internal/online"
	"caft/internal/platform"
	"caft/internal/sched"
	_ "caft/internal/sched/all" // populate the scheduler registry
	"caft/internal/sim"
	"caft/internal/timeline"
)

var policies = [2]timeline.Policy{timeline.Append, timeline.Insertion}

// timelineRounds is how often a traced pass times each timeline replay.
const timelineRounds = 5

// digestsTSV holds the (latency, replicas, messages) digest of every
// schedule-scale schedule, per pool seed, as recorded with the
// benchmark by `caftbench -record-digests`.
//
//go:embed digests.tsv
var digestsTSV string

type digestKey struct {
	seed   int64
	v      int
	policy string
	alg    string
}

// digestOf is the schedule fingerprint the digest gate compares.
func digestOf(s *sched.Schedule) string {
	return strconv.FormatFloat(s.ScheduledLatency(), 'g', -1, 64) + "\t" +
		strconv.Itoa(s.ReplicaCount()) + "\t" + strconv.Itoa(s.MessageCount())
}

func parseDigests(r io.Reader) (map[digestKey]string, error) {
	out := make(map[digestKey]string)
	sc := bufio.NewScanner(r)
	for line := 1; sc.Scan(); line++ {
		f := strings.Split(sc.Text(), "\t")
		if len(f) == 0 || strings.HasPrefix(f[0], "#") || f[0] == "seed" {
			continue
		}
		if len(f) != 7 {
			return nil, fmt.Errorf("digests line %d: %d fields, want 7", line, len(f))
		}
		seed, err1 := strconv.ParseInt(f[0], 10, 64)
		v, err2 := strconv.Atoi(f[1])
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("digests line %d: bad seed or size", line)
		}
		out[digestKey{seed, v, f[2], f[3]}] = strings.Join(f[4:], "\t")
	}
	return out, sc.Err()
}

// checkDigest compares a schedule's digest with the recorded one.
func checkDigest(want map[digestKey]string, k digestKey, got string) error {
	w, ok := want[k]
	switch {
	case !ok:
		return fmt.Errorf("no recorded digest for %+v", k)
	case w != got:
		return fmt.Errorf("%+v: digest %q, recorded %q", k, got, w)
	}
	return nil
}

// scaleInput is one graph size with its problem under each policy.
type scaleInput struct {
	v     int
	probs [len(policies)]*sched.Problem
}

// buildScale generates the doubling pair for a pool seed. With rec set
// it records a span for each build stage: gen.Spec.Build, platform
// generation and dag.Compile.
func buildScale(poolSeed int64, rec *recorder) ([len(scaleSizes)]scaleInput, error) {
	var in [len(scaleSizes)]scaleInput
	for i, v := range scaleSizes {
		t0 := time.Now()
		g, err := scaleSpec(poolSeed, v).Build()
		if err != nil {
			return in, err
		}
		t1 := time.Now()
		rng := rand.New(rand.NewSource(mix(poolSeed, 5) + int64(v)))
		plat := platform.NewRandom(rng, scaleM, 0.5, 1.0)
		exec := platform.GenExecForGranularity(rng, g, plat, 1, platform.DefaultHeterogeneity)
		t2 := time.Now()
		if _, err := g.Compile(); err != nil {
			return in, err
		}
		if rec != nil {
			rec.call("gen.build", 0, t0, t1)
			rec.call("platform.build", 0, t1, t2)
			rec.call("dag.compile", 0, t2, time.Now())
		}
		in[i].v = v
		for pi, pol := range policies {
			p := &sched.Problem{G: g, Plat: plat, Exec: exec, Model: sched.OnePort, Policy: pol, ProbeWidth: scaleProbe}
			if err := p.Validate(); err != nil {
				return in, err
			}
			in[i].probs[pi] = p
		}
	}
	return in, nil
}

// timelineTimes are one schedule's timeline replay measurements.
type timelineTimes struct {
	ops             int
	earliest, added int64 // ns over all ops
}

// replayTimelines re-adds every replica of s, per processor in Seq
// order, into a fresh timeline.Timeline under the schedule's policy and
// checks that EarliestSlot returns each reservation's own start. With
// rounds > 0 it also times that replay and an Add-only replay, rounds
// times each, and keeps the fastest of each so that a GC pause or a
// cold cache does not land in one of them only; their difference is the
// EarliestSlot time.
func replayTimelines(s *sched.Schedule, rounds int) (timelineTimes, error) {
	var tt timelineTimes
	m := s.P.Plat.M
	byProc := make([][]sched.Replica, m)
	for t := range s.Reps {
		for _, r := range s.Reps[t] {
			if r.Proc < 0 || r.Proc >= m {
				return tt, fmt.Errorf("replica (%d,%d) on processor %d of %d", r.Task, r.Copy, r.Proc, m)
			}
			byProc[r.Proc] = append(byProc[r.Proc], r)
		}
	}
	for _, rs := range byProc {
		sort.Slice(rs, func(a, b int) bool { return rs[a].Seq < rs[b].Seq })
		tt.ops += len(rs)
	}
	if err := replayChecked(s, byProc); err != nil {
		return tt, err
	}
	full, added := int64(math.MaxInt64), int64(math.MaxInt64)
	for k := 0; k < rounds; k++ {
		t0 := time.Now()
		replayChecked(s, byProc)
		t1 := time.Now()
		for p, rs := range byProc {
			var tl timeline.Timeline
			for _, r := range rs {
				tl.MustAdd(r.Start, s.P.Exec[r.Task][p], int32(r.Task))
			}
		}
		full, added = min(full, int64(t1.Sub(t0))), min(added, int64(time.Since(t1)))
	}
	if rounds > 0 {
		tt.earliest, tt.added = full-added, added
	}
	return tt, nil
}

// replayChecked is the gated replay of replayTimelines.
func replayChecked(s *sched.Schedule, byProc [][]sched.Replica) error {
	pol := s.P.Policy
	for p, rs := range byProc {
		var tl timeline.Timeline
		for _, r := range rs {
			dur := s.P.Exec[r.Task][p]
			if got := tl.EarliestSlot(r.Start, dur, pol); got != r.Start {
				return fmt.Errorf("processor %d, replica (%d,%d) seq %d: EarliestSlot = %v, want its start %v", p, r.Task, r.Copy, r.Seq, got, r.Start)
			}
			if err := tl.Add(r.Start, dur, int32(r.Task)); err != nil {
				return fmt.Errorf("processor %d, replica (%d,%d): %w", p, r.Task, r.Copy, err)
			}
		}
	}
	return nil
}

// scaleCall is one timed scheduler call.
type scaleCall struct {
	vi, pi, ai int
	ns         int64
	allocs     uint64
}

// scaleRun is one schedule-scale run.
type scaleRun struct {
	poolSeed int64
	in       [len(scaleSizes)]scaleInput
	digests  map[digestKey]string // nil when recording
	val      *sched.Validator
	rec      *recorder                    // traced runs: a span per timed call
	tl       [len(policies)]timelineTimes // traced passes: timeline replay figures

	gateValid, gateTimeline, gateDigest, gateParity gateCount
	record                                          io.Writer // -record-digests output
}

// pass schedules every (size, policy, algorithm) cell once, timing the
// scheduler call alone, then runs the gates on the result. A traced
// pass also records the scheduler call and the validation, timeline,
// replay and online layers as spans of one request per schedule.
func (r *scaleRun) pass(calls *[]scaleCall, traced bool) error {
	for vi, in := range r.in {
		for pi, p := range in.probs {
			for ai, alg := range scaleAlgs {
				d, ok := sched.Lookup(alg)
				if !ok {
					return fmt.Errorf("scheduler %q is not registered", alg)
				}
				eps := scaleEps
				if !d.Caps.AcceptsEps {
					eps = 0
				}
				rng := cellRNG(r.poolSeed, vi, pi, ai)
				var m0, m1 runtime.MemStats
				runtime.GC()
				if traced {
					runtime.ReadMemStats(&m0)
				}
				t0 := time.Now()
				s, err := d.New(p, eps, rng)
				t1 := time.Now()
				if err != nil {
					return fmt.Errorf("%s v=%d %s: %w", alg, in.v, p.Policy, err)
				}
				c := scaleCall{vi: vi, pi: pi, ai: ai, ns: int64(t1.Sub(t0))}
				req := int64(0) // 0: untraced
				if traced {
					runtime.ReadMemStats(&m1)
					c.allocs = m1.Mallocs - m0.Mallocs
					req = int64(len(*calls) + 1)
					r.rec.call("sched."+alg+"."+p.Policy.String(), req, t0, t1)
				}
				*calls = append(*calls, c)
				r.check(s, digestKey{r.poolSeed, in.v, p.Policy.String(), alg}, pi, req)
			}
		}
	}
	return nil
}

// cellRNG is the scheduler tie-break stream of one (size, policy,
// algorithm) cell, independent of how many passes ran before.
func cellRNG(poolSeed int64, vi, pi, ai int) *rand.Rand {
	return rand.New(rand.NewSource(mix(poolSeed, 6) + int64(vi*100+pi*10+ai)))
}

// check runs the schedule-scale gates on one schedule. On a traced pass
// (req > 0) it also records the gate and layer calls as spans of req.
func (r *scaleRun) check(s *sched.Schedule, k digestKey, pi int, req int64) {
	traced := req > 0
	t0 := time.Now()
	err := r.val.Validate(s)
	t1 := time.Now()
	if err != nil {
		r.gateValid.fail(fmt.Errorf("%+v: %w", k, err))
	} else {
		r.gateValid.pass()
	}
	rounds := 0
	if traced {
		rounds = timelineRounds
	}
	tt, err := replayTimelines(s, rounds)
	t2 := time.Now()
	if err != nil {
		r.gateTimeline.fail(fmt.Errorf("%+v: %w", k, err))
	} else {
		r.gateTimeline.pass()
	}
	if r.record != nil {
		fmt.Fprintf(r.record, "%d\t%d\t%s\t%s\t%s\n", k.seed, k.v, k.policy, k.alg, digestOf(s))
	} else if err := checkDigest(r.digests, k, digestOf(s)); err != nil {
		r.gateDigest.fail(err)
	} else {
		r.gateDigest.pass()
	}
	if !traced {
		return
	}
	r.rec.call("sched.validate", req, t0, t1)
	r.rec.call("timeline.replay", req, t1, t2)
	r.tl[pi].ops += tt.ops
	r.tl[pi].earliest += tt.earliest
	r.tl[pi].added += tt.added

	t3 := time.Now()
	rp, err := sim.NewReplayer(s)
	t4 := time.Now()
	var simLat float64
	if err == nil {
		simLat, err = rp.LowerBound()
	}
	t5 := time.Now()
	var onLat float64
	if err == nil {
		var e *online.Engine
		if e, err = online.NewEngine(s); err == nil {
			onLat, _, err = e.Makespan(nil, online.Options{})
		}
	}
	t6 := time.Now()
	r.rec.call("sim.replayer_build", req, t3, t4)
	r.rec.call("sim.replay", req, t4, t5)
	r.rec.call("online.replay", req, t5, t6)
	// An empty trace through the online engine reproduces the static
	// replay bit for bit.
	switch {
	case err != nil:
		r.gateParity.fail(fmt.Errorf("%+v: %w", k, err))
	case simLat != onLat:
		r.gateParity.fail(fmt.Errorf("%+v: online replay %v, sim replay %v", k, onLat, simLat))
	default:
		r.gateParity.pass()
	}
}

// runPasses repeats passes until d has elapsed, at least once.
func (r *scaleRun) runPasses(d time.Duration, traced bool) ([]scaleCall, int, error) {
	var calls []scaleCall
	start := time.Now()
	passes := 0
	for passes == 0 || time.Since(start) < d {
		if err := r.pass(&calls, traced); err != nil {
			return calls, passes, err
		}
		passes++
	}
	return calls, passes, nil
}

// recordDigests prints the digests.tsv body for pool seeds
// [0, scaleSeedPool).
func recordDigests(w io.Writer) error {
	fmt.Fprintf(w, "# schedule-scale digests of pool seeds [0, %d); regenerate with caftbench -record-digests\n", scaleSeedPool)
	fmt.Fprintln(w, "seed\tv\tpolicy\talg\tlatency\treplicas\tmessages")
	for seed := int64(0); seed < scaleSeedPool; seed++ {
		r := &scaleRun{poolSeed: seed, val: sched.NewValidator(), record: w}
		var err error
		if r.in, err = buildScale(seed, nil); err != nil {
			return err
		}
		var calls []scaleCall
		if err := r.pass(&calls, false); err != nil {
			return err
		}
		for _, g := range []gate{r.gateValid.result("valid"), r.gateTimeline.result("timeline")} {
			if g.err != nil {
				return g.err
			}
		}
	}
	return nil
}
