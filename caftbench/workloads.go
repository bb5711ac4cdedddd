package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"caft/internal/sched"
	"caft/internal/service"
)

// setupReps is how often a run sets up; setup_s is the median.
const setupReps = 5

// hotGCPercent is the GC target of the hot workloads. At Go's default of
// 100 their small live heap is collected so often that close to 1% of
// requests overlap a mark phase, and p99_ms sits on the edge between
// those requests and the rest, where a small change in GC timing moves it
// by a third from run to run. At 400 about 0.3% do. README.md gives the
// measurements.
const hotGCPercent = 400

// runServing runs serve-hot, cluster-hot or serve-cold. The untraced
// run measures the end-to-end rows; the traced run measures an untraced
// half (trace_overhead's base and the proc rows) and a traced half (the
// layer rows).
func runServing(o *options, cfg servingConfig) (*report, error) {
	rep := newReport(o.workload)
	if !cfg.cold {
		defer debug.SetGCPercent(debug.SetGCPercent(hotGCPercent))
		rep.note("note GC percent %d for this workload", hotGCPercent)
	}
	w := &servingRun{cfg: cfg, seed: o.seed, workDir: o.workDir, seconds: o.seconds}
	if o.trace {
		w.rec = newRecorder()
	}
	switch {
	case !cfg.cold:
		if err := w.pinReference(); err != nil {
			return nil, err
		}
		if !o.trace {
			// Only the traced replays use the warmed twin; drop it so
			// its cache does not count in the untraced RSS.
			w.shadow.Close()
			w.shadow = nil
			break
		}
		defer w.shadow.Close()
	case o.trace:
		dir, err := os.MkdirTemp(o.workDir, "shadow-")
		if err != nil {
			return nil, err
		}
		if w.shadow, err = service.New(service.Config{CacheMax: coldCache, DiskDir: dir}); err != nil {
			return nil, err
		}
		defer w.shadow.Close()
	}

	var setups []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			w.teardown()
			// Collect the torn-down set-up before the next one, so the
			// peak RSS depends less on when the GC happens to run.
			runtime.GC()
		}
		w.warmStats = phase{name: "warmup"}
		t0 := time.Now()
		err := w.setup()
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			if w.nodes != nil {
				w.teardown()
			}
			return nil, err
		}
	}
	rep.set("setup_s", median(setups), len(setups))
	rep.phases = append(rep.phases, w.warmStats)

	d := time.Duration(o.seconds) * time.Second
	n := coldPerS * o.seconds // serve-cold requests in the timed phases
	runtime.GC()
	rep.note("note peak RSS after set-up %.1f MB", peakRSSMB())
	if !o.trace {
		before := statsSum(w.nodes)
		cs, elapsed := w.phase(d, n, false)
		// Read before the benchmark's own bookkeeping (merging the
		// samples, rebuilding kept responses) can add to the peak.
		rss := peakRSSMB()
		after := statsSum(w.nodes)
		ph, lat := mergeStats("timed", cs)
		rep.phases = append(rep.phases, ph)
		w.teardown()
		rep.note("note hits=%d misses=%d forwards=%d", after.Hits-before.Hits, after.Misses-before.Misses, after.Forwards-before.Forwards)
		rep.set("rps", float64(ph.ok)/elapsed.Seconds(), ph.ok)
		rep.set("p50_ms", 1e3*quantile(lat, 0.50), len(lat))
		rep.set("p99_ms", 1e3*quantile(lat, 0.99), len(lat))
		if len(lat) < 1000 {
			rep.note("note only %d samples: p99_ms has fewer than 10 beyond it", len(lat))
		}
		rep.set("fail_ratio", float64(ph.failed)/float64(max(1, ph.attempted)), ph.attempted)
		if cfg.cold {
			if ph.attempted < n {
				rep.note("note serve-cold sent %d of %d requests before its %v cap", ph.attempted, n, coldCap*d)
			}
			w.verifyKept()
		}
		rep.set("max_rss_mb", rss, 1)
	} else {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		csA, elapsedA := w.phase(d/2, n/2, false)
		runtime.ReadMemStats(&m1)
		phA, latA := mergeStats("untraced", csA)
		before := statsSum(w.nodes)
		setTracing(w.nodes, true)
		csB, _ := w.phase(d/2, n-n/2, true)
		setTracing(w.nodes, false)
		after := statsSum(w.nodes)
		phB, latB := mergeStats("traced", csB)
		rep.phases = append(rep.phases, phA, phB)
		w.teardown()

		ok := float64(max(1, phA.ok))
		rep.set("proc.allocs_per_req", float64(m1.Mallocs-m0.Mallocs)/ok, phA.ok)
		rep.set("proc.bytes_per_req", float64(m1.TotalAlloc-m0.TotalAlloc)/ok, phA.ok)
		rep.set("trace_overhead", mean(latB)/mean(latA)-1, len(latB))
		rep.note("note untraced half: %.0f req/s, mean %.1f us", float64(phA.ok)/elapsedA.Seconds(), 1e6*mean(latA))
		servingCounters(rep, before, after, phB.ok)
		if err := servingLayers(rep, w.rec.snapshot(), cfg); err != nil {
			return nil, err
		}
		if cfg.cold {
			if err := diskBoot(rep, w.diskDir); err != nil {
				return nil, err
			}
		}
		if err := writeSpans(o.spanFile(), w.rec.snapshot()); err != nil {
			return nil, err
		}
		rep.set("max_rss_mb", peakRSSMB(), 1)
	}
	// Every serve-cold body is distinct and sent once, so a ledger there
	// could only pin, never trip; the rebuild gate checks those bytes.
	if !cfg.cold {
		lg := gate{name: "ledger", checks: rep.okCount()}
		if n := w.ledger.mismatches.Load(); n > 0 {
			lg.err = fmt.Errorf("%d responses differ from their problem's pinned bytes", n)
		}
		rep.gates = append(rep.gates, w.gateSetup.result("setup-identity"), lg)
	}
	if o.trace {
		rep.gates = append(rep.gates, w.gateReplay.result("replay"))
	}
	if cfg.cold {
		rep.gates = append(rep.gates, w.gateRebuild.result("rebuild"))
	}
	return rep, nil
}

// okCount sums the 200 responses of every phase.
func (r *report) okCount() int {
	n := 0
	for _, p := range r.phases {
		n += p.ok
	}
	return n
}

// servingCounters reports the Stats() deltas over the traced half.
func servingCounters(rep *report, before, after service.StatsSnapshot, requests int) {
	hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
	hitRatio := 0.0
	if hits+misses > 0 {
		hitRatio = float64(hits) / float64(hits+misses)
	}
	rep.set("service.hit_ratio", hitRatio, int(hits+misses))
	rep.set("service.misses", float64(misses), 1)
	rep.set("service.disk_hits", float64(after.DiskHits-before.DiskHits), 1)
	rep.set("service.shed", float64(after.Shed-before.Shed), 1)
	rep.set("service.forward_errors", float64(after.ForwardErrors-before.ForwardErrors), 1)
	rep.set("service.cache_entries", float64(after.CacheEntries), 1)
	rep.set("service.disk_entries", float64(after.DiskEntries), 1)
	if requests > 0 {
		rep.set("service.forward_ratio", float64(after.Forwards-before.Forwards)/float64(requests), requests)
	}
}

// diskBoot times service.New over the serve-cold disk directory: the
// boot scan a restarted node pays before serving.
func diskBoot(rep *report, dir string) error {
	t0 := time.Now()
	svc, err := service.New(service.Config{DiskDir: dir})
	dt := time.Since(t0)
	if err != nil {
		return err
	}
	entries := svc.Stats().DiskEntries
	svc.Close()
	rep.set("service.disk_boot_ms", 1e3*dt.Seconds(), 1)
	rep.note("note disk boot restored %d entries", entries)
	return nil
}

// runScale runs schedule-scale: library calls only, single-threaded.
func runScale(o *options) (*report, error) {
	rep := newReport(o.workload)
	r := &scaleRun{poolSeed: scalePoolSeed(o.seed), val: sched.NewValidator()}
	if o.trace {
		r.rec = newRecorder()
	}
	var err error
	if r.digests, err = parseDigests(strings.NewReader(digestsTSV)); err != nil {
		return nil, err
	}
	var setups []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		r.in, err = buildScale(r.poolSeed, r.rec)
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			return nil, err
		}
	}
	rep.set("setup_s", median(setups), len(setups))
	rep.note("note pool seed %d of %d", r.poolSeed, scaleSeedPool)

	d := time.Duration(o.seconds) * time.Second
	if !o.trace {
		calls, passes, err := r.runPasses(d, false)
		rep.phases = append(rep.phases, callPhase("timed", calls, err))
		if err != nil {
			return nil, err
		}
		cm := cellMedians(calls)
		var ms []float64
		total := 0.0
		for _, t := range cm.flat() {
			ms = append(ms, t/1e6)
			total += t
		}
		sort.Float64s(ms)
		rep.set("rps", float64(len(ms))/(total/1e9), len(calls))
		rep.set("p50_ms", quantile(ms, 0.50), len(calls))
		rep.set("p99_ms", quantile(ms, 0.99), len(calls))
		rep.set("fail_ratio", 0, len(calls))
		rep.note("note each of the %d cells is the median of %d passes; p99_ms is the slowest cell", len(ms), passes)
		scaleThroughput(rep, cm, len(calls))
	} else {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		callsA, passesA, err := r.runPasses(d/2, false)
		runtime.ReadMemStats(&m1)
		rep.phases = append(rep.phases, callPhase("untraced", callsA, err))
		if err != nil {
			return nil, err
		}
		callsB, passesB, err := r.runPasses(d/2, true)
		rep.phases = append(rep.phases, callPhase("traced", callsB, err))
		if err != nil {
			return nil, err
		}
		n := float64(len(callsA))
		rep.set("proc.allocs_per_req", float64(m1.Mallocs-m0.Mallocs)/n, len(callsA))
		rep.set("proc.bytes_per_req", float64(m1.TotalAlloc-m0.TotalAlloc)/n, len(callsA))
		cmA, cmB := cellMedians(callsA), cellMedians(callsB)
		rep.set("trace_overhead", cmB.sum()/cmA.sum()-1, len(callsB))
		rep.note("note untraced half: %d passes, traced half: %d passes", passesA, passesB)
		scaleThroughput(rep, cmB, len(callsB))
		spans := r.rec.snapshot()
		scaleLayerRows(rep, cmB, callsB, spans, &r.tl)
		if err := writeSpans(o.spanFile(), spans); err != nil {
			return nil, err
		}
	}
	rep.set("max_rss_mb", peakRSSMB(), 1)
	rep.gates = append(rep.gates,
		r.gateValid.result("validator"),
		r.gateTimeline.result("timeline-replay"),
		r.gateDigest.result("digest"))
	if o.trace {
		rep.gates = append(rep.gates, r.gateParity.result("online-parity"))
	}
	return rep, nil
}

func callPhase(name string, calls []scaleCall, err error) phase {
	p := phase{name: name, attempted: len(calls), ok: len(calls)}
	if err != nil {
		p.attempted++
		p.failed++
	}
	return p
}

// cells holds one figure per (size, policy, algorithm) cell.
type cells [len(scaleSizes)][len(policies)][len(scaleAlgs)]float64

// cellMedians is each cell's median scheduler time in ns over the
// passes: a burst of outside load in one pass does not move it.
func cellMedians(calls []scaleCall) cells {
	var per [len(scaleSizes)][len(policies)][len(scaleAlgs)][]float64
	for _, c := range calls {
		per[c.vi][c.pi][c.ai] = append(per[c.vi][c.pi][c.ai], float64(c.ns))
	}
	var cm cells
	for vi := range per {
		for pi := range per[vi] {
			for ai := range per[vi][pi] {
				cm[vi][pi][ai] = median(per[vi][pi][ai])
			}
		}
	}
	return cm
}

func (c *cells) flat() []float64 {
	var out []float64
	for vi := range c {
		for pi := range c[vi] {
			out = append(out, c[vi][pi][:]...)
		}
	}
	return out
}

func (c *cells) sum() float64 {
	t := 0.0
	for _, x := range c.flat() {
		t += x
	}
	return t
}

// scaleThroughput reports tasks per scheduler-second and the growth
// ratio per policy, over all algorithms and both sizes.
func scaleThroughput(rep *report, cm cells, calls int) {
	for pi, pol := range policies {
		var ns [len(scaleSizes)]float64
		tasks := 0
		for vi, v := range scaleSizes {
			for ai := range scaleAlgs {
				ns[vi] += cm[vi][pi][ai]
				tasks += v
			}
		}
		rep.set("sched."+pol.String()+"_tasks_per_s", float64(tasks)/((ns[0]+ns[1])/1e9), calls/len(policies))
		rep.set("sched."+pol.String()+"_growth", ns[1]/ns[0], calls/len(policies))
	}
}

// scaleLayerRows reports the traced schedule-scale rows: the set-up
// stages per set-up, scheduler time per pass by algorithm and policy
// (from the cell medians), and the per-schedule layer times from the
// spans.
func scaleLayerRows(rep *report, cm cells, calls []scaleCall, spans []span, tl *[len(policies)]timelineTimes) {
	durs := make(map[string]acc)
	for i := range spans {
		a := durs[spans[i].name]
		a.add(spans[i].dur())
		durs[spans[i].name] = a
	}
	row := func(name, span string, per float64) {
		a := durs[span]
		rep.set(name, float64(a.sum)/1e6/per, a.n)
	}
	for _, stage := range []string{"gen.build", "platform.build", "dag.compile"} {
		row(stage+"_ms", stage, setupReps)
	}
	var allocs uint64
	tasks := 0
	for _, c := range calls {
		allocs += c.allocs
		tasks += scaleSizes[c.vi]
	}
	rep.set("sched.pass_ms", cm.sum()/1e6, len(calls))
	for ai, alg := range scaleAlgs {
		for pi, pol := range policies {
			rep.set("sched."+alg+"."+pol.String()+"_ms", (cm[0][pi][ai]+cm[1][pi][ai])/1e6, len(calls)/len(cm.flat())*len(scaleSizes))
		}
	}
	rep.set("sched.allocs_per_task", float64(allocs)/float64(tasks), len(calls))
	schedules := float64(len(calls))
	for _, layer := range []string{"sched.validate", "sim.replayer_build", "sim.replay", "online.replay"} {
		row(layer+"_ms", layer, schedules)
	}
	ops := 0
	for pi, pol := range policies {
		t := tl[pi]
		ops += t.ops
		rep.set("timeline.earliest_slot_ns."+pol.String(), float64(t.earliest)/float64(t.ops), t.ops)
		rep.set("timeline.add_ns."+pol.String(), float64(t.added)/float64(t.ops), t.ops)
	}
	rep.set("timeline.ops", float64(ops)*float64(len(cm.flat()))/schedules, len(calls))
	rep.note("breakdown sched.pass_ms %.3f = sum of the six sched.<alg>.<policy>_ms rows", cm.sum()/1e6)
}
