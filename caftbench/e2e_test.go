package main

import (
	"os"
	"testing"
)

// TestTracedServingRuns drives one short traced run of the cluster and
// the cold workload end to end and checks that every gate passes and
// every per-layer row is reported.
func TestTracedServingRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("boots in-process caftd nodes")
	}
	for _, tc := range []struct {
		name string
		cfg  servingConfig
	}{{"cluster-hot", servingConfig{nodes: 3}}, {"serve-cold", servingConfig{nodes: 1, cold: true}}} {
		t.Run(tc.name, func(t *testing.T) {
			o := &options{workload: tc.name, seed: 2, seconds: 1, trace: true, workDir: t.TempDir(), traceDir: t.TempDir()}
			rep, err := runServing(o, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, g := range rep.gates {
				if g.err != nil || g.checks == 0 {
					t.Errorf("gate %s: %d checks, err %v", g.name, g.checks, g.err)
				}
			}
			res, err := rep.result(true)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Metrics) != len(perLayer) || !res.Correct || res.Attempted == 0 || res.Failed != 0 {
				t.Fatalf("result: %+v", res)
			}
			for _, name := range []string{"client.mean_us", "loopback.rtt_us", "service.handler_us", "service.do_us"} {
				if rep.rows[name].value <= 0 {
					t.Errorf("%s = %v, want > 0", name, rep.rows[name].value)
				}
			}
		})
	}
}

// TestTracedScaleRun drives one traced schedule-scale run (one pass per
// half) and checks its gates, its layer rows and its span dump.
func TestTracedScaleRun(t *testing.T) {
	if testing.Short() {
		t.Skip("schedules graphs of 6400 and 12800 tasks")
	}
	o := &options{workload: "schedule-scale", seed: 1, seconds: 1, trace: true, traceDir: t.TempDir()}
	rep, err := runScale(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range rep.gates {
		if g.err != nil || g.checks == 0 {
			t.Errorf("gate %s: %d checks, err %v", g.name, g.checks, g.err)
		}
	}
	if _, err := rep.result(true); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"gen.build_ms", "dag.compile_ms", "sched.heft.append_ms", "sched.validate_ms",
		"sim.replay_ms", "online.replay_ms", "timeline.add_ns.insertion", "timeline.ops"} {
		if rep.rows[name].value <= 0 || rep.rows[name].n == 0 {
			t.Errorf("%s = %v (n=%d), want > 0", name, rep.rows[name].value, rep.rows[name].n)
		}
	}
	if _, err := os.Stat(o.spanFile()); err != nil {
		t.Fatal(err)
	}
}
