package caft

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"caft/internal/core"
	"caft/internal/gen"
	"caft/internal/online"
	"caft/internal/platform"
	"caft/internal/sched"
	"caft/internal/sched/ftbar"
	"caft/internal/sched/ftsa"
	"caft/internal/sched/heft"
	"caft/internal/sim"
	"caft/internal/timeline"
)

// TestOnlineStaticEquivalence is the differential pin of the online
// event-driven engine: replaying any schedule with an EMPTY failure
// trace must reproduce the static sim.Replayer no-crash replay bit for
// bit — same liveness, same start and finish for every replica and
// communication — for every scheduler under both reservation policies,
// with and without the reactive re-mapper armed. The two engines share
// no timing code: sim sweeps a least fixpoint over scratch tables, the
// online engine discharges the identical constraint system through an
// event queue, so agreement here pins the event semantics (DESIGN.md
// S7) to the established replay semantics.
//
// The second input is a crash set at τ=0: for every set {a, b} of one
// or two processors, crashed from the start with the re-mapper off,
// the online engine must agree with sim.Replay under Options{Crashed}
// on liveness, lost tasks and error parity, and on the start and
// finish of every live record.
func TestOnlineStaticEquivalence(t *testing.T) {
	schedulers := []struct {
		name string
		run  func(p *sched.Problem) (*sched.Schedule, error)
	}{
		{"heft", func(p *sched.Problem) (*sched.Schedule, error) {
			return heft.Schedule(p, rand.New(rand.NewSource(7)))
		}},
		{"ftsa", func(p *sched.Problem) (*sched.Schedule, error) {
			return ftsa.Schedule(p, 2, rand.New(rand.NewSource(7)))
		}},
		{"ftbar", func(p *sched.Problem) (*sched.Schedule, error) {
			return ftbar.Schedule(p, 2, rand.New(rand.NewSource(7)))
		}},
		{"caft", func(p *sched.Problem) (*sched.Schedule, error) {
			return core.Schedule(p, 2, rand.New(rand.NewSource(7)))
		}},
		{"caft-batch", func(p *sched.Problem) (*sched.Schedule, error) {
			return core.ScheduleBatch(p, 1, 4, rand.New(rand.NewSource(7)))
		}},
	}
	for _, pol := range []timeline.Policy{timeline.Append, timeline.Insertion} {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			params := gen.RandomParams{MinTasks: 30, MaxTasks: 40, MinDegree: 1, MaxDegree: 3, MinVolume: 50, MaxVolume: 150}
			g := gen.RandomLayered(rng, params)
			plat := platform.NewRandom(rng, 6, 0.5, 1.0)
			exec := platform.GenExecForGranularity(rng, g, plat, 1.0, platform.DefaultHeterogeneity)
			for _, s := range schedulers {
				p := sched.Problem{G: g, Plat: plat, Exec: exec, Model: sched.OnePort, Policy: pol}
				schedule, err := s.run(&p)
				if err != nil {
					t.Fatalf("%s/%v/seed%d: %v", s.name, pol, seed, err)
				}
				want, err := sim.Replay(schedule, sim.Options{})
				if err != nil {
					t.Fatalf("%s/%v/seed%d static replay: %v", s.name, pol, seed, err)
				}
				eng, err := online.NewEngine(schedule)
				if err != nil {
					t.Fatalf("%s/%v/seed%d engine: %v", s.name, pol, seed, err)
				}
				for _, opt := range []online.Options{{}, {Reschedule: true}} {
					got, err := eng.Run(nil, opt)
					if err != nil {
						t.Fatalf("%s/%v/seed%d online (reschedule=%v): %v", s.name, pol, seed, opt.Reschedule, err)
					}
					if len(want.TasksLost) != 0 {
						t.Fatalf("%s/%v/seed%d: static replay lost %v without failures", s.name, pol, seed, want.TasksLost)
					}
					compareOnlineToStatic(t, s.name, got, want)
				}
				for a := 0; a < plat.M; a++ {
					for b := a; b < plat.M; b++ {
						label := fmt.Sprintf("%s/%v/seed%d/crash{%d,%d}", s.name, pol, seed, a, b)
						want, wantErr := sim.Replay(schedule, sim.Options{Crashed: map[int]bool{a: true, b: true}})
						got, gotErr := eng.Run(map[int]float64{a: 0, b: 0}, online.Options{})
						if (gotErr != nil) != (wantErr != nil) {
							t.Fatalf("%s: online error %v, static error %v", label, gotErr, wantErr)
						}
						if gotErr == nil {
							compareOnlineToStatic(t, label, got, want)
						}
					}
				}
			}
		}
	}
}

// compareOnlineToStatic asserts an online result (re-mapper off, or no
// failures) matches a static replay of the same crash set: the same
// lost tasks, the same liveness of every record, and bit-identical
// start and finish times of the live ones.
func compareOnlineToStatic(t *testing.T, label string, got *online.Result, want *sim.Result) {
	t.Helper()
	if !reflect.DeepEqual(got.TasksLost, want.TasksLost) {
		t.Fatalf("%s: lost tasks: online %v, static %v", label, got.TasksLost, want.TasksLost)
	}
	if got.Rescheduled != 0 {
		t.Fatalf("%s: %d reactive placements", label, got.Rescheduled)
	}
	if len(got.Reps) != len(want.Reps) || len(got.Comms) != len(want.Comms) {
		t.Fatalf("%s: shape mismatch", label)
	}
	for task := range want.Reps {
		if len(got.Reps[task]) != len(want.Reps[task]) {
			t.Fatalf("%s: task %d replica count %d vs %d", label, task, len(got.Reps[task]), len(want.Reps[task]))
		}
		for i, w := range want.Reps[task] {
			g := got.Reps[task][i]
			if g.Rep != w.Rep || g.Alive != w.Alive || (w.Alive && (g.Start != w.Start || g.Finish != w.Finish)) {
				t.Fatalf("%s: replica (%d,%d): online {alive %v [%v,%v)}, static {alive %v [%v,%v)}",
					label, task, w.Rep.Copy, g.Alive, g.Start, g.Finish, w.Alive, w.Start, w.Finish)
			}
		}
	}
	for i, w := range want.Comms {
		g := got.Comms[i]
		if g.Comm != w.Comm || g.Alive != w.Alive || (w.Alive && (g.Start != w.Start || g.Finish != w.Finish)) {
			t.Fatalf("%s: comm %d: online {alive %v [%v,%v)}, static {alive %v [%v,%v)}",
				label, i, g.Alive, g.Start, g.Finish, w.Alive, w.Start, w.Finish)
		}
	}
}
