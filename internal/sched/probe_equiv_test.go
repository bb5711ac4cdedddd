package sched_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"caft/internal/core"
	"caft/internal/dag"
	"caft/internal/gen"
	"caft/internal/platform"
	"caft/internal/sched"
	"caft/internal/sched/ftbar"
	"caft/internal/sched/ftsa"
	"caft/internal/sched/heft"
	"caft/internal/timeline"
	"caft/internal/topology"
)

// equivSchedulers are the schedulers whose schedules the differential
// pins below walk, prefix by prefix.
var equivSchedulers = []struct {
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

// forEachEquivSchedule runs every equivSchedulers entry under both
// policies on three seeded 20-30-task problems over 6 processors, with
// the network net returns for the seed's platform (nil: the clique),
// and hands each schedule to check.
func forEachEquivSchedule(t *testing.T, net func(plat *platform.Platform) sched.Network, check func(name string, full *sched.Schedule)) {
	t.Helper()
	for _, pol := range []timeline.Policy{timeline.Append, timeline.Insertion} {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			params := gen.RandomParams{MinTasks: 20, MaxTasks: 30, MinDegree: 1, MaxDegree: 3, MinVolume: 50, MaxVolume: 150}
			g := gen.RandomLayered(rng, params)
			plat := platform.NewRandom(rng, 6, 0.5, 1.0)
			exec := platform.GenExecForGranularity(rng, g, plat, 1.0, platform.DefaultHeterogeneity)
			for _, s := range equivSchedulers {
				p := &sched.Problem{G: g, Plat: plat, Exec: exec, Model: sched.OnePort, Policy: pol}
				if net != nil {
					p.Net = net(plat)
				}
				full, err := s.run(p)
				if err != nil {
					t.Fatalf("%s/%v/seed%d: %v", s.name, pol, seed, err)
				}
				check(fmt.Sprintf("%s/%v/seed%d", s.name, pol, seed), full)
			}
		}
	}
}

// prefixState rebuilds the prefix of full holding every record with
// Seq <= seq.
func prefixState(t *testing.T, full *sched.Schedule, seq int32) *sched.State {
	t.Helper()
	prefix := &sched.Schedule{P: full.P, Reps: make([][]sched.Replica, len(full.Reps))}
	for tk, reps := range full.Reps {
		for _, r := range reps {
			if r.Seq <= seq {
				prefix.Reps[tk] = append(prefix.Reps[tk], r)
			}
		}
	}
	for _, c := range full.Comms {
		if c.Seq <= seq {
			prefix.Comms = append(prefix.Comms, c)
		}
	}
	st, err := sched.StateOf(prefix)
	if err != nil {
		t.Fatalf("StateOf(prefix to seq %d): %v", seq, err)
	}
	return st
}

// TestSpeculativeProbeEquivalence pins ProbeReplica against the
// deep-clone oracle on states real schedulers build. For every
// scheduler, both reservation policies and three seeds, it rebuilds the
// schedule's prefix ending at each committed replica (every record with
// a Seq up to the replica's) with StateOf, then probes the next copy of
// that replica's task on every processor, with FullSources both as is
// and with AllSend set. Each probe must return what PlaceReplica
// returns on a clone, error parity included, and leave the state's
// fingerprint unchanged.
func TestSpeculativeProbeEquivalence(t *testing.T) {
	forEachEquivSchedule(t, nil, func(name string, full *sched.Schedule) {
		probes := 0
		for _, reps := range full.Reps {
			for _, r := range reps {
				probes += checkPrefixProbes(t, full, r.Seq, r.Task)
			}
		}
		if probes == 0 {
			t.Fatalf("%s: no successful probe to compare", name)
		}
	})
}

// TestCommonSlotMatchesReference pins the slot search behind every
// transfer — commonSlot's cursor-resumed fixpoint, which on the clique
// skips the link timelines — against CommRef, the cursor-free fixpoint
// over send port, receive port and the booked link. On every StateOf
// prefix of the schedules TestSpeculativeProbeEquivalence walks, and
// on the same problems over a ring (several links per route), it
// compares ProbeComm for every processor pair at ready times spread
// over the prefix — every finish time on the source, 0 and fractions
// of the prefix's makespan — with and without a rescheduling floor.
func TestCommonSlotMatchesReference(t *testing.T) {
	ring := func(plat *platform.Platform) sched.Network {
		g, err := topology.Ring(plat.M, 1)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	for _, net := range []func(*platform.Platform) sched.Network{nil, ring} {
		forEachEquivSchedule(t, net, func(name string, full *sched.Schedule) {
			for _, reps := range full.Reps {
				for _, r := range reps {
					checkPrefixComms(t, name, prefixState(t, full, r.Seq))
				}
			}
		})
	}
}

// checkPrefixComms compares ProbeComm against the reference on st.
func checkPrefixComms(t *testing.T, name string, st *sched.State) {
	t.Helper()
	ref := sched.NewCommRef(st)
	m := st.P.Plat.M
	span := 0.0
	finishes := make([][]float64, m)
	for _, reps := range st.Reps {
		for _, r := range reps {
			finishes[r.Proc] = append(finishes[r.Proc], r.Finish)
			span = math.Max(span, r.Finish)
		}
	}
	for _, floor := range []float64{0, span / 2} {
		st.SetFloor(floor)
		for src := 0; src < m; src++ {
			readies := append([]float64{0, span / 3, span * 2 / 3, span}, finishes[src]...)
			for dst := 0; dst < m; dst++ {
				for _, ready := range readies {
					for _, vol := range []float64{0, 70, 140} {
						s, f := st.ProbeComm(src, dst, ready, vol)
						ws, wf := ref.ProbeComm(src, dst, ready, vol)
						if s != ws || f != wf {
							t.Fatalf("%s: ProbeComm(%d, %d, %v, %v) floor %v = (%v, %v), reference (%v, %v)",
								name, src, dst, ready, vol, floor, s, f, ws, wf)
						}
					}
				}
			}
		}
	}
	st.SetFloor(0)
}

// checkPrefixProbes rebuilds the prefix of full holding every record
// with Seq <= seq and checks every probe of the next copy of task on it
// against the clone oracle. It returns the number of probes that
// succeeded.
func checkPrefixProbes(t *testing.T, full *sched.Schedule, seq int32, task dag.TaskID) int {
	t.Helper()
	st := prefixState(t, full, seq)
	ok := 0
	next := len(st.Reps[task])
	for _, allSend := range []bool{false, true} {
		sources := st.FullSources(task)
		for i := range sources {
			sources[i].AllSend = allSend
		}
		for proc := 0; proc < full.P.Plat.M; proc++ {
			before := sched.Fingerprint(st)
			rep, err := st.ProbeReplica(task, next, proc, sources)
			if !reflect.DeepEqual(before, sched.Fingerprint(st)) {
				t.Fatalf("seq %d: probe of task %d on P%d (allSend %v) mutated the state", seq, task, proc, allSend)
			}
			want, wantErr := st.Clone().PlaceReplica(task, next, proc, sources)
			if (err != nil) != (wantErr != nil) || rep != want {
				t.Fatalf("seq %d: probe of task %d on P%d (allSend %v) = (%+v, %v), clone oracle (%+v, %v)",
					seq, task, proc, allSend, rep, err, want, wantErr)
			}
			if err == nil {
				ok++
			}
		}
	}
	return ok
}
