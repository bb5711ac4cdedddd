package sched

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"caft/internal/dag"
	"caft/internal/gen"
	"caft/internal/platform"
	"caft/internal/timeline"
)

// randomProblem builds a small random instance under the given policy.
func randomProblem(rng *rand.Rand, m int, pol timeline.Policy) *Problem {
	params := gen.RandomParams{MinTasks: 15, MaxTasks: 25, MinDegree: 1, MaxDegree: 3, MinVolume: 50, MaxVolume: 150}
	g := gen.RandomLayered(rng, params)
	plat := platform.NewRandom(rng, m, 0.5, 1.0)
	exec := platform.GenExecForGranularity(rng, g, plat, 1.0, platform.DefaultHeterogeneity)
	return &Problem{G: g, Plat: plat, Exec: exec, Model: OnePort, Policy: pol}
}

// growState schedules every task FTSA-style (eps+1 replicas on the
// processors with the earliest probed finish), returning the state.
// Task IDs of generated graphs are topologically ordered, so a plain
// sweep respects precedence.
func growState(t *testing.T, st *State, eps int, probe func(tid dag.TaskID, sources []SourceSet)) {
	t.Helper()
	m := st.P.Plat.M
	for task := 0; task < st.P.G.NumTasks(); task++ {
		tid := dag.TaskID(task)
		sources := st.FullSources(tid)
		if probe != nil {
			probe(tid, sources)
		}
		type cand struct {
			proc   int
			finish float64
		}
		var cands []cand
		for proc := 0; proc < m; proc++ {
			rep, err := st.ProbeReplica(tid, 0, proc, sources)
			if err != nil {
				t.Fatalf("probe task %d on P%d: %v", task, proc, err)
			}
			cands = append(cands, cand{proc, rep.Finish})
		}
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].finish != cands[j].finish {
				return cands[i].finish < cands[j].finish
			}
			return cands[i].proc < cands[j].proc
		})
		for k := 0; k <= eps; k++ {
			if _, err := st.PlaceReplica(tid, k, cands[k].proc, sources); err != nil {
				t.Fatalf("place task %d copy %d: %v", task, k, err)
			}
		}
	}
}

// Property: under both policies, a probe returns exactly what the same
// placement on a deep clone returns, and leaves no trace on the state —
// intervals, gap indexes, ready times, records or sequence numbers. The
// same holds for FTBAR's two-step what-if: Speculate over duplicating a
// predecessor onto the processor and then placing the replica.
func TestQuickProbeMatchesCloneReference(t *testing.T) {
	f := func(seed int64) bool {
		ok := true
		for _, pol := range []timeline.Policy{timeline.Append, timeline.Insertion} {
			rng := rand.New(rand.NewSource(seed))
			p := randomProblem(rng, 4, pol)
			st := NewState(p)
			growState(t, st, 1, func(tid dag.TaskID, sources []SourceSet) {
				before := Fingerprint(st)
				for proc := 0; proc < p.Plat.M; proc++ {
					rep, err := st.ProbeReplica(tid, 0, proc, sources)
					if !reflect.DeepEqual(before, Fingerprint(st)) {
						t.Logf("pol %v: probe of task %d on P%d mutated the state", pol, tid, proc)
						ok = false
						return
					}
					refRep, refErr := st.Clone().PlaceReplica(tid, 0, proc, sources)
					if (err != nil) != (refErr != nil) || rep != refRep {
						t.Logf("pol %v: probe of task %d on P%d = (%+v, %v), clone reference (%+v, %v)",
							pol, tid, proc, rep, err, refRep, refErr)
						ok = false
						return
					}
					if !speculateMatchesClone(t, st, tid, proc) || !reflect.DeepEqual(before, Fingerprint(st)) {
						t.Logf("pol %v: duplicate-then-place what-if of task %d on P%d diverged or left residue", pol, tid, proc)
						ok = false
						return
					}
				}
				for i := range st.tls {
					if err := st.tls[i].Validate(); err != nil {
						t.Logf("pol %v: timeline %d after probes: %v", pol, i, err)
						ok = false
						return
					}
				}
			})
			if !ok {
				return false
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// speculateMatchesClone runs FTBAR's Minimize-Start-Time what-if —
// duplicate the first predecessor of tid without a replica on proc
// onto proc, then place tid there — inside Speculate and on a clone,
// and reports whether both give the same replicas and error parity.
func speculateMatchesClone(t *testing.T, st *State, tid dag.TaskID, proc int) bool {
	t.Helper()
	pred := dag.TaskID(-1)
	for _, e := range st.P.G.Pred(tid) {
		if !st.ProcsOf(e.From)[proc] {
			pred = e.From
			break
		}
	}
	if pred < 0 {
		return true
	}
	twoSteps := func(s *State) (dup, rep Replica, err error) {
		if dup, err = s.PlaceReplica(pred, len(s.Reps[pred]), proc, s.FullSources(pred)); err != nil {
			return
		}
		rep, err = s.PlaceReplica(tid, 0, proc, s.FullSources(tid))
		return
	}
	var dup, rep Replica
	err := st.Speculate(func() (err error) {
		dup, rep, err = twoSteps(st)
		return err
	})
	refDup, refRep, refErr := twoSteps(st.Clone())
	if (err != nil) != (refErr != nil) || dup != refDup || rep != refRep {
		t.Logf("speculated (%+v, %+v, %v), clone reference (%+v, %+v, %v)", dup, rep, err, refDup, refRep, refErr)
		return false
	}
	return true
}

// Speculate must roll back multi-step placements exactly, on success,
// on error, and when nested.
func TestSpeculateRollsBackExactly(t *testing.T) {
	for _, pol := range []timeline.Policy{timeline.Append, timeline.Insertion} {
		rng := rand.New(rand.NewSource(7))
		p := randomProblem(rng, 4, pol)
		st := NewState(p)
		growState(t, st, 1, nil)
		before := Fingerprint(st)

		// Two dependent placements: an extra replica of an entry task,
		// then an extra replica of one of its successors fed by it. Find
		// a task with a free processor.
		var tid dag.TaskID = 2
		free := -1
		hosting := st.ProcsOf(tid)
		for proc, h := range hosting {
			if !h {
				free = proc
				break
			}
		}
		if free < 0 {
			t.Fatalf("pol %v: no free processor for task %d", pol, tid)
		}
		err := st.Speculate(func() error {
			rep, err := st.PlaceReplica(tid, len(st.Reps[tid]), free, st.FullSources(tid))
			if err != nil {
				return err
			}
			if got := len(st.Reps[tid]); got < 3 {
				t.Errorf("pol %v: speculative replica not visible inside Speculate (len %d)", pol, got)
			}
			// Nested speculation sees and then loses its own placements.
			inner := st.Speculate(func() error {
				_, err := st.PlaceReplica(rep.Task, len(st.Reps[rep.Task]), (free+1)%p.Plat.M, st.FullSources(rep.Task))
				return err
			})
			// The inner placement targets a processor that may already
			// host the task; either way the outer state must be intact.
			_ = inner
			return nil
		})
		if err != nil {
			t.Fatalf("pol %v: %v", pol, err)
		}
		if !reflect.DeepEqual(before, Fingerprint(st)) {
			t.Fatalf("pol %v: Speculate left residue", pol)
		}
		// Error path: a failing placement inside Speculate still rolls
		// back whatever was reserved before the failure.
		spErr := st.Speculate(func() error {
			if _, err := st.PlaceReplica(tid, len(st.Reps[tid]), free, st.FullSources(tid)); err != nil {
				return err
			}
			_, err := st.PlaceReplica(tid, len(st.Reps[tid]), free, st.FullSources(tid)) // same proc: rejected
			return err
		})
		if spErr == nil {
			t.Fatalf("pol %v: duplicate-processor placement accepted", pol)
		}
		if !reflect.DeepEqual(before, Fingerprint(st)) {
			t.Fatalf("pol %v: failing Speculate left residue", pol)
		}
	}
}

// ProcsOf must report exactly the hosting processors and reuse its
// scratch without allocating.
func TestProcsOfScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := randomProblem(rng, 5, timeline.Append)
	st := NewState(p)
	growState(t, st, 1, nil)
	for task := 0; task < p.G.NumTasks(); task++ {
		hosting := st.ProcsOf(dag.TaskID(task))
		if len(hosting) != p.Plat.M {
			t.Fatalf("ProcsOf length %d, want %d", len(hosting), p.Plat.M)
		}
		want := map[int]bool{}
		for _, r := range st.Reps[task] {
			want[r.Proc] = true
		}
		for proc, h := range hosting {
			if h != want[proc] {
				t.Fatalf("task %d: ProcsOf[%d] = %v, want %v", task, proc, h, want[proc])
			}
		}
	}
	allocs := testing.AllocsPerRun(50, func() { st.ProcsOf(3) })
	if allocs > 0 {
		t.Errorf("ProcsOf allocates %.1f per call after warm-up", allocs)
	}
}

// Pin the ProcsOf aliasing contract: the returned bitset is scratch, so
// a second call on the same state overwrites the first result in place.
// A caller retaining the slice across calls observes silent mutation —
// that is exactly what this regression documents — and ProcsOfCopy is
// the retention-safe variant.
func TestProcsOfSecondCallInvalidatesFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	p := randomProblem(rng, 5, timeline.Append)
	st := NewState(p)
	growState(t, st, 1, nil)

	// Find two tasks with different hosting sets; with ε+1 = 2 replicas
	// over 5 processors some pair must differ.
	var t1, t2 dag.TaskID = -1, -1
	for a := 0; a < p.G.NumTasks() && t1 < 0; a++ {
		for b := a + 1; b < p.G.NumTasks(); b++ {
			if !reflect.DeepEqual(st.ProcsOfCopy(dag.TaskID(a)), st.ProcsOfCopy(dag.TaskID(b))) {
				t1, t2 = dag.TaskID(a), dag.TaskID(b)
				break
			}
		}
	}
	if t1 < 0 {
		t.Fatal("no two tasks with distinct hosting sets in the fixture")
	}

	first := st.ProcsOf(t1)
	snapshot := append([]bool(nil), first...)
	copied := st.ProcsOfCopy(t1)
	second := st.ProcsOf(t2)

	if &first[0] != &second[0] {
		t.Fatal("ProcsOf returned distinct backing arrays; scratch reuse contract changed")
	}
	if reflect.DeepEqual(snapshot, first) {
		t.Fatal("second ProcsOf call left the first result intact; expected in-place overwrite")
	}
	if !reflect.DeepEqual(copied, snapshot) {
		t.Error("ProcsOfCopy result mutated by a later ProcsOf call")
	}
	if !reflect.DeepEqual([]bool(second), append([]bool(nil), st.ProcsOfCopy(t2)...)) {
		t.Error("ProcsOf disagrees with ProcsOfCopy for the same task")
	}
}

// TestProbeAllocPin pins the steady-state probe of both policies —
// the journaled probe under Insertion and the ready-time overlay under
// Append — at (near) zero allocations per call.
func TestProbeAllocPin(t *testing.T) {
	for _, pol := range []timeline.Policy{timeline.Append, timeline.Insertion} {
		rng := rand.New(rand.NewSource(11))
		p := randomProblem(rng, 6, pol)
		st := NewState(p)
		last := dag.TaskID(p.G.NumTasks() - 1)
		for task := 0; task < int(last); task++ {
			tid := dag.TaskID(task)
			sources := st.FullSources(tid)
			for k, proc := 0, 0; k < 2; k, proc = k+1, proc+1 {
				if _, err := st.PlaceReplica(tid, k, proc+int(tid)%3, sources); err != nil {
					t.Fatal(err)
				}
			}
		}
		sources := st.FullSources(last)
		if _, err := st.ProbeReplica(last, 0, 0, sources); err != nil { // warm up scratch + journal
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := st.ProbeReplica(last, 0, 0, sources); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%v: allocs/probe %.1f", pol, allocs)
		if allocs > 2 {
			t.Errorf("%v: probe allocates %.1f per call, want ~0", pol, allocs)
		}
	}
}
