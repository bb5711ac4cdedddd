package sim

import (
	"fmt"
	"math"
	"sort"

	"caft/internal/dag"
	"caft/internal/sched"
)

// Replayer replays one schedule repeatedly without rebuilding its
// indices. The constructor precomputes everything that does not depend
// on the crash set — the operation table, the dense (task, copy) →
// operation index, the per-(replica, predecessor) input lists in CSR
// form, the per-resource placement-order sequences and the sweep order —
// and every replay reuses the same scratch buffers, so steady-state
// replays of the same schedule allocate nothing beyond the caller's
// Result (and Latency-only entry points allocate nothing at all).
//
// A Replayer is not safe for concurrent use; each goroutine replaying
// the same schedule needs its own (see NewReplayer).
//
//caft:confined
type Replayer struct {
	s     *sched.Schedule
	order []int32 // topological task order (the compiled view's Topo)

	// ops lists every replica (in Schedule.Reps iteration order) followed
	// by every communication (in Schedule.Comms order). alive, start and
	// finish are per-replay state; everything else is static.
	ops  []op
	nRep int

	repOf [][]int32 // [task][copy] -> replica op index, -1 when absent
	srcOf []int32   // per comm: op index of its source replica, -1 when absent

	// Input CSR: replica op ri has predecessor slots
	// [inBase[ri], inBase[ri+1]); slot sl's feeding comm ops are
	// inAdj[inOff[sl]:inOff[sl+1]], in Schedule.Comms order.
	inBase []int32
	inOff  []int32
	inAdj  []int32

	resSeq [][]int32 // per resource: member op indices in placement order
	sweepO []int32   // every op index in placement order

	// Per-replay scratch.
	crashed    []bool
	prev       [][]int32 // resource predecessors of each op this replay
	dead       []bool    // per op: forced dead by the timed-crash fixpoint
	deadline   []float64 // per op: crash instant it must beat this timed replay
	lastSweeps int       // fixpoint sweeps of the latest run
}

const noOp = int32(-1)

// NewReplayer builds the static replay tables for s over the graph's
// compiled view.
func NewReplayer(s *sched.Schedule) (*Replayer, error) {
	cg, err := s.P.G.Compile()
	if err != nil {
		return nil, err
	}
	r := &Replayer{s: s, order: cg.Topo()}

	// Operation table: replicas first, then communications.
	r.nRep = s.ReplicaCount()
	r.ops = make([]op, 0, r.nRep+len(s.Comms))
	r.repOf = make([][]int32, len(s.Reps))
	for t := range s.Reps {
		maxCopy := -1
		for _, rep := range s.Reps[t] {
			if rep.Copy > maxCopy {
				maxCopy = rep.Copy
			}
		}
		r.repOf[t] = make([]int32, maxCopy+1)
		for c := range r.repOf[t] {
			r.repOf[t][c] = noOp
		}
		for _, rep := range s.Reps[t] {
			r.repOf[t][rep.Copy] = int32(len(r.ops))
			r.ops = append(r.ops, op{kind: opRep, rep: rep, dur: rep.Finish - rep.Start, seq: rep.Seq})
		}
	}
	r.srcOf = make([]int32, len(s.Comms))
	for i, c := range s.Comms {
		r.srcOf[i] = r.lookup(c.From, c.SrcCopy)
		r.ops = append(r.ops, op{kind: opComm, comm: c, dur: c.Dur, seq: c.Seq})
	}

	// Input CSR over (replica, predecessor-slot) pairs. A comm from
	// predecessor p feeds every slot of its destination replica whose
	// edge originates at p (parallel edges share their input group,
	// matching the map-based engine).
	r.inBase = make([]int32, r.nRep+1)
	for t := range s.Reps {
		for _, rep := range s.Reps[t] {
			ri := r.repOf[t][rep.Copy]
			r.inBase[ri+1] = int32(cg.InDegree(dag.TaskID(t)))
		}
	}
	for i := 1; i < len(r.inBase); i++ {
		r.inBase[i] += r.inBase[i-1]
	}
	slots := r.inBase[r.nRep]
	r.inOff = make([]int32, slots+1)
	forEachSlot := func(c sched.Comm, add func(slot int32)) {
		ri := r.lookup(c.To, c.DstCopy)
		if ri < 0 {
			return
		}
		from, _ := cg.Pred(c.To)
		for j, f := range from {
			if dag.TaskID(f) == c.From {
				add(r.inBase[ri] + int32(j))
			}
		}
	}
	for _, c := range s.Comms {
		forEachSlot(c, func(slot int32) { r.inOff[slot+1]++ })
	}
	for i := 1; i < len(r.inOff); i++ {
		r.inOff[i] += r.inOff[i-1]
	}
	r.inAdj = make([]int32, r.inOff[slots])
	fill := make([]int32, slots)
	for i, c := range s.Comms {
		ci := int32(r.nRep + i)
		forEachSlot(c, func(slot int32) {
			r.inAdj[r.inOff[slot]+fill[slot]] = ci
			fill[slot]++
		})
	}

	// Static per-resource membership in placement (seq) order. Chains of
	// surviving ops are derived per replay by skipping dead members, which
	// is equivalent to sorting the survivors — placement order is
	// crash-independent. On the clique there are no link chains
	// (sched.LinkResources): link (src,dst)'s chain is a subsequence of
	// send(src)'s, and finish times never decrease along a chain, so a
	// link edge never binds.
	m := s.P.Plat.M
	net := s.P.Network()
	nLinks := sched.LinkResources(net)
	r.resSeq = make([][]int32, 3*m+nLinks)
	compute := r.resSeq[0:m]
	send := r.resSeq[m : 2*m]
	recv := r.resSeq[2*m : 3*m]
	link := r.resSeq[3*m:]
	for i := range r.ops {
		o := &r.ops[i]
		switch o.kind {
		case opRep:
			compute[o.rep.Proc] = append(compute[o.rep.Proc], int32(i))
		case opComm:
			if o.comm.Intra || s.P.Model == sched.MacroDataflow {
				continue
			}
			send[o.comm.SrcProc] = append(send[o.comm.SrcProc], int32(i))
			recv[o.comm.DstProc] = append(recv[o.comm.DstProc], int32(i))
			if nLinks == 0 {
				continue
			}
			for _, l := range net.Route(o.comm.SrcProc, o.comm.DstProc) {
				link[l] = append(link[l], int32(i))
			}
		}
	}
	for _, seq := range r.resSeq {
		r.sortBySeq(seq)
	}
	r.sweepO = make([]int32, len(r.ops))
	for i := range r.sweepO {
		r.sweepO[i] = int32(i)
	}
	r.sortBySeq(r.sweepO)

	r.crashed = make([]bool, m)
	r.prev = make([][]int32, len(r.ops))
	r.dead = make([]bool, len(r.ops))
	r.deadline = make([]float64, len(r.ops))
	return r, nil
}

//caft:zeroalloc
func (r *Replayer) lookup(t dag.TaskID, copy int) int32 {
	if copy < 0 || copy >= len(r.repOf[t]) {
		return noOp
	}
	return r.repOf[t][copy]
}

//caft:zeroalloc
func (r *Replayer) sortBySeq(seq []int32) {
	sort.Slice(seq, func(a, b int) bool { //caft:alloc-ok sort.Slice's swapper is one constant-size frame, within the alloc-pin budget
		sa, sb := r.ops[seq[a]].seq, r.ops[seq[b]].seq
		if sa != sb {
			return sa < sb
		}
		return seq[a] < seq[b]
	})
}

// setCrashed loads the crash set into the scratch bitmap.
//
//caft:zeroalloc
func (r *Replayer) setCrashed(crashed map[int]bool) {
	for i := range r.crashed {
		r.crashed[i] = false
	}
	for p, c := range crashed { //caft:unordered-ok bitmap store is order-insensitive
		if c && p >= 0 && p < len(r.crashed) {
			r.crashed[p] = true
		}
	}
}

// run executes one liveness+timing pass against the current crash
// bitmap. dead (indexed like r.ops) forces additional operations dead,
// used by the timed-crash fixpoint of ReplayTimed; it may be nil.
//
//caft:zeroalloc
func (r *Replayer) run(sem Semantics, dead []bool) error {
	s := r.s
	ops := r.ops

	for i := range ops {
		ops[i].alive = false
		ops[i].start = 0
		ops[i].finish = 0
	}

	// --- Phase 1: liveness, in topological task order. ---
	for _, t := range r.order {
		for _, rep := range s.Reps[t] {
			ri := r.repOf[t][rep.Copy]
			alive := !r.crashed[rep.Proc] && (dead == nil || !dead[ri])
			if alive {
				// One slot per predecessor edge, straight off the input CSR.
				for sl := r.inBase[ri]; sl < r.inBase[ri+1]; sl++ {
					ok := false
					for _, ci := range r.inAdj[r.inOff[sl]:r.inOff[sl+1]] {
						c := &ops[ci].comm
						si := r.srcOf[ci-int32(r.nRep)]
						if si >= 0 && ops[si].alive && !r.crashed[c.DstProc] && (dead == nil || !dead[ci]) {
							ok = true
							break
						}
					}
					if !ok {
						alive = false
						break
					}
				}
			}
			ops[ri].alive = alive
		}
	}
	for i, c := range s.Comms {
		si := r.srcOf[i]
		ops[r.nRep+i].alive = si >= 0 && ops[si].alive && !r.crashed[c.DstProc] && (dead == nil || !dead[r.nRep+i])
	}

	// --- Chain surviving ops per resource, in placement order. ---
	for i := range r.prev {
		r.prev[i] = r.prev[i][:0]
	}
	for _, seq := range r.resSeq {
		last := noOp
		for _, i := range seq {
			if !ops[i].alive {
				continue
			}
			if last >= 0 {
				r.prev[i] = append(r.prev[i], last)
			}
			last = i
		}
	}

	// --- Phase 2: least-fixpoint timing over surviving ops. ---
	// Sweep in placement order; all times are monotone non-decreasing
	// across sweeps, so the iteration converges to the least fixpoint —
	// every operation as early as its constraints allow.
	sweeps := 0
	for {
		sweeps++
		if sweeps > len(ops)+5 {
			return fmt.Errorf("sim: timing fixpoint did not converge after %d sweeps", sweeps) //caft:alloc-ok non-convergence diagnostic; unreachable on a well-formed schedule
		}
		changed := false
		for _, i := range r.sweepO {
			o := &ops[i]
			if !o.alive {
				continue
			}
			st := 0.0
			for _, pi := range r.prev[i] {
				if ops[pi].finish > st {
					st = ops[pi].finish
				}
			}
			switch o.kind {
			case opComm:
				if f := ops[r.srcOf[int(i)-r.nRep]].finish; f > st {
					st = f
				}
			case opRep:
				ri := i
				for sl := r.inBase[ri]; sl < r.inBase[ri+1]; sl++ {
					agg := math.Inf(1)
					if sem == LastArrival {
						agg = 0
					}
					for _, ci := range r.inAdj[r.inOff[sl]:r.inOff[sl+1]] {
						if !ops[ci].alive {
							continue
						}
						f := ops[ci].finish
						if sem == FirstArrival {
							if f < agg {
								agg = f
							}
						} else if f > agg {
							agg = f
						}
					}
					if math.IsInf(agg, 1) {
						agg = 0 // unreachable: liveness guaranteed an input
					}
					if agg > st {
						st = agg
					}
				}
			}
			if st > o.start {
				o.start = st
				o.finish = st + o.dur
				changed = true
			} else if o.finish != o.start+o.dur {
				o.finish = o.start + o.dur
				changed = true
			}
		}
		if !changed {
			r.lastSweeps = sweeps
			return nil
		}
	}
}

// materialize copies the scratch tables of the latest run into a fresh
// Result (the only allocating step of a steady-state replay).
func (r *Replayer) materialize() *Result {
	s := r.s
	res := &Result{Reps: make([][]RepOutcome, len(s.Reps)), Sweeps: r.lastSweeps}
	res.Comms = make([]CommOutcome, 0, len(s.Comms))
	for i := range s.Comms {
		o := r.ops[r.nRep+i]
		res.Comms = append(res.Comms, CommOutcome{Comm: o.comm, Alive: o.alive, Start: o.start, Finish: o.finish})
	}
	for t := range s.Reps {
		anyAlive := false
		res.Reps[t] = make([]RepOutcome, 0, len(s.Reps[t]))
		for _, rep := range s.Reps[t] {
			o := r.ops[r.repOf[t][rep.Copy]]
			if o.alive {
				anyAlive = true
			}
			res.Reps[t] = append(res.Reps[t], RepOutcome{Rep: rep, Alive: o.alive, Start: o.start, Finish: o.finish})
		}
		if !anyAlive {
			res.TasksLost = append(res.TasksLost, dag.TaskID(t))
		}
	}
	return res
}

// Replay recomputes the schedule's execution under the given options,
// like the package-level Replay but reusing this Replayer's tables.
//
//caft:zeroalloc
func (r *Replayer) Replay(opt Options) (*Result, error) {
	r.setCrashed(opt.Crashed)
	if err := r.run(opt.Sem, nil); err != nil {
		return nil, err
	}
	return r.materialize(), nil //caft:alloc-ok the Result is the caller's one deliberate allocation
}

// latency computes Result.Latency directly from the scratch tables.
//
//caft:zeroalloc
func (r *Replayer) latency() (float64, error) {
	lat := 0.0
	for t := range r.s.Reps {
		min := math.Inf(1)
		for _, rep := range r.s.Reps[t] {
			if o := &r.ops[r.repOf[t][rep.Copy]]; o.alive && o.finish < min {
				min = o.finish
			}
		}
		if math.IsInf(min, 1) {
			return min, fmt.Errorf("sim: task %d lost (no surviving replica): %w", t, ErrTaskLost) //caft:alloc-ok task-lost rejection path; the success path allocates nothing
		}
		if min > lat {
			lat = min
		}
	}
	return lat, nil
}

// CrashLatency replays with the given crashed processors under
// first-arrival semantics and returns the achieved latency without
// allocating a Result. A lost task reports an error satisfying
// errors.Is(err, ErrTaskLost).
//
//caft:zeroalloc
func (r *Replayer) CrashLatency(crashed map[int]bool) (float64, error) {
	r.setCrashed(crashed)
	if err := r.run(FirstArrival, nil); err != nil {
		return 0, err
	}
	return r.latency()
}

// LowerBound replays with no crashes under first-arrival semantics: the
// latency achieved if no processor fails.
//
//caft:zeroalloc
func (r *Replayer) LowerBound() (float64, error) {
	return r.CrashLatency(nil)
}

// UpperBound replays with no crashes under last-arrival semantics and
// returns the completion time of the last replica of any task.
//
//caft:zeroalloc
func (r *Replayer) UpperBound() (float64, error) {
	r.setCrashed(nil)
	if err := r.run(LastArrival, nil); err != nil {
		return 0, err
	}
	lat := 0.0
	for i := 0; i < r.nRep; i++ {
		if o := &r.ops[i]; o.alive && o.finish > lat {
			lat = o.finish
		}
	}
	return lat, nil
}
