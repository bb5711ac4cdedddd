// Package online executes a committed schedule as a causal, event-driven
// process and reacts to processor crashes while it runs — the reactive
// counterpart of package sim's clairvoyant replays (see DESIGN.md S7).
//
// The engine maintains a priority queue over two event kinds: operation
// completions (replica executions and communications finishing) and
// processor crashes (a failure trace, processor -> fail-stop instant).
// Operations start as soon as every constraint is resolved — the
// per-resource reservation order committed by the scheduler, the source
// replica of a transfer, and one input arrival per predecessor
// (first-arrival semantics) — so with an empty failure trace the engine
// computes exactly the least-fixpoint times of sim.Replayer, and the
// root TestOnlineStaticEquivalence pins the two engines bit for bit.
//
// When a crash arrives at time tau, work that finished by tau survives;
// unfinished work on the crashed processor dies, along with everything
// transitively starved of inputs. The semantics is causal: a resource
// freed by a cancellation becomes available at tau, never earlier, and
// reactive re-placements may not start before tau — the past is never
// rewritten, unlike sim.ReplayTimed's omniscient fixpoint, which lets
// survivors move into slots vacated before the crash was observable.
//
// With Options.Reschedule, each crash additionally triggers the
// reactive re-mapper: reservations of lost and unstarted work are
// cancelled through the journaled sched.State cancel machinery, and
// every task left without a finished-and-reachable or still-live
// replica is re-placed onto the surviving processors with HEFT-style
// minimum-finish probes (sched.State probes on the real state — no
// clones). The whole replay runs inside one sched.State.Speculate
// scope, so the engine's state is pristine after every Run and a
// single Engine replays many traces with near-zero steady-state
// allocation (TestOnlineEventAllocPin).
//
//caft:deterministic
package online

import (
	"fmt"
	"math"
	"sort"

	"caft/internal/dag"
	"caft/internal/sched"
)

const (
	opRep = iota
	opComm
)

type opState uint8

const (
	opPending opState = iota // some constraint unresolved
	opRunning                // start determined, completion queued
	opDone                   // finished; survives later crashes
	opDead                   // cancelled by a crash or starved of inputs
)

const noOp = int32(-1)

// op is one executable operation. Identity fields are fixed at wiring
// time; state, waits, acc, minStart, start and finish are per-replay.
type op struct {
	kind     int8
	state    opState
	reactive bool
	task     dag.TaskID
	rep      sched.Replica
	comm     sched.Comm
	dur      float64
	seq      int32

	src              int32 // comm: op index of its source replica
	resBase, nRes    int32 // occupied resources in Engine.resIDs
	slotBase, nSlots int32 // rep: predecessor input slots
	feedBase, nFeeds int32 // comm: fed slots in Engine.feedAdj
	waits0           int32 // static constraint count

	waits         int32
	acc           float64 // running max of resolved constraint values
	minStart      float64 // causal floor (crash instant for reactive work)
	start, finish float64
	placedAt      float64 // reactive ops: the crash that placed them
}

// ev is one queued completion event.
type ev struct {
	t   float64
	seq int32
	idx int32
}

// crashEv is one failure-trace entry, processed in (time, proc) order.
type crashEv struct {
	tau  float64
	proc int
}

// Engine replays one schedule against failure traces. A single Engine
// precomputes the static wiring once and reuses every scratch buffer
// across Run/Makespan calls; it is not safe for concurrent use.
//
//caft:confined
type Engine struct {
	s     *sched.Schedule
	p     *sched.Problem
	g     *dag.DAG
	cg    *dag.Compiled
	m     int
	net   sched.Network
	macro bool

	st   *sched.State
	body func() error // prebuilt Speculate body (alloc-free Run)

	// Incremental upward-rank maintenance (Options.RankOrder); built
	// lazily on the first rank-ordered replay and reused afterwards.
	ranker   *dag.Ranker
	rankNode []float64
	rankUnit float64

	// Static tables (prefix [0, n0) of every dynamic slice).
	ops      []op
	n0       int
	taskOps  [][]int32 // per task: replica op indices, schedule order first
	taskOps0 []int32
	repOf    [][]int32 // task -> copy -> replica op index
	repOf0   []int32
	out      [][]int32 // per replica op: comm ops it feeds
	out0     []int32
	resIDs   []int32
	nResIDs0 int
	slotOf   []int32 // slot -> owning replica op
	slotInit []int32 // static feeder count per slot
	nSlots0  int
	feedAdj  []int32
	nFeeds0  int
	topoIdx  []int32

	// Per-replay resource state.
	nRes     int
	members  [][]int32 // per resource: member ops in placement (seq) order
	members0 []int32
	nextIdx  []int32
	resAvail []float64
	holder   []int32 // op currently holding the resource token, -1 if free

	// Per-replay scratch.
	slotLeft    []int32
	slotDone    []bool
	taskDone    []bool
	taskFinish  []float64
	unrecover   []bool
	nextCopy    []int32
	nextCopy0   []int32
	heap        []ev
	crashes     []crashEv
	deadList    []int32
	needList    []int32
	inNeed      []bool
	procDead    []bool
	rescheduled int
	events      int
	opt         Options
}

// NewEngine builds the static wiring for s. The schedule must be well
// formed (every communication referencing placed replicas); schedules
// produced by this repository's schedulers always are.
func NewEngine(s *sched.Schedule) (*Engine, error) {
	g := s.P.G
	cg, err := g.Compile()
	if err != nil {
		return nil, err
	}
	st, err := sched.StateOf(s)
	if err != nil {
		return nil, err
	}
	e := &Engine{s: s, p: s.P, g: g, cg: cg, m: s.P.Plat.M, net: s.P.Network(), st: st}
	e.macro = s.P.Model == sched.MacroDataflow
	e.nRes = 3*e.m + sched.LinkResources(e.net)
	e.body = func() error { return e.exec() }
	// The compiled view's topological index is read-only here; aliasing
	// is safe because the engine freezes the graph at construction.
	e.topoIdx = cg.TopoIndex()

	// Replica ops, task-major in schedule order (sim.Replayer's order).
	nRep := s.ReplicaCount()
	e.ops = make([]op, 0, nRep+len(s.Comms))
	e.taskOps = make([][]int32, g.NumTasks())
	e.repOf = make([][]int32, g.NumTasks())
	for t := range s.Reps {
		maxCopy := -1
		for _, rep := range s.Reps[t] {
			if rep.Copy > maxCopy {
				maxCopy = rep.Copy
			}
		}
		e.repOf[t] = make([]int32, maxCopy+1)
		for c := range e.repOf[t] {
			e.repOf[t][c] = noOp
		}
		for _, rep := range s.Reps[t] {
			i := int32(len(e.ops))
			e.repOf[t][rep.Copy] = i
			e.taskOps[t] = append(e.taskOps[t], i)
			o := op{kind: opRep, task: dag.TaskID(t), rep: rep, dur: rep.Finish - rep.Start, seq: rep.Seq, src: noOp}
			o.slotBase = int32(len(e.slotOf))
			o.nSlots = int32(cg.InDegree(dag.TaskID(t)))
			for j := int32(0); j < o.nSlots; j++ {
				e.slotOf = append(e.slotOf, i)
				e.slotInit = append(e.slotInit, 0)
			}
			o.resBase = int32(len(e.resIDs))
			e.resIDs = append(e.resIDs, int32(e.computeID(rep.Proc)))
			o.nRes = 1
			e.ops = append(e.ops, o)
		}
	}
	// Communication ops in schedule order.
	for i, c := range s.Comms {
		o := op{kind: opComm, comm: c, dur: c.Dur, seq: c.Seq, src: noOp}
		o.src = e.lookup(c.From, c.SrcCopy)
		if o.src < 0 {
			return nil, fmt.Errorf("online: comm %d references missing replica (%d,%d)", i, c.From, c.SrcCopy)
		}
		di := e.lookup(c.To, c.DstCopy)
		if di < 0 {
			return nil, fmt.Errorf("online: comm %d references missing replica (%d,%d)", i, c.To, c.DstCopy)
		}
		o.feedBase = int32(len(e.feedAdj))
		dst := &e.ops[di]
		from, _ := cg.Pred(c.To)
		for j, f := range from {
			if dag.TaskID(f) == c.From {
				slot := dst.slotBase + int32(j)
				e.feedAdj = append(e.feedAdj, slot)
				e.slotInit[slot]++
			}
		}
		o.nFeeds = int32(len(e.feedAdj)) - o.feedBase
		o.resBase = int32(len(e.resIDs))
		if !c.Intra && !e.macro {
			e.appendCommRes(c)
		}
		o.nRes = int32(len(e.resIDs)) - o.resBase
		e.ops = append(e.ops, o)
	}
	e.n0 = len(e.ops)
	e.nResIDs0 = len(e.resIDs)
	e.nSlots0 = len(e.slotOf)
	e.nFeeds0 = len(e.feedAdj)

	// Source -> communications index.
	e.out = make([][]int32, e.n0)
	for i := range e.ops {
		if e.ops[i].kind == opComm {
			e.out[e.ops[i].src] = append(e.out[e.ops[i].src], int32(i))
		}
	}

	// Per-resource membership in placement (seq) order, as in
	// sim.Replayer: the chain order is crash-independent.
	e.members = make([][]int32, e.nRes)
	for i := range e.ops {
		o := &e.ops[i]
		for k := o.resBase; k < o.resBase+o.nRes; k++ {
			r := e.resIDs[k]
			e.members[r] = append(e.members[r], int32(i))
		}
	}
	for r := range e.members {
		mem := e.members[r]
		sort.Slice(mem, func(a, b int) bool {
			sa, sb := e.ops[mem[a]].seq, e.ops[mem[b]].seq
			if sa != sb {
				return sa < sb
			}
			return mem[a] < mem[b]
		})
	}

	// Static dependency counts.
	for i := range e.ops {
		o := &e.ops[i]
		o.waits0 = o.nRes
		if o.kind == opRep {
			o.waits0 += o.nSlots
		} else {
			o.waits0++
		}
	}

	// Frozen lengths and per-replay scratch.
	e.taskOps0 = make([]int32, len(e.taskOps))
	e.repOf0 = make([]int32, len(e.repOf))
	e.nextCopy0 = make([]int32, len(e.repOf))
	for t := range e.taskOps {
		e.taskOps0[t] = int32(len(e.taskOps[t]))
		e.repOf0[t] = int32(len(e.repOf[t]))
		e.nextCopy0[t] = int32(len(e.repOf[t]))
	}
	e.out0 = make([]int32, e.n0)
	for i := range e.out {
		e.out0[i] = int32(len(e.out[i]))
	}
	e.members0 = make([]int32, e.nRes)
	for r := range e.members {
		e.members0[r] = int32(len(e.members[r]))
	}
	e.nextIdx = make([]int32, e.nRes)
	e.resAvail = make([]float64, e.nRes)
	e.holder = make([]int32, e.nRes)
	e.slotLeft = make([]int32, e.nSlots0)
	e.slotDone = make([]bool, e.nSlots0)
	e.taskDone = make([]bool, g.NumTasks())
	e.taskFinish = make([]float64, g.NumTasks())
	e.unrecover = make([]bool, g.NumTasks())
	e.nextCopy = make([]int32, g.NumTasks())
	e.inNeed = make([]bool, g.NumTasks())
	e.procDead = make([]bool, e.m)
	return e, nil
}

//caft:zeroalloc
func (e *Engine) computeID(proc int) int { return proc }

//caft:zeroalloc
func (e *Engine) sendID(proc int) int { return e.m + proc }

//caft:zeroalloc
func (e *Engine) recvID(proc int) int { return 2*e.m + proc }

//caft:zeroalloc
func (e *Engine) linkID(l int) int { return 3*e.m + l }

// appendCommRes appends the resources transfer c occupies to resIDs:
// its send and receive ports, plus its route's links when link
// resources are kept (sched.LinkResources). On the clique they are
// not: link (src,dst)'s chain is a subsequence of send(src)'s and the
// value a chain passes on never decreases, so a link token never
// arrives later than the send token does.
func (e *Engine) appendCommRes(c sched.Comm) {
	e.resIDs = append(e.resIDs, int32(e.sendID(c.SrcProc)), int32(e.recvID(c.DstProc)))
	if e.nRes == 3*e.m {
		return
	}
	for _, l := range e.net.Route(c.SrcProc, c.DstProc) {
		e.resIDs = append(e.resIDs, int32(e.linkID(l)))
	}
}

//caft:zeroalloc
func (e *Engine) lookup(t dag.TaskID, copy int) int32 {
	if copy < 0 || copy >= len(e.repOf[t]) {
		return noOp
	}
	return e.repOf[t][copy]
}

// reset restores every dynamic table to the static prefix and loads the
// failure trace. It allocates nothing once the scratch has warmed up.
//
//caft:zeroalloc
func (e *Engine) reset(trace map[int]float64) {
	e.ops = e.ops[:e.n0]
	e.resIDs = e.resIDs[:e.nResIDs0]
	e.slotOf = e.slotOf[:e.nSlots0]
	e.slotInit = e.slotInit[:e.nSlots0]
	e.slotLeft = e.slotLeft[:e.nSlots0]
	e.slotDone = e.slotDone[:e.nSlots0]
	e.feedAdj = e.feedAdj[:e.nFeeds0]
	e.out = e.out[:e.n0]
	for i := range e.ops {
		o := &e.ops[i]
		o.state = opPending
		o.waits = o.waits0
		o.acc = 0
		o.minStart = 0
		o.start = 0
		o.finish = 0
		o.placedAt = 0
		e.out[i] = e.out[i][:e.out0[i]]
	}
	for t := range e.taskOps {
		e.taskOps[t] = e.taskOps[t][:e.taskOps0[t]]
		e.repOf[t] = e.repOf[t][:e.repOf0[t]]
		e.nextCopy[t] = e.nextCopy0[t]
		e.taskDone[t] = false
		e.taskFinish[t] = 0
		e.unrecover[t] = false
	}
	for r := range e.members {
		e.members[r] = e.members[r][:e.members0[r]]
		e.nextIdx[r] = 0
		e.resAvail[r] = 0
		e.holder[r] = noOp
	}
	for s := 0; s < e.nSlots0; s++ {
		e.slotLeft[s] = e.slotInit[s]
		e.slotDone[s] = false
	}
	for p := range e.procDead {
		e.procDead[p] = false
	}
	e.heap = e.heap[:0]
	e.deadList = e.deadList[:0]
	e.rescheduled = 0
	e.events = 0

	// Failure trace, sorted by (time, processor). The insertion sort
	// keeps the steady-state path allocation-free.
	e.crashes = e.crashes[:0]
	for p, tau := range trace { //caft:unordered-ok sorted by (time, proc) just below
		if p >= 0 && p < e.m {
			e.crashes = append(e.crashes, crashEv{tau: tau, proc: p})
		}
	}
	for i := 1; i < len(e.crashes); i++ {
		for j := i; j > 0; j-- {
			a, b := e.crashes[j-1], e.crashes[j]
			if b.tau < a.tau || (b.tau == a.tau && b.proc < a.proc) {
				e.crashes[j-1], e.crashes[j] = b, a
			} else {
				break
			}
		}
	}
}

// exec runs the event loop: completions in time order, interleaved with
// the failure trace.
//
//caft:zeroalloc
func (e *Engine) exec() error {
	for r := 0; r < e.nRes; r++ {
		e.releaseToken(int32(r), 0)
	}
	ci := 0
	for {
		tau := math.Inf(1)
		if ci < len(e.crashes) {
			tau = e.crashes[ci].tau
		}
		for len(e.heap) > 0 && e.heap[0].t <= tau+sched.Eps {
			top := e.pop()
			e.complete(top.idx)
		}
		if ci >= len(e.crashes) {
			break
		}
		if err := e.crash(e.crashes[ci].proc, tau); err != nil { //caft:alloc-ok crash path; only the no-crash steady state is pinned zero-alloc
			return err
		}
		ci++
	}
	for i := range e.ops {
		if st := e.ops[i].state; st == opPending || st == opRunning {
			return fmt.Errorf("online: event loop stalled with op %d (seq %d) unresolved", i, e.ops[i].seq) //caft:alloc-ok stalled-loop diagnostic; unreachable on a validated schedule
		}
	}
	return nil
}

// releaseToken frees resource r at time avail and grants it to the next
// non-dead member in placement order, resolving that member's chain
// constraint. With no member left the resource is marked free.
//
//caft:zeroalloc
func (e *Engine) releaseToken(r int32, avail float64) {
	if avail > e.resAvail[r] {
		e.resAvail[r] = avail
	}
	for e.nextIdx[r] < int32(len(e.members[r])) {
		i := e.members[r][e.nextIdx[r]]
		e.nextIdx[r]++
		if e.ops[i].state == opDead {
			continue
		}
		e.holder[r] = i
		e.resolve(i, e.resAvail[r])
		return
	}
	e.holder[r] = noOp
}

// addMember appends a reactively placed op to resource r's chain; if
// the token is free it is granted immediately.
//
//caft:zeroalloc
func (e *Engine) addMember(r, i int32) {
	e.members[r] = append(e.members[r], i)
	if e.holder[r] == noOp {
		e.releaseToken(r, e.resAvail[r])
	}
}

// resolve folds one constraint value into op i and starts it when it
// was the last one outstanding.
//
//caft:zeroalloc
func (e *Engine) resolve(i int32, v float64) {
	o := &e.ops[i]
	if o.state != opPending {
		return
	}
	if v > o.acc {
		o.acc = v
	}
	o.waits--
	if o.waits == 0 {
		o.start = o.acc
		if o.minStart > o.start {
			o.start = o.minStart
		}
		dur := o.dur
		if o.kind == opRep && e.opt.ExecScale != nil {
			dur *= e.opt.ExecScale[o.task]
		}
		o.finish = o.start + dur
		o.state = opRunning
		e.push(ev{t: o.finish, seq: o.seq, idx: i})
	}
}

// complete finishes op i: releases its resource tokens, marks its task
// computed (first completion wins) and resolves dependent constraints.
// Events of lazily cancelled (dead) ops are skipped.
//
//caft:zeroalloc
func (e *Engine) complete(i int32) {
	o := &e.ops[i]
	if o.state != opRunning {
		return
	}
	o.state = opDone
	e.events++
	for k := o.resBase; k < o.resBase+o.nRes; k++ {
		r := e.resIDs[k]
		if e.holder[r] == i {
			e.releaseToken(r, o.finish)
		}
	}
	if o.kind == opRep {
		if !e.taskDone[o.task] {
			e.taskDone[o.task] = true
			e.taskFinish[o.task] = o.finish
		}
		for _, j := range e.out[i] {
			e.resolve(j, o.finish)
		}
		return
	}
	for k := o.feedBase; k < o.feedBase+o.nFeeds; k++ {
		s := e.feedAdj[k]
		if !e.slotDone[s] {
			e.slotDone[s] = true
			e.resolve(e.slotOf[s], o.finish)
		}
	}
}

// kill marks op i dead if it has not finished, recording it for the
// crash's cascade and token-release phases.
//
//caft:zeroalloc
func (e *Engine) kill(i int32) {
	o := &e.ops[i]
	if o.state != opPending && o.state != opRunning {
		return
	}
	o.state = opDead
	e.deadList = append(e.deadList, i)
}

// crash processes the fail-stop of processor q at time tau: direct
// victims die, starvation cascades, freed resources re-open at tau (the
// causal clamp), and — with rescheduling enabled — lost work is
// re-mapped onto the survivors.
func (e *Engine) crash(q int, tau float64) error {
	e.procDead[q] = true
	e.deadList = e.deadList[:0]
	// Phase 1: unfinished work occupying q.
	for i := range e.ops {
		o := &e.ops[i]
		if o.state != opPending && o.state != opRunning {
			continue
		}
		hit := false
		if o.kind == opRep {
			hit = o.rep.Proc == q
		} else {
			hit = o.comm.SrcProc == q || o.comm.DstProc == q
		}
		if hit {
			e.kill(int32(i))
		}
	}
	// Phase 2: starvation cascade. A dead replica takes its unfinished
	// transfers with it; a slot with no live feeder left starves its
	// replica.
	for k := 0; k < len(e.deadList); k++ {
		i := e.deadList[k]
		o := &e.ops[i]
		if o.kind == opRep {
			for _, j := range e.out[i] {
				e.kill(j)
			}
			continue
		}
		for f := o.feedBase; f < o.feedBase+o.nFeeds; f++ {
			s := e.feedAdj[f]
			if e.slotDone[s] {
				continue
			}
			e.slotLeft[s]--
			if e.slotLeft[s] == 0 {
				e.kill(e.slotOf[s])
			}
		}
	}
	// Phase 3: resources held by the dead re-open at tau — never
	// earlier; the crash is only observable at tau.
	for _, i := range e.deadList {
		o := &e.ops[i]
		for k := o.resBase; k < o.resBase+o.nRes; k++ {
			r := e.resIDs[k]
			if e.holder[r] == i {
				e.releaseToken(r, tau)
			}
		}
	}
	if e.opt.Reschedule {
		return e.reschedule(tau)
	}
	return nil
}

// push/pop implement the completion-event min-heap, ordered by time
// with the placement sequence as the deterministic tie break.
//
//caft:zeroalloc
func (e *Engine) push(v ev) {
	e.heap = append(e.heap, v)
	i := len(e.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !evLess(e.heap[i], e.heap[parent]) {
			break
		}
		e.heap[i], e.heap[parent] = e.heap[parent], e.heap[i]
		i = parent
	}
}

//caft:zeroalloc
func (e *Engine) pop() ev {
	top := e.heap[0]
	n := len(e.heap) - 1
	e.heap[0] = e.heap[n]
	e.heap = e.heap[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && evLess(e.heap[l], e.heap[small]) {
			small = l
		}
		if r < n && evLess(e.heap[r], e.heap[small]) {
			small = r
		}
		if small == i {
			break
		}
		e.heap[i], e.heap[small] = e.heap[small], e.heap[i]
		i = small
	}
	return top
}

//caft:zeroalloc
func evLess(a, b ev) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}
