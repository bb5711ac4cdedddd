package dag

// Ranker maintains upward ranks (bottom levels: rank(t) = node(t) +
// max over live successors s of vol(t,s)*unitComm + rank(s)) over a
// compiled view, incrementally. After a full Reset, disabling a task
// whose replicas are all lost marks only that task dirty; Repair then
// recomputes just the "dirty cone": the disabled tasks plus those
// ancestors whose rank actually changes, visited deepest-first so each
// task is recomputed at most once. A crash in the online rescheduler
// therefore re-ranks O(cone) tasks instead of O(v+e) for the world.
//
// A disabled task has rank 0 and contributes nothing to its
// predecessors' ranks (its incoming edges are dead: no live replica
// will ever consume them).
//
// The zero value is not usable; call NewRanker. Like the DAG itself,
// a Ranker is confined to a single goroutine.
//
//caft:confined
type Ranker struct {
	c    *Compiled
	unit float64 // unit communication cost: edge cost = volume * unit

	node     []float64 // per-task node cost
	rank     []float64
	disabled []bool

	// Dirty max-heap ordered by topoIdx (deepest first), deduplicated
	// by inHeap, so a task's successors are always final before the
	// task itself is recomputed.
	heap   []int32
	inHeap []bool
}

// NewRanker returns a Ranker over c with all ranks zero; call Reset to
// load costs and compute the initial ranks.
func NewRanker(c *Compiled) *Ranker {
	n := c.NumTasks()
	return &Ranker{
		c:        c,
		node:     make([]float64, n),
		rank:     make([]float64, n),
		disabled: make([]bool, n),
		heap:     make([]int32, 0, 16),
		inHeap:   make([]bool, n),
	}
}

// Reset loads node costs (copied; len must be NumTasks) and the unit
// communication cost, re-enables every task, and recomputes all ranks:
// with nothing disabled they are the compiled view's bottom levels.
//
//caft:zeroalloc
func (r *Ranker) Reset(node []float64, unitComm float64) {
	copy(r.node, node)
	r.unit = unitComm
	for i := range r.disabled {
		r.disabled[i] = false
		r.inHeap[i] = false
	}
	r.heap = r.heap[:0]
	r.c.BottomLevelsInto(r.rank, r.node, unitComm)
}

// compute returns the rank of t from its successors' current ranks.
//
//caft:zeroalloc
func (r *Ranker) compute(t TaskID) float64 {
	if r.disabled[t] {
		return 0
	}
	v := r.node[t]
	to, vol := r.c.Succ(t)
	for k, s := range to {
		if r.disabled[s] {
			continue
		}
		cand := r.node[t] + vol[k]*r.unit + r.rank[s]
		if cand > v {
			v = cand
		}
	}
	return v
}

// Rank returns the current upward rank of t. Ranks reflect the last
// Repair; call Repair after mutations before reading.
//
//caft:zeroalloc
func (r *Ranker) Rank(t TaskID) float64 { return r.rank[t] }

// Disable marks t dead: its rank becomes 0 and it stops contributing
// to predecessors. Takes effect at the next Repair.
//
//caft:zeroalloc
func (r *Ranker) Disable(t TaskID) {
	if !r.disabled[t] {
		r.disabled[t] = true
		r.push(int32(t))
	}
}

// Repair propagates pending mutations: it pops dirty tasks deepest
// (highest topo index) first, recomputes each, and enqueues a task's
// predecessors only when its rank actually changed — so propagation
// stops at the frontier where the old and new longest paths agree. It
// returns the number of tasks recomputed (the dirty-cone size).
//
//caft:zeroalloc
func (r *Ranker) Repair() int {
	visited := 0
	for len(r.heap) > 0 {
		t := r.pop()
		visited++
		nv := r.compute(TaskID(t))
		if nv == r.rank[t] {
			continue
		}
		r.rank[t] = nv
		from, _ := r.c.Pred(TaskID(t))
		for _, p := range from {
			r.push(p)
		}
	}
	return visited
}

// push adds t to the dirty heap unless already queued. Amortized
// allocation-free: the heap's backing array reaches steady capacity
// after warmup.
//
//caft:zeroalloc
func (r *Ranker) push(t int32) {
	if r.inHeap[t] {
		return
	}
	r.inHeap[t] = true
	r.heap = append(r.heap, t)
	idx := r.c.TopoIndex()
	i := len(r.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if idx[r.heap[parent]] >= idx[r.heap[i]] {
			break
		}
		r.heap[parent], r.heap[i] = r.heap[i], r.heap[parent]
		i = parent
	}
}

// pop removes and returns the dirty task with the highest topo index.
//
//caft:zeroalloc
func (r *Ranker) pop() int32 {
	t := r.heap[0]
	r.inHeap[t] = false
	last := len(r.heap) - 1
	r.heap[0] = r.heap[last]
	r.heap = r.heap[:last]
	idx := r.c.TopoIndex()
	i := 0
	for {
		l, rr := 2*i+1, 2*i+2
		big := i
		if l < last && idx[r.heap[l]] > idx[r.heap[big]] {
			big = l
		}
		if rr < last && idx[r.heap[rr]] > idx[r.heap[big]] {
			big = rr
		}
		if big == i {
			break
		}
		r.heap[i], r.heap[big] = r.heap[big], r.heap[i]
		i = big
	}
	return t
}
