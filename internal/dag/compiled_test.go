package dag

import (
	"math/rand"
	"testing"
)

// The [][]Edge longest-path walks below are the reference the compiled
// TopLevelsInto/BottomLevelsInto are checked against, bit for bit.

// TopLevels returns tℓ(t) for every task: the length of the longest path
// from an entry node to t, excluding t's own cost (paper §5). Entry
// tasks have top level 0.
func (g *DAG) TopLevels(comp []float64, comm func(Edge) float64) []float64 {
	order, err := g.TopoOrder()
	if err != nil {
		panic(err)
	}
	tl := make([]float64, g.NumTasks())
	for _, t := range order {
		for _, e := range g.pred[t] {
			cand := tl[e.From] + comp[e.From] + comm(e)
			if cand > tl[t] {
				tl[t] = cand
			}
		}
	}
	return tl
}

// BottomLevels returns bℓ(t) for every task: the length of the longest
// path from t to an exit node, including t's own cost (paper §5). Exit
// tasks have bottom level equal to their cost.
func (g *DAG) BottomLevels(comp []float64, comm func(Edge) float64) []float64 {
	order, err := g.TopoOrder()
	if err != nil {
		panic(err)
	}
	bl := make([]float64, g.NumTasks())
	for i := len(order) - 1; i >= 0; i-- {
		t := order[i]
		bl[t] = comp[t]
		for _, e := range g.succ[t] {
			cand := comp[t] + comm(e) + bl[e.To]
			if cand > bl[t] {
				bl[t] = cand
			}
		}
	}
	return bl
}

// maxLevel returns the largest of the levels (0 for none): over bottom
// levels, the critical-path length.
func maxLevel(levels []float64) float64 {
	best := 0.0
	for _, v := range levels {
		if v > best {
			best = v
		}
	}
	return best
}

func TestCompiledMatchesDAG(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomDAG(rng, 200)
	c, err := g.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if c.NumTasks() != g.NumTasks() || c.NumEdges() != g.NumEdges() {
		t.Fatalf("size mismatch: compiled %d/%d vs %d/%d", c.NumTasks(), c.NumEdges(), g.NumTasks(), g.NumEdges())
	}
	order, _ := g.TopoOrder()
	topo := c.Topo()
	for i, tid := range order {
		if TaskID(topo[i]) != tid {
			t.Fatalf("topo[%d] = %d, want %d", i, topo[i], tid)
		}
		if int(c.TopoIndex()[tid]) != i {
			t.Fatalf("topoIdx[%d] = %d, want %d", tid, c.TopoIndex()[tid], i)
		}
	}
	for task := 0; task < g.NumTasks(); task++ {
		tid := TaskID(task)
		sTo, sVol := c.Succ(tid)
		if len(sTo) != len(g.Succ(tid)) || len(sVol) != len(sTo) {
			t.Fatalf("task %d: succ row lengths %d/%d, want %d", task, len(sTo), len(sVol), len(g.Succ(tid)))
		}
		for k, e := range g.Succ(tid) {
			if TaskID(sTo[k]) != e.To || sVol[k] != e.Volume {
				t.Fatalf("task %d succ[%d]: got (%d, %g), want (%d, %g)", task, k, sTo[k], sVol[k], e.To, e.Volume)
			}
		}
		pFrom, pVol := c.Pred(tid)
		if len(pFrom) != g.InDegree(tid) || c.InDegree(tid) != g.InDegree(tid) {
			t.Fatalf("task %d: pred row length %d, want %d", task, len(pFrom), g.InDegree(tid))
		}
		for k, e := range g.Pred(tid) {
			if TaskID(pFrom[k]) != e.From || pVol[k] != e.Volume {
				t.Fatalf("task %d pred[%d]: got (%d, %g), want (%d, %g)", task, k, pFrom[k], pVol[k], e.From, e.Volume)
			}
		}
	}
}

func TestCompiledLevelsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randomDAG(rng, 300)
	c, err := g.Compile()
	if err != nil {
		t.Fatal(err)
	}
	comp := make([]float64, g.NumTasks())
	for i := range comp {
		comp[i] = 1 + rng.Float64()*20
	}
	const unit = 0.37
	comm := func(e Edge) float64 { return e.Volume * unit }

	wantTL := g.TopLevels(comp, comm)
	gotTL := c.TopLevelsInto(make([]float64, g.NumTasks()), comp, unit)
	wantBL := g.BottomLevels(comp, comm)
	gotBL := c.BottomLevelsInto(make([]float64, g.NumTasks()), comp, unit)
	for i := range wantTL {
		if gotTL[i] != wantTL[i] {
			t.Fatalf("top level of %d: got %v, want %v (must be bit-identical)", i, gotTL[i], wantTL[i])
		}
		if gotBL[i] != wantBL[i] {
			t.Fatalf("bottom level of %d: got %v, want %v (must be bit-identical)", i, gotBL[i], wantBL[i])
		}
	}
}

func TestCompileCaching(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1)
	c1, err := g.Compile()
	if err != nil {
		t.Fatal(err)
	}
	c2, _ := g.Compile()
	if c1 != c2 {
		t.Fatal("second Compile on an unchanged graph should return the cached view")
	}
	g.AddEdge(1, 2, 1)
	c3, _ := g.Compile()
	if c3 == c1 {
		t.Fatal("Compile after AddEdge should rebuild the view")
	}
	if c3.NumEdges() != 2 {
		t.Fatalf("rebuilt view has %d edges, want 2", c3.NumEdges())
	}
	g.AddTask("x")
	c4, _ := g.Compile()
	if c4 == c3 || c4.NumTasks() != 4 {
		t.Fatal("Compile after AddTask should rebuild the view")
	}
}

func TestCompileCyclic(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 0, 1)
	if _, err := g.Compile(); err != ErrCycle {
		t.Fatalf("Compile on a cyclic graph: got %v, want ErrCycle", err)
	}
}

func TestLazyNames(t *testing.T) {
	g := New(3)
	for i, want := range []string{"t0", "t1", "t2"} {
		if got := g.Name(TaskID(i)); got != want {
			t.Fatalf("Name(%d) = %q, want %q", i, got, want)
		}
	}
	id := g.AddTask("extra")
	if got := g.Name(id); got != "extra" {
		t.Fatalf("explicit name: got %q, want %q", got, "extra")
	}
	if got := g.Name(1); got != "t1" {
		t.Fatalf("generated name after AddTask: got %q, want %q", got, "t1")
	}
	if g.NumTasks() != 4 {
		t.Fatalf("NumTasks = %d, want 4", g.NumTasks())
	}
}

func TestLazyNameConstructionAllocs(t *testing.T) {
	// New must not pay one string allocation per task: the whole point
	// of lazy names. 4 allocs = DAG struct + succ + pred (+ slack).
	allocs := testing.AllocsPerRun(10, func() {
		g := New(100000)
		_ = g
	})
	if allocs > 4 {
		t.Fatalf("New(1e5) costs %v allocs; generated names must be lazy", allocs)
	}
}

func TestRankerMatchesBottomLevels(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := randomDAG(rng, 250)
	c, err := g.Compile()
	if err != nil {
		t.Fatal(err)
	}
	node := make([]float64, g.NumTasks())
	for i := range node {
		node[i] = 1 + rng.Float64()*10
	}
	const unit = 0.5
	r := NewRanker(c)
	r.Reset(node, unit)
	want := g.BottomLevels(node, func(e Edge) float64 { return e.Volume * unit })
	for i := range want {
		if r.Rank(TaskID(i)) != want[i] {
			t.Fatalf("rank of %d: got %v, want bottom level %v", i, r.Rank(TaskID(i)), want[i])
		}
	}
}

// refRanks is the Ranker's definition evaluated from scratch over the
// [][]Edge adjacency: a disabled task ranks 0 and is skipped as a
// successor.
func refRanks(g *DAG, node []float64, unit float64, disabled []bool) []float64 {
	order, err := g.TopoOrder()
	if err != nil {
		panic(err)
	}
	rank := make([]float64, g.NumTasks())
	for i := len(order) - 1; i >= 0; i-- {
		t := order[i]
		if disabled[t] {
			continue
		}
		rank[t] = node[t]
		for _, e := range g.Succ(t) {
			if disabled[e.To] {
				continue
			}
			if cand := node[t] + e.Volume*unit + rank[e.To]; cand > rank[t] {
				rank[t] = cand
			}
		}
	}
	return rank
}

func TestRankerIncrementalMatchesFullRecompute(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	g := randomDAG(rng, 250)
	c, err := g.Compile()
	if err != nil {
		t.Fatal(err)
	}
	node := make([]float64, g.NumTasks())
	for i := range node {
		node[i] = 1 + rng.Float64()*10
	}
	const unit = 0.8
	r := NewRanker(c)
	r.Reset(node, unit)
	disabled := make([]bool, g.NumTasks())

	for round := 0; round < 50; round++ {
		if rng.Intn(8) == 0 {
			// Reset re-enables everything under fresh node costs.
			for i := range node {
				node[i] = 1 + rng.Float64()*10
				disabled[i] = false
			}
			r.Reset(node, unit)
		}
		t1 := TaskID(rng.Intn(g.NumTasks()))
		r.Disable(t1)
		disabled[t1] = true
		cone := r.Repair()
		if cone > g.NumTasks() {
			t.Fatalf("round %d: dirty cone %d exceeds v=%d", round, cone, g.NumTasks())
		}
		want := refRanks(g, node, unit, disabled)
		for i := 0; i < g.NumTasks(); i++ {
			if r.Rank(TaskID(i)) != want[i] {
				t.Fatalf("round %d: rank of %d diverged: incremental %v, full %v",
					round, i, r.Rank(TaskID(i)), want[i])
			}
		}
	}
}

func TestRankerDirtyConeIsLocal(t *testing.T) {
	// On a long chain, disabling the exit re-ranks the whole chain, but
	// disabling a task near the entry touches only its short prefix.
	const v = 1000
	g := New(v)
	for i := 0; i < v-1; i++ {
		g.AddEdge(TaskID(i), TaskID(i+1), 1)
	}
	c, err := g.Compile()
	if err != nil {
		t.Fatal(err)
	}
	node := make([]float64, v)
	for i := range node {
		node[i] = 1
	}
	r := NewRanker(c)
	r.Reset(node, 1)
	r.Disable(5)
	if cone := r.Repair(); cone > 7 {
		t.Fatalf("disabling task 5 of a chain re-ranked %d tasks; want <= 7 (the dirty cone)", cone)
	}
}

// TestRankRepairAllocPin pins the steady-state crash path: after
// warmup, reset + disable + repair allocates nothing.
func TestRankRepairAllocPin(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := randomDAG(rng, 400)
	c, err := g.Compile()
	if err != nil {
		t.Fatal(err)
	}
	node := make([]float64, g.NumTasks())
	for i := range node {
		node[i] = 2
	}
	r := NewRanker(c)
	// Warm the dirty heap to steady capacity.
	for i := 0; i < 10; i++ {
		r.Reset(node, 1)
		r.Disable(TaskID(i))
		r.Repair()
	}
	allocs := testing.AllocsPerRun(20, func() {
		r.Reset(node, 1)
		r.Disable(3)
		r.Repair()
	})
	if allocs != 0 {
		t.Fatalf("rank maintenance allocates %v per crash; pinned at 0", allocs)
	}
}

func BenchmarkCompile(b *testing.B) {
	rng := rand.New(rand.NewSource(41))
	g := randomDAG(rng, 10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.compiled = nil
		if _, err := g.Compile(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRankReset(b *testing.B) {
	rng := rand.New(rand.NewSource(43))
	g := randomDAG(rng, 10000)
	c, err := g.Compile()
	if err != nil {
		b.Fatal(err)
	}
	node := make([]float64, g.NumTasks())
	for i := range node {
		node[i] = 1
	}
	r := NewRanker(c)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(node, 1)
	}
}

// BenchmarkRankRepair measures one crash's rank maintenance: Disable
// plus Repair of the dirty cone, each from freshly Reset ranks (the
// Reset runs with the timer stopped; BenchmarkRankReset measures it).
func BenchmarkRankRepair(b *testing.B) {
	rng := rand.New(rand.NewSource(47))
	g := randomDAG(rng, 10000)
	c, err := g.Compile()
	if err != nil {
		b.Fatal(err)
	}
	node := make([]float64, g.NumTasks())
	for i := range node {
		node[i] = 1
	}
	r := NewRanker(c)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r.Reset(node, 1)
		b.StartTimer()
		r.Disable(TaskID(i % g.NumTasks()))
		r.Repair()
	}
}
