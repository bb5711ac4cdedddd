package dag

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// diamond builds t0 -> {t1, t2} -> t3 with unit volumes.
func diamond() *DAG {
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(0, 2, 1)
	g.AddEdge(1, 3, 1)
	g.AddEdge(2, 3, 1)
	return g
}

func TestAddTaskAndEdgeCounts(t *testing.T) {
	g := diamond()
	if g.NumTasks() != 4 {
		t.Fatalf("NumTasks = %d, want 4", g.NumTasks())
	}
	if g.NumEdges() != 4 {
		t.Fatalf("NumEdges = %d, want 4", g.NumEdges())
	}
	if len(g.Succ(0)) != 2 || g.InDegree(0) != 0 {
		t.Errorf("task 0 degrees = out %d in %d, want 2, 0", len(g.Succ(0)), g.InDegree(0))
	}
	if g.InDegree(3) != 2 || len(g.Succ(3)) != 0 {
		t.Errorf("task 3 degrees = in %d out %d, want 2, 0", g.InDegree(3), len(g.Succ(3)))
	}
}

func TestEntriesExits(t *testing.T) {
	g := diamond()
	if e := g.Entries(); len(e) != 1 || e[0] != 0 {
		t.Errorf("Entries = %v, want [0]", e)
	}
	if x := g.Exits(); len(x) != 1 || x[0] != 3 {
		t.Errorf("Exits = %v, want [3]", x)
	}
}

func TestTopoOrderDeterministic(t *testing.T) {
	g := diamond()
	o1, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	o2, _ := g.TopoOrder()
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatalf("non-deterministic topo order: %v vs %v", o1, o2)
		}
	}
	pos := make(map[TaskID]int)
	for i, id := range o1 {
		pos[id] = i
	}
	for _, e := range g.Edges() {
		if pos[e.From] >= pos[e.To] {
			t.Errorf("edge %d->%d violates topo order %v", e.From, e.To, o1)
		}
	}
}

func TestTopoOrderCycle(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 0, 1)
	if _, err := g.TopoOrder(); err != ErrCycle {
		t.Fatalf("TopoOrder on cycle: err = %v, want ErrCycle", err)
	}
	if err := g.Validate(); err != ErrCycle {
		t.Fatalf("Validate on cycle: err = %v, want ErrCycle", err)
	}
}

func TestSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddEdge(1,1) did not panic")
		}
	}()
	g := New(2)
	g.AddEdge(1, 1, 1)
}

func TestOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddEdge out of range did not panic")
		}
	}()
	g := New(2)
	g.AddEdge(0, 5, 1)
}

func TestLevelsDiamond(t *testing.T) {
	g := diamond()
	comp := []float64{1, 2, 3, 4}
	comm := func(e Edge) float64 { return e.Volume * 10 }
	tl := g.TopLevels(comp, comm)
	// tl(0)=0; tl(1)=1+10=11; tl(2)=11; tl(3)=max(11+2,11+3)+10=24.
	want := []float64{0, 11, 11, 24}
	for i := range want {
		if tl[i] != want[i] {
			t.Errorf("tl[%d] = %v, want %v", i, tl[i], want[i])
		}
	}
	bl := g.BottomLevels(comp, comm)
	// bl(3)=4; bl(2)=3+10+4=17; bl(1)=2+10+4=16; bl(0)=1+10+17=28.
	wantBL := []float64{28, 16, 17, 4}
	for i := range wantBL {
		if bl[i] != wantBL[i] {
			t.Errorf("bl[%d] = %v, want %v", i, bl[i], wantBL[i])
		}
	}
}

func TestLevelConsistency(t *testing.T) {
	// For every task, tl(t) + bl(t) <= critical path length, with equality
	// on at least one path.
	g := diamond()
	comp := []float64{5, 1, 9, 2}
	comm := func(e Edge) float64 { return 3 * e.Volume }
	tl := g.TopLevels(comp, comm)
	bl := g.BottomLevels(comp, comm)
	cp := maxLevel(bl)
	hit := false
	for i := range tl {
		s := tl[i] + bl[i]
		if s > cp+1e-9 {
			t.Errorf("tl+bl = %v at task %d exceeds CP %v", s, i, cp)
		}
		if s == cp {
			hit = true
		}
	}
	if !hit {
		t.Error("no task lies on the critical path")
	}
}

func TestDepthsAndWidth(t *testing.T) {
	g := diamond()
	d := g.Depths()
	want := []int{0, 1, 1, 2}
	for i := range want {
		if d[i] != want[i] {
			t.Errorf("depth[%d] = %d, want %d", i, d[i], want[i])
		}
	}
	if w := g.Width(); w != 2 {
		t.Errorf("Width = %d, want 2", w)
	}
}

func TestWidthChainAndFork(t *testing.T) {
	chain := New(5)
	for i := 0; i < 4; i++ {
		chain.AddEdge(TaskID(i), TaskID(i+1), 1)
	}
	if w := chain.Width(); w != 1 {
		t.Errorf("chain width = %d, want 1", w)
	}
	fork := New(6)
	for i := 1; i < 6; i++ {
		fork.AddEdge(0, TaskID(i), 1)
	}
	if w := fork.Width(); w != 5 {
		t.Errorf("fork width = %d, want 5", w)
	}
}

func TestGranularity(t *testing.T) {
	g := diamond()
	// Total volume 4, maxDelay 2 => slowest comm sum 8.
	// slowest comp sum = 16 => granularity 2.
	slow := []float64{4, 4, 4, 4}
	if got := g.Granularity(slow, 2); got != 2 {
		t.Errorf("Granularity = %v, want 2", got)
	}
	empty := New(3)
	if got := empty.Granularity([]float64{1, 1, 1}, 2); got != 0 {
		t.Errorf("Granularity with no edges = %v, want 0", got)
	}
}

func TestTotalVolume(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 2.5)
	g.AddEdge(1, 2, 7.5)
	if got := g.TotalVolume(); got != 10 {
		t.Errorf("TotalVolume = %v, want 10", got)
	}
}

func TestEdgesSorted(t *testing.T) {
	g := New(3)
	g.AddEdge(1, 2, 1)
	g.AddEdge(0, 2, 1)
	g.AddEdge(0, 1, 1)
	es := g.Edges()
	if es[0].From != 0 || es[0].To != 1 || es[1].To != 2 || es[2].From != 1 {
		t.Errorf("Edges not sorted: %+v", es)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	g := diamond()
	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumTasks() != g.NumTasks() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip mismatch: %d/%d vs %d/%d tasks/edges",
			g2.NumTasks(), g2.NumEdges(), g.NumTasks(), g.NumEdges())
	}
	for i, e := range g.Edges() {
		if g2.Edges()[i] != e {
			t.Errorf("edge %d mismatch: %+v vs %+v", i, g2.Edges()[i], e)
		}
	}
}

func TestJSONRejectsCycle(t *testing.T) {
	raw := []byte(`{"tasks":["a","b"],"edges":[{"from":0,"to":1,"volume":1},{"from":1,"to":0,"volume":1}]}`)
	var g DAG
	if err := g.UnmarshalJSON(raw); err == nil {
		t.Fatal("UnmarshalJSON accepted a cyclic graph")
	}
}

func TestJSONRejectsBadEdge(t *testing.T) {
	raw := []byte(`{"tasks":["a"],"edges":[{"from":0,"to":9,"volume":1}]}`)
	var g DAG
	if err := g.UnmarshalJSON(raw); err == nil {
		t.Fatal("UnmarshalJSON accepted out-of-range edge")
	}
}

// randomDAG builds a random forward-edged graph for property tests.
func randomDAG(rng *rand.Rand, n int) *DAG {
	g := New(n)
	for i := 1; i < n; i++ {
		// At least one predecessor to keep it connected-ish.
		p := rng.Intn(i)
		g.AddEdge(TaskID(p), TaskID(i), 1+rng.Float64()*10)
		for k := 0; k < rng.Intn(3); k++ {
			q := rng.Intn(i)
			if q != p {
				g.AddEdge(TaskID(q), TaskID(i), 1+rng.Float64()*10)
			}
		}
	}
	return g
}

func TestQuickTopoOrderValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomDAG(rng, 2+rng.Intn(40))
		order, err := g.TopoOrder()
		if err != nil {
			return false
		}
		pos := make(map[TaskID]int)
		for i, id := range order {
			pos[id] = i
		}
		for _, e := range g.Edges() {
			if pos[e.From] >= pos[e.To] {
				return false
			}
		}
		return g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickLevelsNonNegativeAndBounded(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomDAG(rng, 2+rng.Intn(40))
		comp := make([]float64, g.NumTasks())
		for i := range comp {
			comp[i] = rng.Float64() * 10
		}
		comm := func(e Edge) float64 { return e.Volume }
		tl := g.TopLevels(comp, comm)
		bl := g.BottomLevels(comp, comm)
		cp := maxLevel(bl)
		for i := range tl {
			if tl[i] < 0 || bl[i] < comp[i] {
				return false
			}
			if tl[i]+bl[i] > cp+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
