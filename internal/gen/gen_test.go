package gen

import (
	"math/rand"
	"testing"
	"testing/quick"

	"caft/internal/dag"
)

func TestRandomLayeredWithinParams(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		g := RandomLayered(rng, DefaultParams)
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		v := g.NumTasks()
		if v < DefaultParams.MinTasks || v > DefaultParams.MaxTasks {
			t.Fatalf("v = %d outside [%d,%d]", v, DefaultParams.MinTasks, DefaultParams.MaxTasks)
		}
		for id := 0; id < v; id++ {
			for _, e := range g.Succ(dag.TaskID(id)) {
				if e.Volume < DefaultParams.MinVolume || e.Volume > DefaultParams.MaxVolume {
					t.Fatalf("volume %v outside [%v,%v]", e.Volume, DefaultParams.MinVolume, DefaultParams.MaxVolume)
				}
			}
		}
		// Every non-entry task must have a predecessor; task 0 is entry.
		for id := 1; id < v; id++ {
			if g.InDegree(dag.TaskID(id)) == 0 && len(g.Succ(dag.TaskID(id))) == 0 {
				t.Fatalf("task %d isolated", id)
			}
		}
	}
}

func TestRandomLayeredEdgeDensity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := RandomLayered(rng, DefaultParams)
	v, e := g.NumTasks(), g.NumEdges()
	// Degree in [1,3] gives roughly e in [v, 3v]; allow the guarantee
	// edges a little slack.
	if e < v-1 || e > 3*v+10 {
		t.Fatalf("e = %d implausible for v = %d", e, v)
	}
}

func TestRandomLayeredDeterministicPerSeed(t *testing.T) {
	g1 := RandomLayered(rand.New(rand.NewSource(42)), DefaultParams)
	g2 := RandomLayered(rand.New(rand.NewSource(42)), DefaultParams)
	if g1.NumTasks() != g2.NumTasks() || g1.NumEdges() != g2.NumEdges() {
		t.Fatal("same seed produced different graphs")
	}
	e1, e2 := g1.Edges(), g2.Edges()
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("edge %d differs: %+v vs %+v", i, e1[i], e2[i])
		}
	}
}

func TestFork(t *testing.T) {
	g := Fork(5, 10)
	if g.NumTasks() != 6 || g.NumEdges() != 5 {
		t.Fatalf("fork(5): %d tasks %d edges", g.NumTasks(), g.NumEdges())
	}
	if len(g.Entries()) != 1 || len(g.Exits()) != 5 {
		t.Fatalf("fork shape wrong: entries %v exits %v", g.Entries(), g.Exits())
	}
	for id := 1; id <= 5; id++ {
		if g.InDegree(dag.TaskID(id)) != 1 {
			t.Fatalf("leaf %d in-degree %d", id, g.InDegree(dag.TaskID(id)))
		}
	}
}

func TestJoin(t *testing.T) {
	g := Join(4, 10)
	if len(g.Entries()) != 4 || len(g.Exits()) != 1 {
		t.Fatalf("join shape wrong: entries %v exits %v", g.Entries(), g.Exits())
	}
	if g.InDegree(4) != 4 {
		t.Fatalf("sink in-degree %d", g.InDegree(4))
	}
}

func TestChain(t *testing.T) {
	g := Chain(7, 3)
	if g.NumTasks() != 7 || g.NumEdges() != 6 {
		t.Fatalf("chain(7): %d tasks %d edges", g.NumTasks(), g.NumEdges())
	}
	if g.Width() != 1 {
		t.Fatalf("chain width %d", g.Width())
	}
}

func TestRandomOutForestInDegreeAtMostOne(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(60)
		roots := 1 + rng.Intn(3)
		g := RandomOutForest(rng, n, roots, 0, 50, 150)
		if g.Validate() != nil {
			return false
		}
		for id := 0; id < n; id++ {
			if g.InDegree(dag.TaskID(id)) > 1 {
				return false
			}
		}
		// e = n - roots exactly (each non-root gets one parent).
		eff := roots
		if eff > n {
			eff = n
		}
		return g.NumEdges() == n-eff
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDiamond(t *testing.T) {
	g := Diamond(3, 4, 5)
	if g.NumTasks() != 2+12 {
		t.Fatalf("diamond tasks = %d", g.NumTasks())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(g.Entries()) != 1 || len(g.Exits()) != 1 {
		t.Fatal("diamond must have single entry and exit")
	}
	d := g.Depths()
	if d[g.Exits()[0]] != 5 { // src + 4 chain + sink => depth 5
		t.Fatalf("sink depth = %d, want 5", d[g.Exits()[0]])
	}
}

func TestStencil(t *testing.T) {
	g := Stencil(3, 4, 2)
	if g.NumTasks() != 12 {
		t.Fatalf("stencil tasks = %d", g.NumTasks())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Interior task (1,1) = id 5 depends on (0,1) and (0,0).
	if g.InDegree(5) != 2 {
		t.Fatalf("in-degree of interior task = %d, want 2", g.InDegree(5))
	}
}

func TestMontage(t *testing.T) {
	g := Montage(4, 100)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// 4 proj + 3 diff + 1 model + 4 bg + add + shrink = 14.
	if g.NumTasks() != 14 {
		t.Fatalf("montage tasks = %d, want 14", g.NumTasks())
	}
	if len(g.Exits()) != 1 {
		t.Fatalf("montage exits = %v", g.Exits())
	}
	if g.Name(0) != "mProject0" {
		t.Fatalf("task 0 name = %q", g.Name(0))
	}
}

func TestFFT(t *testing.T) {
	g := FFT(3, 10) // 8-point FFT: 4 ranks x 8 tasks.
	if g.NumTasks() != 32 {
		t.Fatalf("fft tasks = %d, want 32", g.NumTasks())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Each non-rank-0 task has exactly two predecessors.
	for id := 8; id < 32; id++ {
		if g.InDegree(dag.TaskID(id)) != 2 {
			t.Fatalf("fft task %d in-degree %d, want 2", id, g.InDegree(dag.TaskID(id)))
		}
	}
	if w := g.Width(); w != 8 {
		t.Fatalf("fft width = %d, want 8", w)
	}
}
