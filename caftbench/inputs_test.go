package main

import (
	"bytes"
	"math"
	"sync"
	"testing"

	"caft/internal/service"
)

func bodies(t *testing.T, n int, req func(i int) *service.Request) [][]byte {
	t.Helper()
	b, err := marshalAll(n, req)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBodiesArePureFunctionsOfTheSeed(t *testing.T) {
	for _, tc := range []struct {
		name string
		req  func(seed int64, i int) *service.Request
	}{{"hot", hotRequest}, {"cold", coldRequest}} {
		t.Run(tc.name, func(t *testing.T) {
			gen := func(seed int64) [][]byte {
				return bodies(t, 50, func(i int) *service.Request { return tc.req(seed, i) })
			}
			a, b, c := gen(7), gen(7), gen(8)
			seen := make(map[string]bool)
			for i := range a {
				if !bytes.Equal(a[i], b[i]) {
					t.Fatalf("body %d differs between two generations from seed 7", i)
				}
				if bytes.Equal(a[i], c[i]) {
					t.Fatalf("body %d is the same for seeds 7 and 8", i)
				}
				if seen[string(a[i])] {
					t.Fatalf("body %d repeats an earlier body", i)
				}
				seen[string(a[i])] = true
			}
		})
	}
}

func TestScaleGraphsArePureFunctionsOfTheSeed(t *testing.T) {
	const v = 300
	build := func(seed int64) string {
		g, err := scaleSpec(scalePoolSeed(seed), v).Build()
		if err != nil {
			t.Fatal(err)
		}
		if g.NumTasks() != v {
			t.Fatalf("graph has %d tasks, want %d", g.NumTasks(), v)
		}
		b, err := g.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if build(3) != build(3) {
		t.Fatal("seed 3 built two different graphs")
	}
	if build(3) == build(4) {
		t.Fatal("seeds 3 and 4 built the same graph")
	}
	if build(3) != build(3+scaleSeedPool) {
		t.Fatal("seeds in the same pool class must share the recorded graph")
	}
	for _, s := range []int64{-1, 0, scaleSeedPool, 1 << 40} {
		if p := scalePoolSeed(s); p < 0 || p >= scaleSeedPool {
			t.Fatalf("scalePoolSeed(%d) = %d, outside [0, %d)", s, p, scaleSeedPool)
		}
	}
}

func TestPickerFollowsZipf(t *testing.T) {
	const n, draws = 100, 200000
	a, b := newPicker(5, 0, n), newPicker(5, 0, n)
	other := newPicker(5, 1, n)
	counts := make([]float64, n)
	same := 0
	for i := 0; i < draws; i++ {
		x, y := a.next(), b.next()
		if x != y {
			t.Fatalf("draw %d: same seed and client gave %d and %d", i, x, y)
		}
		if x < 0 || x >= n {
			t.Fatalf("draw %d out of range: %d", i, x)
		}
		if other.next() == x {
			same++
		}
		counts[x]++
	}
	if same > draws/2 {
		t.Fatalf("clients 0 and 1 agree on %d of %d draws: streams are not independent", same, draws)
	}
	// P(k) is proportional to (1+k)^-s.
	norm := 0.0
	for k := 0; k < n; k++ {
		norm += math.Pow(float64(1+k), -zipfS)
	}
	for _, k := range []int{0, 1, 2, 9, 49} {
		want := math.Pow(float64(1+k), -zipfS) / norm
		got := counts[k] / draws
		if math.Abs(got-want) > 0.1*want+0.002 {
			t.Errorf("rank %d: frequency %.4f, want %.4f", k, got, want)
		}
	}
}

func TestLedgerPinsAndDetects(t *testing.T) {
	l := newLedger(3)
	if !l.check(0, []byte("alpha")) || !l.check(0, []byte("alpha")) {
		t.Fatal("the first bytes pin, identical bytes match")
	}
	if !l.check(1, []byte("beta")) {
		t.Fatal("problems pin independently")
	}
	if l.check(0, []byte("alphA")) {
		t.Fatal("a mutated byte must not match the pin")
	}
	if got := l.mismatches.Load(); got != 1 {
		t.Fatalf("mismatches = %d, want 1", got)
	}
	// Concurrent first serves of one problem: exactly one pin wins and
	// every differing body is a mismatch.
	l = newLedger(1)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.check(0, []byte{byte(i % 2)})
		}()
	}
	wg.Wait()
	if got := l.mismatches.Load(); got != 4 {
		t.Fatalf("mismatches = %d, want 4", got)
	}
}

func TestInterleave(t *testing.T) {
	got := interleave([][]int{{0, 3, 4, 7}, {1}, {2, 5, 6}})
	want := []int{0, 1, 2, 3, 5, 4, 6, 7}
	if len(got) != len(want) {
		t.Fatalf("interleave = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("interleave = %v, want %v", got, want)
		}
	}
}
