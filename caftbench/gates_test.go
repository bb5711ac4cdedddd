package main

import (
	"bytes"
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"caft/internal/gen"
	"caft/internal/platform"
	"caft/internal/sched"
	"caft/internal/service"
	"caft/internal/timeline"
)

// flipByte returns a copy of b with one byte in the middle changed.
func flipByte(b []byte) []byte {
	out := bytes.Clone(b)
	out[len(out)/2] ^= 1
	return out
}

func TestRebuildGateTripsOnMutatedByte(t *testing.T) {
	svc, err := service.New(service.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	req := coldRequest(9, 3)
	served, err := svc.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	var st stageTimes
	if err := checkRebuild(req, served, &st); err != nil {
		t.Fatalf("rebuild of the served response: %v", err)
	}
	for i, d := range st {
		if d <= 0 {
			t.Errorf("stage %s took %d ns", stageNames[i], d)
		}
	}
	if err := checkRebuild(req, flipByte(served), &st); err == nil {
		t.Fatal("a mutated response byte passed the rebuild gate")
	}
}

// mutatingHandler serves h's responses with one byte changed.
type mutatingHandler struct{ h http.Handler }

func (m mutatingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec := httptest.NewRecorder()
	m.h.ServeHTTP(rec, r)
	w.WriteHeader(rec.Code)
	w.Write(flipByte(rec.Body.Bytes()))
}

func TestHotGatesTripOnMutatedByte(t *testing.T) {
	w := &servingRun{cfg: servingConfig{nodes: 1}, seed: 4}
	if err := w.pinReference(); err != nil {
		t.Fatal(err)
	}
	defer w.shadow.Close()
	svc, err := service.New(service.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	srv := httptest.NewServer(mutatingHandler{service.NewHandler(svc)})
	defer srv.Close()
	if w.bodies, err = marshalAll(hotProblems, func(i int) *service.Request { return hotRequest(w.seed, i) }); err != nil {
		t.Fatal(err)
	}
	w.clients = []*client{newClient(0, strings.TrimPrefix(srv.URL, "http://"), w.seed)}
	defer w.clients[0].close()
	if err := w.warm(); err != nil {
		t.Fatal(err)
	}
	if g := w.gateSetup.result("setup-identity"); g.err == nil || g.checks != hotProblems {
		t.Fatalf("set-up identity gate: %d checks, err %v; want %d checks and a failure", g.checks, g.err, hotProblems)
	}
	if got := w.ledger.mismatches.Load(); got != hotProblems {
		t.Fatalf("ledger mismatches = %d, want %d", got, hotProblems)
	}
}

func TestTimelineGateTripsOnOverlap(t *testing.T) {
	p := &sched.Problem{Plat: platform.New(2, 1), Exec: platform.ExecMatrix{{2, 2}, {2, 2}}}
	for _, pol := range policies {
		p.Policy = pol
		for _, tc := range []struct {
			start2  float64
			overlap bool
		}{{2, false}, {5, false}, {1, true}} {
			s := &sched.Schedule{P: p, Reps: [][]sched.Replica{
				{{Task: 0, Proc: 0, Start: 0, Finish: 2, Seq: 0}},
				{{Task: 1, Proc: 0, Start: tc.start2, Finish: tc.start2 + 2, Seq: 1}},
			}}
			tt, err := replayTimelines(s, 1)
			if (err != nil) != tc.overlap {
				t.Errorf("%s, second start %v: err %v, want overlap=%t", pol, tc.start2, err, tc.overlap)
			}
			if err == nil && tt.ops != 2 {
				t.Errorf("%s: %d ops, want 2", pol, tt.ops)
			}
		}
	}
}

func TestTimelineGatePassesRealSchedules(t *testing.T) {
	g, err := gen.Spec{Kind: "random", MinTasks: 200, MaxTasks: 200, Seed: 1}.Build()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	plat := platform.NewRandom(rng, 6, 0.5, 1)
	exec := platform.GenExecForGranularity(rng, g, plat, 1, platform.DefaultHeterogeneity)
	for _, pol := range policies {
		for _, alg := range scaleAlgs {
			d, _ := sched.Lookup(alg)
			eps := 1
			if !d.Caps.AcceptsEps {
				eps = 0
			}
			p := &sched.Problem{G: g, Plat: plat, Exec: exec, Policy: pol, ProbeWidth: 3}
			s, err := d.New(p, eps, rand.New(rand.NewSource(3)))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := replayTimelines(s, 0); err != nil {
				t.Errorf("%s %s: %v", alg, pol, err)
			}
		}
	}
}

func TestDigestGate(t *testing.T) {
	want, err := parseDigests(strings.NewReader(digestsTSV))
	if err != nil {
		t.Fatal(err)
	}
	if n := scaleSeedPool * len(scaleSizes) * len(policies) * len(scaleAlgs); len(want) != n {
		t.Fatalf("digests.tsv has %d entries, want %d", len(want), n)
	}
	// The recorded digest of the cheapest cell reproduces.
	in, err := buildScale(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := sched.Lookup(scaleAlgs[0])
	s, err := d.New(in[0].probs[0], 0, cellRNG(0, 0, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	k := digestKey{0, in[0].v, timeline.Append.String(), scaleAlgs[0]}
	if err := checkDigest(want, k, digestOf(s)); err != nil {
		t.Fatal(err)
	}
	// A changed message count trips it, and so does an unrecorded cell.
	f := strings.Split(digestOf(s), "\t")
	f[2] += "0"
	if err := checkDigest(want, k, strings.Join(f, "\t")); err == nil {
		t.Fatal("a changed digest passed")
	}
	k.seed = scaleSeedPool
	if err := checkDigest(want, k, digestOf(s)); err == nil {
		t.Fatal("an unrecorded cell passed")
	}
}
