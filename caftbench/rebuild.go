package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"time"

	"caft/internal/expt"
	"caft/internal/failure"
	"caft/internal/platform"
	"caft/internal/sched"
	"caft/internal/service"
	"caft/internal/timeline"
)

// stageNames are the serve-cold compute stages, in stageTimes order.
var stageNames = [...]string{"gen.build", "platform.build", "sched.schedule", "expt.reliability", "service.encode"}

// stageTimes holds one rebuild's stage durations in ns.
type stageTimes [len(stageNames)]int64

// rebuildCold recomputes a serve-cold response through the public
// library calls, timing each stage. The request must be of the
// coldRequest shape: a generated graph, random platform delays, the
// default granularity and model, and a homogeneous exponential
// reliability spec. key is copied from the served response, because the
// canonical request hash is internal to the service. The result is
// byte-identical to what caftd serves only if the stages do the same
// work, which is what makes the stage rows trustworthy.
func rebuildCold(req *service.Request, key string, mcWorkers int, st *stageTimes) ([]byte, error) {
	t := time.Now()
	lap := func(i int) {
		now := time.Now()
		st[i] = int64(now.Sub(t))
		t = now
	}
	g, err := req.Generator.Build()
	if err != nil {
		return nil, err
	}
	lap(0)
	rng := rand.New(rand.NewSource(req.Seed))
	plat := platform.NewRandom(rng, req.Platform.M, req.Platform.DelayLo, req.Platform.DelayHi)
	exec := platform.GenExecForGranularity(rng, g, plat, 1, platform.DefaultHeterogeneity)
	p := &sched.Problem{G: g, Plat: plat, Exec: exec, Model: sched.OnePort, Policy: timeline.Append}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	lap(1)
	d, ok := sched.Lookup(req.Alg)
	if !ok {
		return nil, fmt.Errorf("unknown scheduler %q", req.Alg)
	}
	s, err := d.New(p, req.Eps, rng)
	if err != nil {
		return nil, err
	}
	lap(2)
	rs := req.Reliability
	mtbf := make([]float64, plat.M)
	for i := range mtbf {
		mtbf[i] = rs.MTBF
	}
	tally, err := expt.EstimateReliability(s, &failure.Exponential{MTBF: mtbf}, rs.Samples, rs.Seed, mcWorkers)
	if err != nil {
		return nil, err
	}
	lap(3)
	out, err := encodeResponse(req, key, s, tally)
	lap(4)
	return out, err
}

// encodeResponse renders a schedule and its reliability tally in
// caftd's wire form.
func encodeResponse(req *service.Request, key string, s *sched.Schedule, tally expt.MCTally) ([]byte, error) {
	resp := service.Response{
		Key: key, Alg: req.Alg, Eps: req.Eps,
		Policy: s.P.Policy.String(), Model: s.P.Model.String(),
		Tasks: s.P.G.NumTasks(), Procs: s.P.Plat.M,
		Latency: s.ScheduledLatency(), Makespan: s.MakespanAll(),
		Replicas: s.ReplicaCount(), Messages: s.MessageCount(),
	}
	resp.Schedule.Comms = make([]service.CommJSON, len(s.Comms))
	for i, c := range s.Comms {
		resp.Schedule.Comms[i] = service.CommJSON{
			From: int(c.From), To: int(c.To), SrcCopy: c.SrcCopy, DstCopy: c.DstCopy,
			SrcProc: c.SrcProc, DstProc: c.DstProc, Volume: c.Volume, Dur: c.Dur,
			Start: c.Start, Finish: c.Finish, Intra: c.Intra,
		}
	}
	resp.Schedule.Replicas = make([]service.ReplicaJSON, 0, resp.Replicas)
	for t := range s.Reps {
		for _, r := range s.Reps[t] {
			resp.Schedule.Replicas = append(resp.Schedule.Replicas, service.ReplicaJSON{
				Task: int(r.Task), Copy: r.Copy, Proc: r.Proc, Start: r.Start, Finish: r.Finish,
			})
		}
	}
	rr := &service.ReliabilityResult{Samples: tally.Draws(), Unreliability: tally.Unreliability(), ReplayErrors: tally.ReplayErrors}
	if math.IsNaN(rr.Unreliability) {
		rr.Unreliability = 0
	}
	if lat := tally.MeanLatency(); !math.IsNaN(lat) {
		rr.MeanLatency = &lat
	}
	resp.Reliability = rr
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(&resp); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
