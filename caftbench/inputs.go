package main

import (
	"encoding/json"
	"math/rand"

	"caft/internal/gen"
	"caft/internal/service"
)

// Input sizing of the workloads; README.md gives the reasons.
const (
	hotProblems = 1000 // distinct caftload-style problems on the hot workloads
	zipfS       = 1.1  // caftload's default skew

	coldM       = 8    // processors of a serve-cold problem
	coldSamples = 64   // Monte-Carlo reliability samples per serve-cold request
	coldMTBF    = 5000 // homogeneous MTBF of the serve-cold failure model
	coldCache   = 256  // serve-cold CacheMax, far below the distinct-key count

	scaleM     = 10
	scaleEps   = 1
	scaleProbe = 4 // Problem.ProbeWidth of the scale figure's bounded-probe tail
	// scaleSeedPool bounds the distinct schedule-scale inputs: the digest
	// gate needs a recorded answer for every input, so the run seed is
	// reduced modulo the pool and digests.tsv holds one block per pool
	// seed.
	scaleSeedPool = 16
)

// scaleSizes is the doubling pair the growth rows divide.
var scaleSizes = [2]int{6400, 12800}

// scaleAlgs are the timed schedulers, as registry names. CAFT runs its
// greedy variant, as in the scale figure, so a row traces one schedule
// construction.
var scaleAlgs = [3]string{"heft", "caft-greedy", "ftsa"}

// mix derives an independent stream seed from the run seed and a
// purpose tag (splitmix64 finaliser), so no two inputs share a stream.
func mix(seed int64, tag uint64) int64 {
	z := uint64(seed) + tag*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// hotRequest is problem i of the hot pool: a caftload-style montage
// workflow scheduled by CAFT without a Monte-Carlo stage.
func hotRequest(seed int64, i int) *service.Request {
	return &service.Request{
		Alg:       "caft",
		Eps:       1,
		Seed:      mix(seed, 1) + int64(i),
		Generator: &gen.Spec{Kind: "montage", N: 4, Volume: 100},
		Platform:  service.PlatformSpec{M: 4, Delay: 0.75},
	}
}

// coldRequest is request i of the serve-cold stream: a paper-regime
// random graph on m=8 processors with random delays, CAFT ε=1 under
// append, plus a reliability estimate. Every i gives a distinct key.
func coldRequest(seed int64, i int) *service.Request {
	s := mix(seed, 2) + int64(i)
	return &service.Request{
		Alg:         "caft",
		Eps:         1,
		Policy:      "append",
		Seed:        s,
		Generator:   &gen.Spec{Kind: "random", Seed: s},
		Platform:    service.PlatformSpec{M: coldM, DelayLo: 0.5, DelayHi: 1.0},
		Reliability: &service.ReliabilitySpec{Samples: coldSamples, MTBF: coldMTBF, Seed: s},
	}
}

// marshalAll pre-marshals n requests, so the clients time caftd and not
// encoding/json.
func marshalAll(n int, req func(i int) *service.Request) ([][]byte, error) {
	bodies := make([][]byte, n)
	for i := range bodies {
		b, err := json.Marshal(req(i))
		if err != nil {
			return nil, err
		}
		bodies[i] = b
	}
	return bodies, nil
}

// scaleSpec is the generated graph of size v for a schedule-scale pool
// seed.
func scaleSpec(poolSeed int64, v int) gen.Spec {
	return gen.Spec{Kind: "random", MinTasks: v, MaxTasks: v, Seed: mix(poolSeed, 3) + int64(v)}
}

// scalePoolSeed reduces a run seed into the recorded pool.
func scalePoolSeed(seed int64) int64 {
	return ((seed % scaleSeedPool) + scaleSeedPool) % scaleSeedPool
}

// picker draws problem indices from a zipf distribution over n
// problems: rank k has weight (1+k)^-s. Each client owns one.
type picker struct{ z *rand.Zipf }

func newPicker(seed int64, client, n int) picker {
	rng := rand.New(rand.NewSource(mix(seed, 4) + int64(client)))
	return picker{rand.NewZipf(rng, zipfS, 1, uint64(n-1))}
}

func (p picker) next() int { return int(p.z.Uint64()) }
