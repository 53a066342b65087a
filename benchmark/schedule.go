package main

import (
	"hash/fnv"
	"math/rand/v2"
	"time"
)

// mix is the archetype mix every placement workload draws from: two
// latency-sensitive services and three short-lived jobs of the daemon's
// catalog.
var mix = []string{"matmul", "social-network", "dd", "e-commerce", "kmeans"}

// slot is one generated placement: which archetype, when it is due
// (open loop only), whether an observation follows it, and the
// measurement noise that observation carries.
type slot struct {
	due     time.Duration
	arch    string
	observe bool
	noise   float64 // multiplies the predicted IPC, in [0.9, 1.1)
}

// generator draws slots from the workload seed. Every slot consumes the
// same four draws, so the sequence does not depend on how it is used.
type generator struct {
	r       *rand.Rand
	rate    float64
	obsFrac float64
	lastDue time.Duration
}

// newGenerator derives an independent stream from (seed, stream name).
func newGenerator(seed uint64, stream string, rate, obsFrac float64) *generator {
	h := fnv.New64a()
	h.Write([]byte(stream))
	return &generator{r: rand.New(rand.NewPCG(seed, h.Sum64())), rate: rate, obsFrac: obsFrac}
}

func (g *generator) next() slot {
	arch := mix[g.r.IntN(len(mix))]
	observe := g.r.Float64() < g.obsFrac
	noise := 0.9 + 0.2*g.r.Float64()
	gap := g.r.ExpFloat64()
	if g.rate > 0 {
		g.lastDue += time.Duration(gap / g.rate * float64(time.Second))
	}
	return slot{due: g.lastDue, arch: arch, observe: observe, noise: noise}
}

// poissonSchedule precomputes the open-loop arrivals of one phase:
// exponential gaps at `rate` per second until `length` is reached.
func poissonSchedule(seed uint64, stream string, rate, obsFrac float64, length time.Duration) []slot {
	g := newGenerator(seed, stream, rate, obsFrac)
	var out []slot
	for {
		s := g.next()
		if s.due >= length {
			return out
		}
		out = append(out, s)
	}
}
