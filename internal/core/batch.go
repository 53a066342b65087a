package core

import (
	"fmt"
	"math"
	"sync"
	"time"

	"gsight/internal/ml"
)

// Query is one prediction request in a batch: which member of Inputs is
// the target workload. PredictBatchInto only reads Inputs for the
// duration of the call; callers may reuse the backing slices afterwards.
type Query struct {
	Target int
	Inputs []WorkloadInput
}

// batchScratch holds the reusable buffers of one PredictBatchInto call:
// a flat float backing array, row views into it, and the raw model
// outputs. Rows only ever point into flat, so pooling retains no caller
// data.
type batchScratch struct {
	flat []float64
	X    [][]float64
	out  []float64
}

var batchPool = sync.Pool{New: func() interface{} { return new(batchScratch) }}

// PredictBatchInto estimates the QoS of many colocations at once into a
// caller-owned result slice (len(out) must equal len(queries)): every
// query is encoded into one pooled backing array and the model runs its
// batched inference path (ml.BatchRegressor) when it has one. Results
// are bit-identical to calling Predict per query — batching changes
// memory traffic, never arithmetic.
func (p *Predictor) PredictBatchInto(kind QoSKind, queries []Query, out []float64) error {
	if !p.trained[kind] {
		return fmt.Errorf("%w: %v", ErrNotTrained, kind)
	}
	if len(out) != len(queries) {
		return fmt.Errorf("core: PredictBatchInto out length %d != %d queries", len(out), len(queries))
	}
	n := len(queries)
	if n == 0 {
		return nil
	}
	var t0 time.Time
	if p.ins.Enabled() {
		t0 = time.Now()
	}
	d := p.enc.Dim()
	sc := batchPool.Get().(*batchScratch)
	if cap(sc.flat) < n*d {
		sc.flat = make([]float64, n*d)
	}
	sc.flat = sc.flat[:n*d]
	if cap(sc.X) < n {
		sc.X = make([][]float64, n)
	}
	sc.X = sc.X[:n]
	for i := range sc.X {
		sc.X[i] = sc.flat[i*d : (i+1)*d]
	}
	for i, q := range queries {
		if err := p.enc.EncodeInto(sc.X[i], q.Target, q.Inputs); err != nil {
			batchPool.Put(sc)
			return err
		}
	}
	if p.ins.Enabled() {
		t1 := time.Now()
		p.ins.EncodeSeconds.Observe(t1.Sub(t0).Seconds())
		t0 = t1
	}
	if cap(sc.out) < n {
		sc.out = make([]float64, n)
	}
	sc.out = sc.out[:n]
	model := p.models[kind]
	if b, ok := model.(ml.BatchRegressor); ok {
		b.PredictBatchInto(sc.X, sc.out)
	} else {
		for i := range sc.X {
			sc.out[i] = model.Predict(sc.X[i])
		}
	}
	if logKind(kind) {
		for i := range sc.out {
			sc.out[i] = math.Exp(sc.out[i])
		}
	}
	for i, q := range queries {
		out[i] = sc.out[i] * p.refFor(kind, q.Target, q.Inputs)
	}
	batchPool.Put(sc)
	if p.ins.Enabled() {
		p.ins.InferSeconds.Observe(time.Since(t0).Seconds())
		p.ins.Batches.Inc()
		p.ins.BatchQueries.Add(uint64(n))
		p.ins.BatchSize.Observe(float64(n))
	}
	return nil
}
