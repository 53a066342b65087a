package core

import (
	"bytes"
	"math"
	"testing"

	"gsight/internal/ml"
	"gsight/internal/workload"
)

// TestLogTargetPredictBatch: a log kind predicts exp(model output) ×
// ref, and its batch path is bit-identical to per-query Predict over
// both a batch-capable model (a forest) and a plain one (k-NN).
func TestLogTargetPredictBatch(t *testing.T) {
	factories := map[string]ModelFactory{
		"forest": func(seed uint64) ml.Incremental { return ml.NewForest(ml.ForestConfig{Trees: 6, Seed: seed}) },
		"knn":    IKNNFactory,
	}
	for name, factory := range factories {
		p := NewPredictor(Config{Seed: 5, Factory: factory})
		var obs []Observation
		var queries []Query
		label := 30.0
		for _, ws := range testColocations() {
			for target := range ws {
				obs = append(obs, Observation{Target: target, Inputs: ws, Label: label})
				queries = append(queries, Query{Target: target, Inputs: ws})
				label *= 1.3
			}
		}
		if err := p.TrainObservations(JCTQoS, obs); err != nil {
			t.Fatal(err)
		}
		out := make([]float64, len(queries))
		if err := p.PredictBatchInto(JCTQoS, queries, out); err != nil {
			t.Fatal(err)
		}
		for i, q := range queries {
			got, err := p.Predict(JCTQoS, q.Target, q.Inputs)
			if err != nil {
				t.Fatal(err)
			}
			x, err := p.coder.Encode(q.Target, q.Inputs)
			if err != nil {
				t.Fatal(err)
			}
			want := math.Exp(p.models[JCTQoS].Predict(x)) * p.refFor(JCTQoS, q.Target, q.Inputs)
			if math.Float64bits(got) != math.Float64bits(want) || math.Float64bits(out[i]) != math.Float64bits(want) {
				t.Fatalf("%s query %d: Predict %v, batch %v, exp(model)×ref %v", name, i, got, out[i], want)
			}
		}
	}
}

// TestLogKindStagedMatchesUpdate: a log kind's forest, trained through
// the predictor's staged update, is the forest a bare one grows by Fit
// and Update on log(label / ref) — through the ring's wrap.
func TestLogKindStagedMatchesUpdate(t *testing.T) {
	p := ckptPredictor(9)
	bare := ml.NewForest(ml.ForestConfig{Trees: 6, Seed: 9 + uint64(JCTQoS)*7919, Window: 64})
	mm := scInput(workload.MatMul(), 0, 0)
	obsAt := func(i int) Observation {
		dd := scInput(workload.DD(), i%3, float64(i%5)*10)
		return Observation{Target: 0, Inputs: []WorkloadInput{mm, dd}, Label: 20 + float64(i%9)}
	}
	batch := func(lo, hi int) ([][]float64, []float64) {
		var X [][]float64
		var y []float64
		for i := lo; i < hi; i++ {
			o := obsAt(i)
			x, err := p.coder.Encode(o.Target, o.Inputs)
			if err != nil {
				t.Fatal(err)
			}
			X = append(X, x)
			y = append(y, math.Log(o.Label/mm.LifetimeS))
		}
		return X, y
	}
	var first []Observation
	for i := 0; i < 30; i++ {
		first = append(first, obsAt(i))
	}
	if err := p.TrainObservations(JCTQoS, first); err != nil {
		t.Fatal(err)
	}
	if err := bare.Fit(batch(0, 30)); err != nil {
		t.Fatal(err)
	}
	for lo := 30; lo < 130; lo += 10 { // UpdateEvery is 10: each tenth Observe flushes
		for i := lo; i < lo+10; i++ {
			o := obsAt(i)
			if err := p.Observe(JCTQoS, o.Target, o.Inputs, o.Label); err != nil {
				t.Fatal(err)
			}
		}
		if err := bare.Update(batch(lo, lo+10)); err != nil {
			t.Fatal(err)
		}
		got := p.models[JCTQoS].(*ml.Forest).Capture().AppendTo(nil)
		if want := bare.Capture().AppendTo(nil); !bytes.Equal(got, want) {
			t.Fatalf("after observation %d: the predictor's JCT forest differs from the bare forest on log labels", lo+10)
		}
	}
}
