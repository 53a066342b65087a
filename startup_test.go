package gsight

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"gsight/internal/core"
	"gsight/internal/perfmodel"
	"gsight/internal/scenario"
	"gsight/internal/serve"
)

// TestStartupModelBytes pins the model bytes the two start-ups train:
// the sha256 of CheckpointState after the bootstrap's IPC and JCT
// trainings, which every decision a run makes afterwards follows from.
// The values were taken by running this test, with the comparison
// printing the digest, on the tree before the learner's fit, flush and
// background paths were folded into one staged update; a refactor of
// the learner must leave them as they are, and a deliberate model change
// re-takes them the same way.
func TestStartupModelBytes(t *testing.T) {
	lab := func() *perfmodel.Model {
		m := scenario.Lab()
		return m
	}
	for _, tc := range []struct {
		name  string
		seed  uint64
		train func(p *core.Predictor) error
		want  string
	}{
		// `gsight sim -seed 1 -train 200`, the benchmark's sim-chaos
		// start-up.
		{"sim", 1, func(p *core.Predictor) error {
			return scenario.NewGenerator(lab(), 1).Bootstrap(context.Background(), p, 200)
		}, "43527d9a974b3a40d21699e927b79c6c3163089b76b5eabbb0c27f70f5cbacad"},
		// `gsight serve`'s fresh start at its default seed.
		{"serve", 42, func(p *core.Predictor) error {
			return serve.NewCatalog(lab(), 42).Train(p, 40)
		}, "aa0ca44b1d925aa614beabc15e2728c35aa1cef7cf831b0e8055176baa915eb4"},
	} {
		p := core.NewPredictor(core.Config{Seed: tc.seed})
		if err := tc.train(p); err != nil {
			t.Fatal(err)
		}
		blob, err := p.CheckpointState()
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(blob)
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s start-up model: sha256 %s, want %s", tc.name, got, tc.want)
		}
	}
}
