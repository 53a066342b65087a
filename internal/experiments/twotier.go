package experiments

import (
	"context"
	"fmt"

	"gsight/internal/sched"
)

// twotierRungs is the ext-twotier cluster ladder: the two cluster sizes
// where full-view placements get expensive.
var twotierRungs = []int{1000, 10000}

// twotierKs is the prune-depth sweep. 0 means K=∞ (pruning disabled,
// exact legacy placements) and runs first so every other row can report
// its QoS-density loss and wall-clock gain against it.
var twotierKs = []int{0, 4, 8, 16, 32}

// ExtTwoTier measures the two-tier placement tradeoff: the tier-0
// interference score prunes each request's candidate servers to the
// top K before full IRFR prediction vets the finalists, and the sweep
// reports how much QoS-compliant density is given up for how much
// placement throughput as K shrinks. All columns except placements/s
// and speedup are deterministic per seed; the K=∞ row is byte-identical
// to running without the two-tier path at all.
func ExtTwoTier(ctx context.Context, opt Options) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	lab, err := newScaleLab(ctx, opt, "twotier")
	if err != nil {
		return nil, err
	}

	rungs := twotierRungs
	if opt.Servers > 0 {
		rungs = []int{opt.Servers}
	}
	ks := twotierKs
	if opt.TopK > 0 {
		ks = []int{0, opt.TopK} // K=∞ baseline stays, for the delta columns
	}
	r := &Report{
		ID:    "ext-twotier",
		Title: "Two-tier placement: QoS-density lost vs wall-clock gained as K shrinks",
		Columns: []string{
			"servers", "topk", "placers", "placed",
			"density", "SLA-admit", "QoS-density", "QoSd-loss", "placements/s", "speedup",
		},
	}
	placers := scalePlacers(opt)
	for _, n := range rungs {
		// Archetype run names ("twotier-matmul#17"), so tier-0 score
		// caching keys to the five archetypes instead of one entry per
		// request — the access pattern a real platform produces.
		reqs := lab.requests(opt, n, "twotier-%s#%d")
		baseQoSd, basePerSec := 0.0, 0.0
		for _, k := range ks {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			factory := func() sched.Scheduler {
				s := sched.NewGsight(lab.gsightP)
				if k > 0 {
					s.Tier0 = lab.gsightP.Tier0()
					s.TopK = k
				}
				return s
			}
			c := lab.run(n, placers, reqs, factory)
			qosd := c.density * c.slaFrac
			kLabel, loss, speedup := "∞", "-", "-"
			if k == 0 {
				baseQoSd, basePerSec = qosd, c.perSec
			} else {
				kLabel = fmt.Sprintf("%d", k)
				if baseQoSd > 0 {
					loss = pct((baseQoSd - qosd) / baseQoSd)
				}
				if basePerSec > 0 {
					speedup = fmt.Sprintf("%.2fx", c.perSec/basePerSec)
				}
			}
			r.AddRow(
				fmt.Sprintf("%d", n), kLabel, fmt.Sprintf("%d", placers),
				fmt.Sprintf("%d/%d", c.placed, len(reqs)),
				f2(c.density), pct(c.slaFrac), f2(qosd), loss, f0(c.perSec), speedup,
			)
		}
	}
	r.AddNote("K=∞ disables pruning and reproduces the legacy placements byte-for-byte; finite K runs the binary-search ladder over only the top-K tier-0-ranked candidates")
	r.AddNote("QoSd-loss and speedup are relative to the same rung's K=∞ row; every column except placements/s and speedup is deterministic per seed")
	return r, nil
}
