package sched

import "errors"

// ProposeOrDegrade is the degradation rule (DESIGN.md §11), the
// placement call of the simulator and the daemon. It asks primary once
// through Propose, unless primaryDown. An ErrNoPlacement is final; on
// any other primary failure, or with the primary down, it proposes
// through fallback and relabels the outcome:
//
//	case                                          outcome   reason
//	primary's predictor erred, fallback placed    degraded  predictor-error
//	primary's predictor erred, fallback no fit    error     predictor-error
//	primary down, fallback placed                 degraded  predictor-unavailable
//	any other primary failure, fallback placed    degraded  scheduler-error
//
// Otherwise a fallback that cannot place keeps its own account. A
// primary's predictor erred when its decision says "predictor-error".
// req.Detail names the scheduler asked last and sums both attempts'
// search counts. The placement is non-nil exactly when the request was
// placed; err is the primary's error, beside a degraded placement too,
// or with the primary down the fallback's.
func (st *State) ProposeOrDegrade(primary Scheduler, fallback *WorstFit, primaryDown bool, req *Request) ([]int, error) {
	reason, levels, checks := "predictor-unavailable", 0, 0
	d := &req.Detail // Place rewrites *d; the pointer stays
	var err error
	if !primaryDown {
		var out []int
		out, err = st.Propose(primary, req)
		d.Scheduler = primary.Name()
		if err == nil || errors.Is(err, ErrNoPlacement) {
			return out, err
		}
		reason = "scheduler-error"
		if d.Reason == "predictor-error" {
			reason = d.Reason
		}
		levels, checks = d.SpreadLevels, d.SLAChecks
	}
	out, ferr := st.Propose(fallback, req)
	d.Scheduler = fallback.Name()
	d.SpreadLevels += levels
	d.SLAChecks += checks
	switch {
	case ferr == nil:
		d.Outcome, d.Reason = "degraded", reason
	case reason == "predictor-error":
		d.Outcome, d.Reason = "error", reason
	}
	if err == nil {
		err = ferr
	}
	return out, err
}
