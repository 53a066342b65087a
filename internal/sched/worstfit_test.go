package sched

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"gsight/internal/core"
	"gsight/internal/profile"
	"gsight/internal/resources"
)

// TestWorstFitRule pins the one worst-fit rule that Gsight's candidates
// (over a busiest-first prefix, CPU ceiling gsightOversub) and WorstFit
// (over the online servers in id order, requestOversub) share. Every
// server has 10 cores and 10 GB.
func TestWorstFitRule(t *testing.T) {
	for _, tc := range []struct {
		name             string
		usedCPU, usedMem []float64 // per server
		offline          []int
		cpu, mem         []float64 // per function
		// servers is the candidate list handed to worstFit; nil runs
		// WorstFit.Place instead.
		servers []int
		oversub float64
		want    []int // the placement, or nil
		unfit   int   // the function reported unplaceable, or -1
	}{
		{name: "most free CPU wins",
			usedCPU: []float64{6, 2, 4}, usedMem: []float64{0, 0, 0},
			cpu: []float64{1}, mem: []float64{1},
			servers: []int{0, 2, 1}, oversub: gsightOversub,
			want: []int{1}, unfit: -1},
		{name: "tie goes to the earlier server of a busiest-first prefix",
			usedCPU: []float64{4, 4, 4}, usedMem: []float64{0, 0, 0},
			cpu: []float64{1}, mem: []float64{1},
			servers: []int{2, 0, 1}, oversub: gsightOversub,
			want: []int{2}, unfit: -1},
		{name: "tie goes to the lower id under WorstFit",
			usedCPU: []float64{4, 4, 4}, usedMem: []float64{0, 0, 0},
			cpu: []float64{1}, mem: []float64{1},
			want: []int{0}, unfit: -1},
		{name: "WorstFit never picks an offline server",
			usedCPU: []float64{0, 4, 4}, usedMem: []float64{0, 0, 0},
			offline: []int{0},
			cpu:     []float64{1, 1}, mem: []float64{1, 1},
			want: []int{1, 2}, unfit: -1},
		{name: "each placement debits its server",
			usedCPU: []float64{0, 0}, usedMem: []float64{0, 0},
			cpu: []float64{3, 3}, mem: []float64{1, 1},
			servers: []int{0, 1}, oversub: requestOversub,
			want: []int{0, 1}, unfit: -1},
		{name: "a CPU ceiling of 2.0 admits what 1.0 rejects",
			usedCPU: []float64{8}, usedMem: []float64{0},
			cpu: []float64{4}, mem: []float64{1},
			servers: []int{0}, oversub: gsightOversub,
			want: []int{0}, unfit: -1},
		{name: "a CPU ceiling of 1.0 rejects",
			usedCPU: []float64{8}, usedMem: []float64{0},
			cpu: []float64{4}, mem: []float64{1},
			servers: []int{0}, oversub: requestOversub,
			unfit: 0},
		{name: "memory is not oversubscribed at 2.0",
			usedCPU: []float64{0}, usedMem: []float64{8},
			cpu: []float64{1}, mem: []float64{4},
			servers: []int{0}, oversub: gsightOversub,
			unfit: 0},
		{name: "memory is not oversubscribed at 1.0",
			usedCPU: []float64{0, 0}, usedMem: []float64{8, 8},
			cpu: []float64{1}, mem: []float64{4},
			unfit: 0},
		{name: "the first unplaceable function in descending demand",
			usedCPU: []float64{0}, usedMem: []float64{0},
			cpu: []float64{1, 6, 8}, mem: []float64{1, 1, 1},
			servers: []int{0}, oversub: requestOversub,
			unfit: 1},
		{name: "the largest unplaceable function, not the lowest index",
			usedCPU: []float64{0, 0}, usedMem: []float64{0, 0},
			cpu: []float64{11, 12}, mem: []float64{1, 1},
			unfit: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := &State{}
			for s := range tc.usedCPU {
				var c, u resources.Vector
				c[resources.CPU], c[resources.Memory] = 10, 10
				u[resources.CPU], u[resources.Memory] = tc.usedCPU[s], tc.usedMem[s]
				st.Caps = append(st.Caps, c)
				st.Used = append(st.Used, u)
			}
			st.Recount()
			for _, s := range tc.offline {
				st.SetOffline(s, true)
			}
			in := core.WorkloadInput{Name: "fn"}
			for f := range tc.cpu {
				var a resources.Vector
				a[resources.CPU], a[resources.Memory] = tc.cpu[f], tc.mem[f]
				in.Profiles = append(in.Profiles, profile.Profile{Alloc: a})
			}

			var got []int
			unfit := -1
			if tc.servers == nil {
				var err error
				got, err = NewWorstFit().Place(st, &Request{Input: in})
				if err != nil {
					if want := fmt.Sprintf("function %d", tc.unfit); !strings.HasSuffix(err.Error(), want) {
						t.Fatalf("WorstFit: %v, want it to name %s", err, want)
					}
					unfit = tc.unfit
				}
			} else {
				n := len(in.Profiles)
				got = make([]int, n)
				unfit = worstFit(st, &in, tc.servers, tc.oversub, make([]resources.Vector, st.NumServers()), make([]int, n), got)
				if unfit >= 0 {
					got = nil
				}
			}
			if unfit != tc.unfit || !slices.Equal(got, tc.want) {
				t.Fatalf("placement %v, unplaceable %d; want %v, %d", got, unfit, tc.want, tc.unfit)
			}
		})
	}
}
