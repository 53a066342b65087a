package main

import (
	"fmt"
	"os"
)

// worseBy is how much worse b is than a, as a share of a: positive
// when b moved against the metric's direction.
func worseBy(m specMetric, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	d := (b - a) / a
	if m.Better == "higher" {
		return -d
	}
	return d
}

// comparison is one workload × end-to-end metric pairing of two files.
type comparison struct {
	workload string
	metric   specMetric
	a, b     float64
	worse    float64 // share of a
	beyond   bool    // worse by more than the bound
}

// compareFiles pairs the untraced runs of two result files, first with
// first per workload.
func compareFiles(sp *spec, a, b *resultFile) []comparison {
	var out []comparison
	for _, ra := range a.Runs {
		if ra.Trace != 0 {
			continue
		}
		for _, rb := range b.Runs {
			if rb.Trace != 0 || rb.Workload != ra.Workload {
				continue
			}
			for _, m := range sp.EndToEnd {
				va, okA := ra.Metrics[m.Name]
				vb, okB := rb.Metrics[m.Name]
				if !okA || !okB {
					continue
				}
				w := worseBy(m, va.Value, vb.Value)
				out = append(out, comparison{ra.Workload, m, va.Value, vb.Value, w, w > m.Bound})
			}
			break
		}
	}
	return out
}

// compareMain prints, per workload and end-to-end metric, both values,
// the relative difference with its base, and the bound; it returns 1
// when any pairing is worse by more than its bound.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare BASE.json OTHER.json")
		return 2
	}
	_, sp, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	var files [2]*resultFile
	for i, p := range args {
		if files[i], err = readResultFile(p); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
	}
	fmt.Printf("base  %s (seed %d)\nother %s (seed %d)\n\n", args[0], files[0].Seed, args[1], files[1].Seed)
	fmt.Printf("%-10s %-20s %14s %14s %22s %7s\n", "workload", "metric", "base", "other", "other vs base", "bound")
	status := 0
	for _, c := range compareFiles(sp, files[0], files[1]) {
		mark := ""
		if c.beyond {
			mark = "  WORSE THAN BOUND"
			status = 1
		}
		fmt.Printf("%-10s %-20s %14.6g %14.6g %+10.2f%% of %-8.4g %6.0f%%%s\n",
			c.workload, c.metric.Name, c.a, c.b, 100*(c.b-c.a)/c.a, c.a, 100*c.metric.Bound, mark)
	}
	return status
}
