// Command docnumbers rewrites the start-up timing tables quoted in the
// prose docs from a benchmark result file (`go run -C benchmark . -seed
// N` writes one to benchmark/out/), so those figures are generated, not
// typed. In each file named on the command line it replaces what stands
// between `<!-- docnumbers:startup -->` and `<!-- /docnumbers:startup -->`.
//
// Usage: go run ./scripts/docnumbers [-result FILE] [-check] DESIGN.md README.md
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

const (
	beginMark = "<!-- docnumbers:startup -->"
	endMark   = "<!-- /docnumbers:startup -->"
)

// rows are the metrics of the table, in order, with what they time.
var rows = []struct{ name, what string }{
	{"setup_s", "the gated total: daemon start + `gsight-sim` start (the placer stage runs in the traced pass only)"},
	{"setup.serve_s", "`serve.New` on an empty data dir: catalog, bootstrap fit, genesis snapshot"},
	{"setup.placer_s", "`NewCatalog` + `Train(40)` + the cluster build"},
	{"setup.sim_s", "`gsight-sim` from exec to its first step"},
	{"serve.catalog_ms", "`serve.NewCatalog` alone"},
	{"serve.restore_s", "crash restart, which is also the standby's takeover once the lease expires: `serve.New` on the data dir a killed daemon left"},
	{"perfmodel.evaluate_us_p50", "one `perfmodel.Evaluate`"},
}

type resultFile struct {
	Seed    uint64            `json:"seed"`
	Seconds float64           `json:"seconds"`
	Env     map[string]string `json:"env"`
	Runs    []struct {
		Workload string `json:"workload"`
		Metrics  map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	} `json:"runs"`
}

func main() {
	result := flag.String("result", "scripts/docnumbers/result.json", "benchmark result file to quote")
	check := flag.Bool("check", false, "rewrite nothing; exit 1 if a file is out of date")
	flag.Parse()
	block, err := render(*result)
	if err != nil {
		fatal(err)
	}
	stale := false
	for _, path := range flag.Args() {
		old, err := os.ReadFile(path)
		if err != nil {
			fatal(err)
		}
		i, j := bytes.Index(old, []byte(beginMark)), bytes.Index(old, []byte(endMark))
		if i < 0 || j < i {
			fatal(fmt.Errorf("%s: no %s ... %s block", path, beginMark, endMark))
		}
		updated := append(append(append([]byte{}, old[:i+len(beginMark)]...), block...), old[j:]...)
		switch {
		case bytes.Equal(old, updated):
		case *check:
			fmt.Fprintf(os.Stderr, "docnumbers: %s is out of date with %s\n", path, *result)
			stale = true
		default:
			if err := os.WriteFile(path, updated, 0o644); err != nil {
				fatal(err)
			}
			fmt.Printf("docnumbers: rewrote %s\n", path)
		}
	}
	if stale {
		os.Exit(1)
	}
}

// render builds the table: one row per metric, one column per workload,
// each value as the result file has it (untraced pass first, so the
// end-to-end figures are the ones measured with tracing off).
func render(path string) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	var rf resultFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return "", fmt.Errorf("parse %s: %w", path, err)
	}
	var workloads []string
	cell := map[string]string{}
	for _, run := range rf.Runs {
		if _, seen := cell[run.Workload]; !seen {
			cell[run.Workload] = ""
			workloads = append(workloads, run.Workload)
		}
		for name, m := range run.Metrics {
			if key := run.Workload + "/" + name; cell[key] == "" {
				cell[key] = fmt.Sprintf("%.3g %s", m.Value, m.Unit)
			}
		}
	}
	if len(workloads) == 0 {
		return "", fmt.Errorf("%s holds no runs", path)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "\n| metric | %s | what it times |\n|---|%s---|\n",
		strings.Join(workloads, " | "), strings.Repeat("---|", len(workloads)))
	for _, r := range rows {
		fmt.Fprintf(&b, "| `%s` |", r.name)
		for _, w := range workloads {
			v := cell[w+"/"+r.name]
			if v == "" {
				return "", fmt.Errorf("%s: workload %s has no %s", path, w, r.name)
			}
			fmt.Fprintf(&b, " %s |", v)
		}
		fmt.Fprintf(&b, " %s |\n", r.what)
	}
	fmt.Fprintf(&b, "\nOne run of `go run -C benchmark . -seed %d -seconds %g` (%s, %s vCPU, data dirs on %s). Timings on this sandbox spread by tens of percent between runs (benchmark/README.md), so read these as sizes, not as gates.\n",
		rf.Seed, rf.Seconds, rf.Env["go"], rf.Env["nproc"], rf.Env["data_dir"])
	return b.String(), nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "docnumbers:", err)
	os.Exit(1)
}
