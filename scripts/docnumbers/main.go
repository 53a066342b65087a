// Command docnumbers rewrites the timing tables quoted in the prose
// docs from a benchmark result file (`go run -C benchmark . -seed N`
// writes one to benchmark/out/), so those figures are generated, not
// typed. In each file named on the command line it replaces what stands
// between `<!-- docnumbers:NAME -->` and `<!-- /docnumbers:NAME -->` for
// every table NAME below that the file carries (at least one).
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

type row struct{ name, what string }

// tables are the generated blocks: per table the metrics, in order,
// with what they time.
var tables = []struct {
	name string
	rows []row
}{
	{"startup", []row{
		{"setup_s", "the gated total: daemon start + `gsight-sim` start (the placer stage runs in the traced pass only)"},
		{"setup.serve_s", "`serve.New` on an empty data dir: catalog, bootstrap fit, genesis snapshot"},
		{"setup.placer_s", "`NewCatalog` + `Train(40)` + the cluster build"},
		{"setup.sim_s", "`gsight-sim` from exec to its first step"},
		{"serve.catalog_ms", "`serve.NewCatalog` alone"},
		{"serve.restore_s", "crash restart, which is also the standby's takeover once the lease expires: `serve.New` on the data dir a killed daemon left"},
		{"perfmodel.evaluate_us_p50", "one `perfmodel.Evaluate`"},
	}},
	{"served", []row{
		{"serve.place_per_s", "closed-loop placements acknowledged per second (each followed by its release), stalls included"},
		{"serve.closed_p50_ms", "closed-loop `POST /v1/place`: request to durable ack, pooled median"},
		{"serve.handler_p50_ms", "the same request inside `Handler().ServeHTTP`: decode, intake, `PlaceAll`, WAL append + fsync, ack"},
		{"serve.http_overhead_p50_ms", "the client round trip minus the handler span"},
	}},
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
	stale := false
	for _, path := range flag.Args() {
		old, err := os.ReadFile(path)
		if err != nil {
			fatal(err)
		}
		updated, found := old, false
		for _, t := range tables {
			beginMark := "<!-- docnumbers:" + t.name + " -->"
			endMark := "<!-- /docnumbers:" + t.name + " -->"
			i, j := bytes.Index(updated, []byte(beginMark)), bytes.Index(updated, []byte(endMark))
			if i < 0 {
				continue
			}
			if j < i {
				fatal(fmt.Errorf("%s: %s without %s", path, beginMark, endMark))
			}
			block, err := render(*result, t.rows)
			if err != nil {
				fatal(err)
			}
			found = true
			updated = append(append(append([]byte{}, updated[:i+len(beginMark)]...), block...), updated[j:]...)
		}
		switch {
		case !found:
			fatal(fmt.Errorf("%s: no <!-- docnumbers:NAME --> block", path))
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

// render builds one table: one row per metric, one column per workload,
// each value as the result file has it (untraced pass first, so the
// end-to-end figures are the ones measured with tracing off).
func render(path string, rows []row) (string, error) {
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
				format := "%.3g %s"
				if m.Value >= 1000 {
					format = "%.0f %s" // %.3g would print an exponent
				}
				cell[key] = fmt.Sprintf(format, m.Value, m.Unit)
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
