// Command benchhist appends one dated entry to a benchmark history
// file. It reads `go test -bench` output on stdin — several runs may be
// concatenated, and a benchmark repeated with -count keeps its best
// run — parses the Benchmark lines, and rewrites the JSON history in
// place. Past entries are never overwritten, so the
// performance trajectory across PRs stays reviewable in one file.
//
// A pre-history file (top-level "benchmarks" object) is folded into the
// history as its first entry before the new one is appended.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"strconv"
	"strings"
)

type result struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// PlacementsPerSec records the sharded-placement benchmarks'
	// custom throughput metric (b.ReportMetric "placements/s").
	PlacementsPerSec float64 `json:"placements_per_sec,omitempty"`
	// StateBytes records the checkpoint benchmarks' encoded predictor
	// size (b.ReportMetric "state_bytes").
	StateBytes int64 `json:"state_bytes,omitempty"`
}

type entry struct {
	Date       string            `json:"date"`
	Label      string            `json:"label,omitempty"`
	Benchtime  string            `json:"benchtime"`
	Benchmarks map[string]result `json:"benchmarks"`
}

type histFile struct {
	Goos    string  `json:"goos"`
	Goarch  string  `json:"goarch"`
	CPU     string  `json:"cpu"`
	History []entry `json:"history"`
}

// legacy is the flat pre-history layout bench.sh used to overwrite.
type legacy struct {
	Benchtime  string            `json:"benchtime"`
	Goos       string            `json:"goos"`
	Goarch     string            `json:"goarch"`
	CPU        string            `json:"cpu"`
	Benchmarks map[string]result `json:"benchmarks"`
}

func main() {
	out := flag.String("out", "BENCH_gsight.json", "history file to append to")
	date := flag.String("date", "", "entry date (YYYY-MM-DD)")
	benchtime := flag.String("benchtime", "", "go test -benchtime value the entry was run at")
	label := flag.String("label", "", "optional entry label")
	check := flag.Bool("check", false, "compare stdin results against the latest history entry instead of appending: fail if any low-alloc benchmark regressed allocs_per_op")
	flag.Parse()
	if *date == "" && !*check {
		fatal(errors.New("-date is required"))
	}

	e := entry{Date: *date, Label: *label, Benchtime: *benchtime, Benchmarks: map[string]result{}}
	var goos, goarch, cpu string
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos:"):
			goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			cpu = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			name, r, ok := parseBenchLine(line)
			if prev, dup := e.Benchmarks[name]; ok && (!dup || better(r, prev)) {
				e.Benchmarks[name] = r
			}
		}
	}
	if err := sc.Err(); err != nil {
		fatal(err)
	}
	if len(e.Benchmarks) == 0 {
		fatal(errors.New("no Benchmark result lines on stdin"))
	}

	h, err := load(*out)
	if err != nil {
		fatal(err)
	}
	if *check {
		if err := checkAllocs(h, e.Benchmarks); err != nil {
			fatal(err)
		}
		return
	}
	if goos != "" {
		h.Goos, h.Goarch, h.CPU = goos, goarch, cpu
	}
	h.History = append(h.History, e)

	data, err := json.MarshalIndent(h, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("benchhist: %s now holds %d entries (%d benchmarks in %s)\n",
		*out, len(h.History), len(e.Benchmarks), *date)
}

// lowAllocMax bounds which benchmarks the -check smoke gate covers:
// only those the latest history entry records at or below this many
// allocs/op. Zero/low-alloc paths are where escape-analysis
// regressions land silently (an interface call heap-promoting a
// caller's buffer shows up as a few allocs/op, invisible in ns/op
// noise); high-alloc benchmarks drift with workload shape and are
// judged by the recorded history instead.
const lowAllocMax = 10

// nsWarnFactor is the ns/op ratio over the recorded history that makes
// -check print a warning. Wall-clock timings need a quiet machine, so
// the warning is advisory (never fails the check) — it flags likely
// regressions for a human to re-measure, it does not gate.
const nsWarnFactor = 1.25

// checkAllocs compares fresh results against the latest history entry
// and errors if any benchmark that was low-alloc regressed its
// allocs/op. Benchmarks absent from either side are skipped — the
// gate guards known-good paths, it does not enforce coverage. ns/op
// drifting past nsWarnFactor prints a non-fatal warning.
func checkAllocs(h *histFile, fresh map[string]result) error {
	if len(h.History) == 0 {
		return errors.New("-check needs an existing history entry to compare against")
	}
	last := h.History[len(h.History)-1]
	var regressions []string
	checked := 0
	for name, old := range last.Benchmarks {
		now, ok := fresh[name]
		if !ok || old.AllocsPerOp > lowAllocMax {
			continue
		}
		checked++
		if now.AllocsPerOp > old.AllocsPerOp {
			regressions = append(regressions,
				fmt.Sprintf("%s: %d allocs/op, history has %d", name, now.AllocsPerOp, old.AllocsPerOp))
		}
		if old.NsPerOp > 0 && now.NsPerOp > old.NsPerOp*nsWarnFactor {
			fmt.Fprintf(os.Stderr, "benchhist: warning: %s at %.0f ns/op, >%.0f%% over the %.0f ns/op history (advisory — re-measure on a quiet machine)\n",
				name, now.NsPerOp, (nsWarnFactor-1)*100, old.NsPerOp)
		}
	}
	if len(regressions) > 0 {
		return fmt.Errorf("alloc regressions vs %q entry:\n  %s",
			last.Date+" "+last.Label, strings.Join(regressions, "\n  "))
	}
	if checked == 0 {
		return errors.New("-check matched no low-alloc benchmarks; wrong -bench filter?")
	}
	fmt.Printf("benchhist: %d low-alloc benchmarks at or below their recorded allocs/op\n", checked)
	return nil
}

// better orders repeated runs of one benchmark: fewer allocs/op wins —
// a one-time pool warm-up or a GC emptying a sync.Pool can only add
// allocations, so the minimum is the steady state — then lower ns/op.
func better(a, b result) bool {
	if a.AllocsPerOp != b.AllocsPerOp {
		return a.AllocsPerOp < b.AllocsPerOp
	}
	return a.NsPerOp < b.NsPerOp
}

// parseBenchLine extracts "BenchmarkName-8  N  123 ns/op  45 B/op  6 allocs/op".
func parseBenchLine(line string) (string, result, bool) {
	f := strings.Fields(line)
	if len(f) < 4 {
		return "", result{}, false
	}
	name := f[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i] // strip -GOMAXPROCS suffix
		}
	}
	var r result
	seen := false
	for i := 2; i+1 < len(f); i++ {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			continue
		}
		switch f[i+1] {
		case "ns/op":
			r.NsPerOp, seen = v, true
		case "B/op":
			r.BytesPerOp = int64(v)
		case "allocs/op":
			r.AllocsPerOp = int64(v)
		case "placements/s":
			r.PlacementsPerSec = v
		case "state_bytes":
			r.StateBytes = int64(v)
		}
	}
	return name, r, seen
}

// load reads the history file, converting a legacy flat snapshot into
// the first history entry. A missing file starts an empty history.
func load(path string) (*histFile, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return &histFile{}, nil
	}
	if err != nil {
		return nil, err
	}
	var h histFile
	if err := json.Unmarshal(data, &h); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if h.History != nil {
		return &h, nil
	}
	var l legacy
	if err := json.Unmarshal(data, &l); err != nil || len(l.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s is neither a history file nor a legacy snapshot", path)
	}
	return &histFile{
		Goos:   l.Goos,
		Goarch: l.Goarch,
		CPU:    l.CPU,
		History: []entry{{
			Date:       "",
			Label:      "baseline (pre-history snapshot)",
			Benchtime:  l.Benchtime,
			Benchmarks: l.Benchmarks,
		}},
	}, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchhist:", err)
	os.Exit(1)
}
