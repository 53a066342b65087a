// Command benchmark is the repository's benchmark harness: it drives
// the placement daemon, the placer pool and the simulator from outside,
// checks what they produce and prints the metrics BENCHMARK.json names.
//
//	go run -C benchmark . -seed 7                       every workload, untraced then traced
//	go run -C benchmark . -workload steady -seed 7 -seconds 30 -trace 0
//	go run -C benchmark . compare out/a.json out/b.json
//
// See README.md beside this file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// workload is one named pipeline: a served stage, a placer stage and a
// simulator stage, each parameterised differently per workload.
type workload struct {
	name   string
	daemon daemonStage
	placer placerStage
	sim    simStage
}

// The two workloads cover the five stages between them. "steady" takes
// the paths that neither learn nor checkpoint; "learning" takes the
// ones that do. Every stage of one is the bypass of its counterpart in
// the other.
var workloads = []workload{
	{
		name:   "steady",
		daemon: daemonStage{name: "serve-place", rate: 300, closedPerSec: 500, tailOps: 300},
		placer: placerStage{name: "place-scale", servers: 10000, shards: 16, topK: 32, idleEvery: 8, antagonists: 1},
		sim:    simStage{name: "sim-steps", hoursPerSec: 72, args: []string{"-scheduler", "worstfit"}},
	},
	{
		name:   "learning",
		daemon: daemonStage{name: "serve-mixed", rate: 150, observeFrac: 0.3, closedPerSec: 100, openFirst: true, tailObserve: true, tailOps: 200},
		placer: placerStage{name: "place-ladder", servers: 1000, shards: 16, topK: 32, idleEvery: 16, antagonists: 3},
		sim: simStage{name: "sim-chaos", hoursPerSec: 0.6, checkpointed: true,
			args: []string{"-train", "200", "-scheduler", "gsight", "-faults", "chaos"}},
	},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run is the state of one workload run.
type run struct {
	seed     uint64
	seconds  float64
	clients  int
	dataRoot string // per-run scratch on tmpfs (or -datadir)
	outDir   string // benchmark/out: binaries, traces, results
	simBin   string
	rec      *recorder // nil in the untraced pass

	mu         sync.Mutex
	metrics    map[string]metric
	setupParts map[string]float64 // seconds, per stage
	digests    map[string]string  // sha256 of deterministic simulator output, per stage
	attempted  int
	failed     int
	problems   []string
}

func (r *run) set(name string, v float64, unit string) {
	r.mu.Lock()
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.mu.Unlock()
}

// problem records a self-check violation; the run ends incorrect.
func (r *run) problem(format string, args ...any) {
	r.mu.Lock()
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
	r.mu.Unlock()
}

// note prints a progress line; stdout is kept for the results.
func (r *run) note(format string, args ...any) {
	r.mu.Lock()
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	r.mu.Unlock()
}

// share is a phase length as a share of --seconds.
func (r *run) share(f float64) time.Duration {
	return time.Duration(f * r.seconds * float64(time.Second))
}

// referenceSeconds is the run length the fixed counts are stated for.
const referenceSeconds = 30

// count scales a fixed operation count down for runs shorter than the
// reference (the smoke test); it never scales up.
func (r *run) count(n int) int {
	if r.seconds >= referenceSeconds {
		return n
	}
	return int(math.Max(1, math.Round(float64(n)*r.seconds/referenceSeconds)))
}

type row struct {
	label string
	value float64
}

// table prints one stage budget: each part, its share of the total,
// their sum and what is left unattributed.
func (r *run) table(title string, total float64, unit string, rows []row) float64 {
	var sum float64
	fmt.Fprintf(os.Stderr, "\nstage budget  %s = %.4g %s\n", title, total, unit)
	for _, row := range rows {
		sum += row.value
		fmt.Fprintf(os.Stderr, "  %10.4g %s  %5.1f%%  %s\n", row.value, unit, 100*row.value/total, row.label)
	}
	unattributed := 1 - sum/total
	fmt.Fprintf(os.Stderr, "  %10.4g %s  %5.1f%%  sum of the parts\n", sum, unit, 100*sum/total)
	fmt.Fprintf(os.Stderr, "  %10.4g %s  %5.1f%%  unattributed\n\n", total-sum, unit, 100*unattributed)
	return unattributed
}

// spinCalibration times a fixed CPU loop; a value that moves between
// the start and the end of a run flags a noisy neighbour.
func spinCalibration() time.Duration {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 20_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	spinSink.Store(x)
	return time.Since(t0)
}

// spinSink keeps the loop's result alive so the compiler cannot drop it.
var spinSink atomic.Uint64

// result is one run as written to a result file and, reduced to the
// four contract keys, as printed on the last line of standard output.
type result struct {
	Workload  string            `json:"workload"`
	Trace     int               `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Problems  []string          `json:"problems,omitempty"`
	Digests   map[string]string `json:"digests,omitempty"`
}

// resultFile is what the all-workloads mode writes and compare reads.
type resultFile struct {
	Seed    uint64            `json:"seed"`
	Seconds float64           `json:"seconds"`
	Env     map[string]string `json:"env"`
	Runs    []result          `json:"runs"`
}

type options struct {
	seed    uint64
	seconds float64
	dataDir string
	outDir  string
	simBin  string // the built gsight-sim
}

// runWorkload runs one workload once and returns every metric it
// measured; the caller keeps the ones its pass reports.
func runWorkload(w workload, traced bool, opt options) (*result, error) {
	dataRoot, err := os.MkdirTemp(opt.dataDir, "gsight-bench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dataRoot)
	clients := clientCount()
	r := &run{seed: opt.seed, seconds: opt.seconds, clients: clients, dataRoot: dataRoot, outDir: opt.outDir, simBin: opt.simBin,
		metrics: map[string]metric{}, setupParts: map[string]float64{}, digests: map[string]string{}}
	if traced {
		r.rec = newRecorder()
	}
	spin0 := spinCalibration()

	// The simulator goes first, while the harness is small: a child
	// started beside a parent holding a few hundred MB ran a quarter
	// slower on the reference sandbox (fresh guest pages fault to the
	// host; pages the parent freed do not).
	if err := runSimStage(r, w.sim); err != nil {
		return nil, err
	}
	art, err := runDaemon(r, w.daemon)
	if err != nil {
		return nil, err
	}
	if traced {
		if err := runProbes(r, w, art); err != nil {
			return nil, err
		}
	}
	// The placer stage has no end-to-end metric (see README, Moved), so
	// only the traced pass runs it.
	if traced {
		if err := runPlacer(r, w.placer); err != nil {
			return nil, err
		}
	}

	var setup float64
	for stage, s := range r.setupParts {
		setup += s
		r.set("setup."+stage+"_s", s, "s")
	}
	r.set("setup_s", setup, "s")
	spin1 := spinCalibration()
	r.set("env.spin_ms", ms(spin1), "ms")
	r.set("env.spin_drift_frac", spin1.Seconds()/spin0.Seconds()-1, "share")
	r.set("env.clients", float64(clients), "count")
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		r.set("proc.peak_rss_mb", float64(ru.Maxrss)/1024, "MB") // Linux reports KiB
	}

	res := &result{Workload: w.name, Correct: len(r.problems) == 0 && r.failed == 0,
		Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics, Problems: r.problems, Digests: r.digests}
	if traced {
		res.Trace = 1
		path := filepath.Join(opt.outDir, fmt.Sprintf("trace-%s-seed%d.json", w.name, opt.seed))
		if err := r.rec.writeChrome(path); err != nil {
			return nil, err
		}
		r.note("%s: %d spans written to %s", w.name, len(r.rec.spans), path)
	}
	return res, nil
}

// keep reduces a run's metrics to the names its pass must print, in the
// units BENCHMARK.json states; a name that was not measured is an error.
func keep(res *result, want []specMetric) error {
	out := make(map[string]metric, len(want))
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok {
			return fmt.Errorf("workload %s measured no %s", res.Workload, m.Name)
		}
		if got.Unit != m.Unit {
			return fmt.Errorf("%s is measured in %s, BENCHMARK.json says %s", m.Name, got.Unit, m.Unit)
		}
		out[m.Name] = got
	}
	res.Metrics = out
	return nil
}

// printMetrics lists a run's metrics by name with their units.
func printMetrics(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	pass := "end-to-end (untraced)"
	if res.Trace == 1 {
		pass = "per-layer (traced)"
	}
	fmt.Fprintf(os.Stderr, "\n%s: %s metrics; %d operations attempted, %d failed\n", res.Workload, pass, res.Attempted, res.Failed)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-34s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	for _, p := range res.Problems {
		fmt.Fprintf(os.Stderr, "  SELF-CHECK FAILED: %s\n", p)
	}
}

// clientCount is C: min(nproc, 4) client goroutines and connections.
func clientCount() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

func environment(dataDir string) map[string]string {
	return map[string]string{
		"go":       runtime.Version(),
		"nproc":    fmt.Sprint(runtime.NumCPU()),
		"clients":  fmt.Sprint(clientCount()),
		"data_dir": dataDir,
		"tmpfs":    fmt.Sprint(strings.HasPrefix(dataDir, "/dev/shm")),
	}
}

// defaultDataDir prefers tmpfs: the sandbox disk throttles fsync within
// a session, which would make two runs of one commit incomparable.
func defaultDataDir(outDir string) string {
	const shm = "/dev/shm"
	if probe, err := os.MkdirTemp(shm, "gsight-bench-probe-"); err == nil {
		os.Remove(probe)
		return shm
	}
	return outDir
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	if err := benchMain(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func benchMain() error {
	var opt options
	name := flag.String("workload", "", "workload to run (default: every workload, untraced then traced)")
	flag.Uint64Var(&opt.seed, "seed", 1, "workload seed: drives generated inputs only")
	seconds := flag.Float64("seconds", 0, "measured seconds per run (default: run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics of a traced run")
	flag.StringVar(&opt.dataDir, "datadir", "", "where data dirs live (default: /dev/shm when writable, else the out dir)")
	flag.StringVar(&opt.outDir, "out", "out", "directory for the built simulator, traces and result files")
	flag.Parse()

	root, sp, err := loadSpec()
	if err != nil {
		return err
	}
	opt.seconds = *seconds
	if opt.seconds <= 0 {
		opt.seconds = float64(sp.RunSeconds)
	}
	if opt.outDir, err = filepath.Abs(opt.outDir); err != nil {
		return err
	}
	if err := os.MkdirAll(opt.outDir, 0o755); err != nil {
		return err
	}
	if opt.dataDir == "" {
		opt.dataDir = defaultDataDir(opt.outDir)
	}
	if opt.simBin, err = buildSim(root, opt.outDir); err != nil {
		return err
	}
	env := environment(opt.dataDir)
	fmt.Fprintf(os.Stderr, "go %s, nproc %s, %s clients, data dirs under %s (tmpfs %s), seed %d, %.4g s\n",
		env["go"], env["nproc"], env["clients"], env["data_dir"], env["tmpfs"], opt.seed, opt.seconds)

	// measure runs one pass of one workload and prints what that pass
	// reports.
	measure := func(w workload, traced bool) (*result, error) {
		res, err := runWorkload(w, traced, opt)
		if err != nil {
			return nil, err
		}
		want := sp.EndToEnd
		if traced {
			want = sp.PerLayer
		}
		if err := keep(res, want); err != nil {
			return nil, err
		}
		printMetrics(res)
		return res, nil
	}

	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			return fmt.Errorf("unknown workload %q", *name)
		}
		res, err := measure(w, *trace == 1)
		if err != nil {
			return err
		}
		line, err := json.Marshal(struct {
			Correct   bool              `json:"correct"`
			Attempted int               `json:"attempted"`
			Failed    int               `json:"failed"`
			Metrics   map[string]metric `json:"metrics"`
		}{res.Correct, res.Attempted, res.Failed, res.Metrics})
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		if !res.Correct {
			return fmt.Errorf("workload %s: %d operations failed, %d self-checks violated", w.name, res.Failed, len(res.Problems))
		}
		return nil
	}

	// Every workload, untraced for the end-to-end numbers and once more
	// traced for the layers.
	file := resultFile{Seed: opt.seed, Seconds: opt.seconds, Env: env}
	bad := 0
	for _, traced := range []bool{false, true} {
		for _, w := range workloads {
			res, err := measure(w, traced)
			if err != nil {
				return err
			}
			if !res.Correct {
				bad++
			}
			file.Runs = append(file.Runs, *res)
		}
	}
	// The simulator's output is a function of the seed alone: the
	// untraced and the traced pass must have produced the same bytes.
	for i, a := range file.Runs {
		for _, b := range file.Runs[i+1:] {
			if a.Workload != b.Workload {
				continue
			}
			for stage, d := range a.Digests {
				if b.Digests[stage] != d {
					fmt.Fprintf(os.Stderr, "SELF-CHECK FAILED: %s output differs between passes of seed %d\n", stage, opt.seed)
					bad++
				}
			}
		}
	}
	path := filepath.Join(opt.outDir, fmt.Sprintf("result-seed%d-%s.json", opt.seed, time.Now().UTC().Format("20060102T150405")))
	if err := writeResultFile(path, &file); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "results written to %s\n", path)
	if bad > 0 {
		return fmt.Errorf("%d runs were incorrect", bad)
	}
	return nil
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func writeResultFile(path string, f *resultFile) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}
