package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"

	"gsight/internal/stats"
)

// simStage describes one run of the real gsight-sim binary.
type simStage struct {
	name         string
	hoursPerSec  float64  // simulated hours per second of --seconds
	args         []string // flags besides -hours, -seed and the output paths
	checkpointed bool     // pass -checkpoint-dir and -decision-log
}

// simOutcome is what one gsight-sim run printed, timed from outside.
type simOutcome struct {
	startup  time.Duration // process start to the "running ..." progress line
	simulate time.Duration // "running ..." to "simulated in ..."
	steps    int
	density  float64 // mean function density, instances per core
	slaOK    float64 // mean over services of the SLA-guarantee ratio
	digest   string  // sha256 of the deterministic output (report lines + decision log)
	maxRSSMB float64
	report   *simReport // -report contents
}

// simReport is the part of the -report file the layer metrics read.
type simReport struct {
	Summary struct {
		MeanDensity float64 `json:"mean_density"`
	} `json:"summary"`
	Metrics struct {
		Counters   map[string]float64 `json:"counters"`
		Gauges     map[string]float64 `json:"gauges"`
		Histograms map[string]struct {
			Count float64 `json:"count"`
			Sum   float64 `json:"sum"`
			P50   float64 `json:"p50"`
			P99   float64 `json:"p99"`
		} `json:"histograms"`
	} `json:"metrics"`
}

// buildSim compiles cmd/gsight-sim from the checkout into outDir.
func buildSim(root, outDir string) (string, error) {
	bin := filepath.Join(outDir, "gsight-sim")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/gsight-sim")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build gsight-sim: %v\n%s", err, out)
	}
	return bin, nil
}

var (
	stepsRe   = regexp.MustCompile(`\((\d+) steps\)`)
	densityRe = regexp.MustCompile(`^function density \(inst/core\): mean ([0-9.]+)`)
	slaRe     = regexp.MustCompile(`^SLA guarantee \S+\s+([0-9.]+)% of the time`)
)

// runSim runs gsight-sim once in dir and waits for it to end. The
// harness clocks the progress lines itself as they arrive on stderr.
func runSim(bin, dir string, st simStage, hours float64, seed uint64) (*simOutcome, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	args := append([]string{"-hours", strconv.FormatFloat(hours, 'f', -1, 64), "-seed", strconv.FormatUint(seed, 10)}, st.args...)
	logPath := filepath.Join(dir, "decisions.jsonl")
	if st.checkpointed {
		args = append(args, "-checkpoint-dir", filepath.Join(dir, "ckpt"), "-decision-log", logPath)
	}
	// -report only adds a file written after the run; the simulator's
	// telemetry sink is on either way. It carries the density with all
	// its digits, where the printed report rounds to three.
	reportPath := filepath.Join(dir, "report.json")
	args = append(args, "-report", reportPath)
	cmd := exec.Command(bin, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	out := &simOutcome{}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("%s: %w", st.name, err)
	}
	var running time.Time
	var progress strings.Builder
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		line := sc.Text()
		progress.WriteString(line + "\n")
		switch {
		case strings.Contains(line, "trace-driven simulation under"):
			running = time.Now()
			out.startup = running.Sub(t0)
		case strings.Contains(line, "simulated in"):
			out.simulate = time.Since(running)
			if m := stepsRe.FindStringSubmatch(line); m != nil {
				out.steps, _ = strconv.Atoi(m[1])
			}
		}
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("%s: gsight-sim %s: %v\n%s", st.name, strings.Join(args, " "), err, progress.String())
	}
	if running.IsZero() || out.simulate <= 0 {
		return nil, fmt.Errorf("%s: gsight-sim printed no progress lines:\n%s", st.name, progress.String())
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		out.maxRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}

	// The report on stdout, minus its two wall-clock lines, repeats
	// exactly for a seed; so does the decision log.
	h := sha256.New()
	var slas []float64
	for _, line := range strings.Split(stdout.String(), "\n") {
		if strings.HasPrefix(line, "scheduling wall-clock:") || strings.HasPrefix(line, "run report written") {
			continue
		}
		h.Write([]byte(line + "\n"))
		if m := densityRe.FindStringSubmatch(line); m != nil {
			out.density, _ = strconv.ParseFloat(m[1], 64)
		}
		if m := slaRe.FindStringSubmatch(line); m != nil {
			v, _ := strconv.ParseFloat(m[1], 64)
			slas = append(slas, v/100)
		}
	}
	if st.checkpointed {
		log, err := os.ReadFile(logPath)
		if err != nil {
			return nil, err
		}
		h.Write(log)
	}
	out.digest = hex.EncodeToString(h.Sum(nil))
	out.slaOK = stats.Mean(slas)
	if out.density <= 0 || len(slas) == 0 {
		return nil, fmt.Errorf("%s: could not read density and SLA ratios from the report:\n%s", st.name, stdout.String())
	}
	data, err := os.ReadFile(reportPath)
	if err != nil {
		return nil, err
	}
	out.report = &simReport{}
	if err := json.Unmarshal(data, out.report); err != nil {
		return nil, fmt.Errorf("%s: report: %w", st.name, err)
	}
	if d := out.report.Summary.MeanDensity; d > 0 {
		out.density = d
	}
	return out, nil
}

// runSimStage measures one simulator workload; the traced pass also
// reads the layer metrics out of its -report.
func runSimStage(r *run, st simStage) error {
	hours := st.hoursPerSec * r.seconds
	dir := filepath.Join(r.dataRoot, st.name)
	r.attempted++
	t0 := time.Now()
	rep, err := runSim(r.simBin, dir, st, hours, r.seed)
	if err != nil {
		r.failed++
		return err
	}
	r.rec.add(st.name+".startup", t0, t0.Add(rep.startup), -1, 0)
	r.rec.add(st.name+".simulate", t0.Add(rep.startup), t0.Add(rep.startup+rep.simulate), -1, 0)
	// Set-up is start-up (on sim-chaos mostly predictor training); two
	// more starts with next to nothing to simulate give a median of 3.
	startups := []float64{rep.startup.Seconds()}
	for i := 1; i < setupRepeats; i++ {
		r.attempted++
		again, err := runSim(r.simBin, filepath.Join(dir, fmt.Sprintf("start%d", i)), st, 0.1, r.seed)
		if err != nil {
			r.failed++
			return err
		}
		startups = append(startups, again.startup.Seconds())
	}
	r.setupParts["sim"] = median(startups)
	r.set("platform.sim_hours_per_s", hours/rep.simulate.Seconds(), "h/s")
	r.set("sim_density", rep.density, "inst/core")
	r.set("sim_sla_ok_frac", rep.slaOK, "share")
	r.digests[st.name] = rep.digest
	r.note("%s: gsight-sim %s, %.4gh simulated (%d steps) in %.2fs, start-up %.2fs",
		st.name, strings.Join(st.args, " "), hours, rep.steps, rep.simulate.Seconds(), rep.startup.Seconds())
	if r.rec == nil {
		return nil
	}
	r.set("proc.sim_peak_rss_mb", rep.maxRSSMB, "MB")
	m := rep.report.Metrics
	ckpt := m.Histograms["platform_checkpoint_seconds"]
	step := m.Histograms["platform_step_seconds"]
	update := m.Histograms["ml_forest_update_seconds"]
	r.set("platform.checkpoint_ms_p50", ckpt.P50*1000, "ms")
	r.set("platform.checkpoint_s_total", ckpt.Sum, "s")
	r.set("platform.checkpoints_total", m.Counters["platform_checkpoints_total"], "count")
	r.set("platform.wal_records_total", m.Counters["platform_wal_records_total"], "count")
	r.set("platform.step_us_p50", step.P50*1e6, "us")
	r.set("platform.step_us_p99", step.P99*1e6, "us")
	var schedTotal float64
	for name, h := range m.Histograms {
		if strings.HasPrefix(name, "sched_") && strings.HasSuffix(name, "_place_seconds") {
			schedTotal += h.Sum
		}
	}
	r.set("platform.sched_s_total", schedTotal, "s")
	r.set("platform.steps_total", m.Counters["platform_steps_total"], "count")
	r.set("platform.placements_total", float64(sumPrefixed(m.Counters, "sched_", "_placements_total")), "count")
	r.set("platform.cold_starts_total", m.Counters["platform_cold_starts_total"], "count")
	r.set("sim.events_executed_total", m.Counters["sim_events_executed_total"], "count")
	r.set("ml.sim_update_s_total", update.Sum, "s")
	r.set("ml.sim_update_count", update.Count, "count")
	r.set("ml.sim_window_size", m.Gauges["ml_forest_window_size"], "count")

	// Stage budget: what the phase's wall time is made of.
	wall := rep.simulate.Seconds()
	steps := step.Sum - update.Sum - schedTotal
	r.table(st.name+": sim phase wall", wall, "s", []row{
		{"platform checkpoints (platform.checkpoint_s_total)", ckpt.Sum},
		{"online model updates (ml.sim_update_s_total)", update.Sum},
		{"scheduler Place calls (platform.sched_s_total)", schedTotal},
		{"rest of the step loop (platform_step_seconds sum minus the two above)", steps},
	})
	return nil
}

func sumPrefixed(m map[string]float64, prefix, suffix string) float64 {
	var sum float64
	for name, v := range m {
		if strings.HasPrefix(name, prefix) && strings.HasSuffix(name, suffix) {
			sum += v
		}
	}
	return sum
}
