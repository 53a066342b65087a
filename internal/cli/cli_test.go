package cli

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"gsight/internal/experiments"
	"gsight/internal/persist"
)

// usageCommands returns the sub-command names the usage text lists.
func usageCommands(t *testing.T) []string {
	t.Helper()
	var buf bytes.Buffer
	usage(&buf)
	var names []string
	listing := false
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "commands:":
			listing = true
		case listing && strings.HasPrefix(line, "  "):
			names = append(names, strings.Fields(line)[0])
		case listing:
			listing = false
		}
	}
	if len(names) != len(commands()) {
		t.Fatalf("usage lists %d commands %v, the table has %d", len(names), names, len(commands()))
	}
	return names
}

func TestEveryUsageCommandDispatches(t *testing.T) {
	for _, name := range usageCommands(t) {
		// -h reaches the command's own flag set only if Main found it;
		// an unknown command exits 2.
		if got := Main([]string{name, "-h"}); got != 0 {
			t.Errorf("gsight %s -h exited %d, want 0", name, got)
		}
	}
}

func TestExitStatus(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want int
	}{
		{nil, 2},
		{[]string{"bogus"}, 2},
		{[]string{"help"}, 0},
		{[]string{"sim", "-no-such-flag"}, 2},
		{[]string{"sim", "-train", "0"}, 1},
		{[]string{"serve"}, 2},
		{[]string{"experiments", "-format", "html"}, 2},
		{[]string{"experiments", "-list"}, 0},
		{[]string{"inspect"}, 2},
		{[]string{"inspect", "bogus"}, 2},
		{[]string{"inspect", "summary"}, 1},
		{[]string{"workload"}, 1},
	} {
		if got := Main(tc.args); got != tc.want {
			t.Errorf("gsight %s exited %d, want %d", strings.Join(tc.args, " "), got, tc.want)
		}
	}
}

// TestFlagsMatchGolden pins every sub-command's flag names and defaults
// to testdata/flags.golden, which lists those of the seven binaries the
// sub-commands replaced, so no option is added, dropped or re-defaulted
// silently.
func TestFlagsMatchGolden(t *testing.T) {
	var got strings.Builder
	for _, c := range commands() {
		fs := flag.NewFlagSet(c.name, flag.ContinueOnError)
		c.bind(fs)
		fs.VisitAll(func(f *flag.Flag) {
			fmt.Fprintf(&got, "%s -%s=%q\n", c.name, f.Name, f.DefValue)
		})
	}
	want, err := os.ReadFile(filepath.Join("testdata", "flags.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("flags differ from testdata/flags.golden:\ngot:\n%s\nwant:\n%s", got.String(), want)
	}
}

// TestTrainErrorExitKeepsDecisionLog: a train run that fails after
// training (its -save path cannot be created) still flushes its
// decision log, and the log holds the same whole lines as the
// successful run.
func TestTrainErrorExitKeepsDecisionLog(t *testing.T) {
	dir := t.TempDir()
	train := func(log string, extra ...string) int {
		args := append([]string{"train", "-scenarios", "60", "-quiet", "-decision-log", filepath.Join(dir, log)}, extra...)
		return Main(args)
	}
	if got := train("failed.jsonl", "-save", filepath.Join(dir, "missing", "x.ckpt")); got != 1 {
		t.Fatalf("train with an uncreatable -save exited %d, want 1", got)
	}
	if got := train("ok.jsonl"); got != 0 {
		t.Fatalf("train exited %d, want 0", got)
	}
	failed, err := os.ReadFile(filepath.Join(dir, "failed.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	ok, err := os.ReadFile(filepath.Join(dir, "ok.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ok) == 0 || !bytes.HasSuffix(ok, []byte("\n")) {
		t.Fatalf("successful run wrote %d bytes of decision log", len(ok))
	}
	if !bytes.Equal(failed, ok) {
		t.Errorf("failed run's decision log (%d bytes, %d lines) differs from the successful run's (%d bytes, %d lines)",
			len(failed), bytes.Count(failed, []byte("\n")), len(ok), bytes.Count(ok, []byte("\n")))
	}
}

// TestExperimentsParallelMatchesSerial: -parallel changes how many
// experiments run at once, not what is emitted. Two experiments, the
// slower one first, give the same reports with and without it; and
// under a context cancelled beforehand every id reports cancelled in
// both modes.
func TestExperimentsParallelMatchesSerial(t *testing.T) {
	const ids = "fig8,table1"
	dir := t.TempDir()
	took := regexp.MustCompile(`\(\S+ took .*\)`)
	reports := func(extra ...string) string {
		out := filepath.Join(dir, "reports.txt")
		args := append([]string{"experiments", "-run", ids, "-scale", "0.05", "-quiet", "-o", out}, extra...)
		if got := Main(args); got != 0 {
			t.Fatalf("gsight %s exited %d, want 0", strings.Join(args, " "), got)
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		return took.ReplaceAllString(string(data), "")
	}
	serial, parallel := reports(), reports("-parallel")
	if serial == "" || parallel != serial {
		t.Errorf("-parallel reports differ from the serial ones:\nserial:\n%s\nparallel:\n%s", serial, parallel)
	}

	for _, par := range []bool{false, true} {
		log := filepath.Join(dir, fmt.Sprintf("cancelled-%v.jsonl", par))
		c := &experimentsCmd{
			runEnv:   runEnv{quiet: true, decisionPath: log},
			opt:      experiments.Options{Scale: 0.05, Seed: 42},
			runList:  ids,
			format:   "text",
			out:      filepath.Join(dir, "cancelled.txt"),
			parallel: par,
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		var ee *exitError
		if err := c.run(func(context.Context) error { return c.runAll(ctx) }); !errors.As(err, &ee) || ee.code != 1 {
			t.Fatalf("parallel=%v: cancelled run returned %v, want exit status 1", par, err)
		}
		data, err := os.ReadFile(log)
		if err != nil {
			t.Fatal(err)
		}
		status := map[string]string{}
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			var ev struct{ Event, ID, Status string }
			if err := json.Unmarshal([]byte(line), &ev); err != nil {
				t.Fatal(err)
			}
			if ev.Event == "experiment" {
				status[ev.ID] = ev.Status
			}
		}
		for _, id := range strings.Split(ids, ",") {
			if status[id] != "cancelled" {
				t.Errorf("parallel=%v: %s reported %q, want cancelled", par, id, status[id])
			}
		}
	}
}

// TestSimRecordingWiring: -decision-log is the one recording flag.
// It writes the whole run into one file — lifecycle events and one step
// sample per simulated step — and nothing beside it, and a write error
// to it fails the run.
func TestSimRecordingWiring(t *testing.T) {
	dir := t.TempDir()
	sim := func(want int, extra ...string) {
		args := append([]string{"sim", "-hours", "1", "-train", "16", "-faults", "chaos", "-quiet"}, extra...)
		if got := Main(args); got != want {
			t.Fatalf("gsight %s exited %d, want %d", strings.Join(args, " "), got, want)
		}
	}
	sim(0, "-decision-log", filepath.Join(dir, "run.jsonl"))
	log, err := os.ReadFile(filepath.Join(dir, "run.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"fault", "job_end", "placement"} {
		if !bytes.Contains(log, []byte(`"event":"`+kind+`"`)) {
			t.Errorf("the chaos run's decision log holds no %s event", kind)
		}
	}
	if steps := bytes.Count(log, []byte(`{"event":"step",`)); steps != 120 {
		t.Errorf("the 1 h run logged %d step samples, want 120", steps)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Errorf("the run wrote %d files, want the decision log alone", len(entries))
	}
	sim(1, "-decision-log", "/dev/full")
}

// TestServeCommandRefusesOtherSnapshotFormat: `gsight serve -data D` on
// a data dir written in another snapshot format exits non-zero with an
// error naming both formats, and leaves D byte for byte as it found it:
// the refusal comes before the lease is taken, so not even lease.json
// appears.
func TestServeCommandRefusesOtherSnapshotFormat(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	files := map[string]string{
		"snap-000000001.ckpt":      `{"version":1,"seq":1,"sha256":"44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a","payload":{}}`,
		"snap-000000002.ckpt":      `{"version":1,"seq":2,"sha256":"44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a","payload":{}}`,
		"wal-000000002.jsonl":      "",
		"decisions.jsonl":          `{"seq":1,"kind":"release","release":{"name":"x","released":false}}` + "\n",
		"snap-000000003.ckpt.tmp1": "half a snapshot",
	}
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	stderr, err := os.CreateTemp(t.TempDir(), "stderr")
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stderr
	os.Stderr = stderr
	code := Main([]string{"serve", "-data", dir, "-train", "4", "-addr", "127.0.0.1:0"})
	os.Stderr = saved
	out, err := os.ReadFile(stderr.Name())
	if err != nil {
		t.Fatal(err)
	}
	if code == 0 || !bytes.Contains(out, []byte("format 1")) || !bytes.Contains(out, []byte(fmt.Sprintf("format %d", persist.SnapshotVersion))) {
		t.Fatalf("gsight serve on a format-1 data dir exited %d with\n%s\nwant non-zero, naming both formats", code, out)
	}
	for name, data := range files {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil || string(got) != data {
			t.Errorf("%s changed: %q (%v)", name, got, err)
		}
	}
	if entries, _ := os.ReadDir(dir); len(entries) != len(files) {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Errorf("data dir now holds %v", names)
	}
}
