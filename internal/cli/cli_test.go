package cli

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
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
