// Package cli is the gsight command line: one binary whose sub-commands
// cover the paper's pipeline — profile a workload (§3.2), label and
// train a predictor (Fig 10), schedule a simulated cluster (§6.3),
// regenerate the evaluation, serve placements and read the recordings
// back. One table drives dispatch and the usage text. A sub-command
// returns an error instead of exiting; Run turns it into the exit
// status, 1 unless an exitError says otherwise.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"syscall"

	"gsight/internal/telemetry"
)

// command is one sub-command. bind registers its flags on fs and
// returns its body, which runs on the positional arguments once fs has
// parsed them.
type command struct {
	name, summary string
	bind          func(fs *flag.FlagSet) func(args []string) error
}

// commands is the table Main dispatches on and usage prints.
func commands() []command {
	return []command{
		{"sim", "run the trace-driven cluster simulation under a scheduler (§6.3)", bindSim},
		{"serve", "run the placement daemon: HTTP API, write-ahead log, failover", bindServe},
		{"loadgen", "drive Poisson load against a daemon and report latency", bindLoadgen},
		{"train", "label a colocation dataset and train a predictor incrementally (Fig 10)", bindTrain},
		{"workload", "validate, profile or export a workload definition (§3.2)", bindWorkload},
		{"experiments", "regenerate the paper's tables and figures", bindExperiments},
		{"inspect", "read decision logs and snapshots; render traces", bindInspect},
	}
}

func usage(w io.Writer) {
	fmt.Fprintf(w, "usage: gsight <command> [flags] [args]\n\ncommands:\n")
	for _, c := range commands() {
		fmt.Fprintf(w, "  %-12s %s\n", c.name, c.summary)
	}
	fmt.Fprintf(w, "\nRun 'gsight <command> -h' for its flags.\n")
}

// Main runs `gsight <command> [flags] [args]` and returns the exit
// status.
func Main(args []string) int {
	if len(args) == 0 {
		usage(os.Stderr)
		return 2
	}
	switch args[0] {
	case "-h", "-help", "--help", "help":
		usage(os.Stdout)
		return 0
	}
	return Run("gsight "+args[0], args[0], args[1:])
}

// Run runs the sub-command called name under prog, the name its
// messages carry, and returns the exit status.
func Run(prog, name string, args []string) int {
	for _, c := range commands() {
		if c.name != name {
			continue
		}
		fs := flag.NewFlagSet(prog, flag.ContinueOnError)
		body := c.bind(fs)
		err := parseFlags(fs, args)
		if err == nil {
			err = body(fs.Args())
		}
		return exitStatus(prog, err)
	}
	fmt.Fprintf(os.Stderr, "gsight: unknown command %q\n\n", name)
	usage(os.Stderr)
	return 2
}

// exitError ends a command with a status other than 1 — 2 for a usage
// error, 3 for a fenced daemon — or with 1 and nothing more to print.
// err, when set, is printed first.
type exitError struct {
	code int
	err  error
}

func (e *exitError) Error() string {
	if e.err == nil {
		return fmt.Sprintf("exit status %d", e.code)
	}
	return e.err.Error()
}

// parseFlags parses args into fs. After fs has printed why, -h ends the
// command with status 0 and a bad flag with 2, as flag.ExitOnError would.
func parseFlags(fs *flag.FlagSet, args []string) error {
	err := fs.Parse(args)
	switch {
	case err == nil:
		return nil
	case errors.Is(err, flag.ErrHelp):
		return &exitError{code: 0}
	}
	return &exitError{code: 2}
}

func exitStatus(prog string, err error) int {
	if err == nil {
		return 0
	}
	code := 1
	var ee *exitError
	if errors.As(err, &ee) {
		code, err = ee.code, ee.err
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", prog, err)
	}
	return code
}

// signalContext is cancelled by SIGINT or SIGTERM.
func signalContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

// runEnv is the run set-up sim, train, experiments and workload share:
// the -v/-quiet logger, the signal context, the telemetry sink with its
// -decision-log and -debug-addr, the -report file, and the output files.
// The decision log is flushed and the files closed on every return path,
// so a failed or interrupted run still leaves whole records on disk.
type runEnv struct {
	verbose, quiet                      bool
	debugAddr, reportPath, decisionPath string

	log   *log.Logger // stderr, so stdout reports stay pipeable
	sink  *telemetry.Sink
	files []*os.File
}

// logFlags registers -v, -quiet and -debug-addr.
func (e *runEnv) logFlags(fs *flag.FlagSet) {
	fs.BoolVar(&e.verbose, "v", false, "verbose progress")
	fs.BoolVar(&e.quiet, "quiet", false, "errors only")
	fs.StringVar(&e.debugAddr, "debug-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address")
}

// outputFlags registers -report and -decision-log.
func (e *runEnv) outputFlags(fs *flag.FlagSet) {
	fs.StringVar(&e.reportPath, "report", "", "write a JSON run report to this file")
	fs.StringVar(&e.decisionPath, "decision-log", "", "write the JSONL decision log to this file")
}

// run sets the environment up and runs body under the signal context.
func (e *runEnv) run(body func(ctx context.Context) error) error {
	e.log = log.New(os.Stderr, "", 0)
	e.sink = telemetry.New()
	defer e.close()
	ctx, stop := signalContext()
	defer stop()
	if e.decisionPath != "" {
		f, err := e.create(e.decisionPath)
		if err != nil {
			return fmt.Errorf("decision log: %w", err)
		}
		e.sink.WithDecisions(f)
	}
	if e.debugAddr != "" {
		addr, err := telemetry.ServeDebug(e.debugAddr, e.sink.Registry)
		if err != nil {
			return fmt.Errorf("debug server: %w", err)
		}
		e.infof("debug server on http://%s (metrics, expvar, pprof)", addr)
	}
	err := body(ctx)
	// Recording never fails a run mid-way: the decision log's first
	// write error surfaces here, and fails a run that succeeded.
	if ferr := e.sink.Decisions.Stream().Flush(); ferr != nil {
		if err == nil {
			return fmt.Errorf("decision log: %w", ferr)
		}
		e.errorf("decision log: %v", ferr)
	}
	return err
}

// infof logs a progress message unless -quiet.
func (e *runEnv) infof(format string, args ...interface{}) {
	if !e.quiet {
		e.log.Printf(format, args...)
	}
}

// debugf logs a diagnostic message with -v, unless -quiet.
func (e *runEnv) debugf(format string, args ...interface{}) {
	if e.verbose && !e.quiet {
		e.log.Printf(format, args...)
	}
}

// errorf logs an error whatever the flags, prefixed "error: ".
func (e *runEnv) errorf(format string, args ...interface{}) {
	e.log.Printf("error: "+format, args...)
}

// create creates (or truncates) an output file that run closes.
func (e *runEnv) create(path string) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err == nil {
		e.files = append(e.files, f)
	}
	return f, err
}

// close closes every output file, logging errors.
func (e *runEnv) close() {
	for _, f := range e.files {
		if err := f.Close(); err != nil {
			e.errorf("%v", err)
		}
	}
}

// report writes the -report file, when one was asked for.
func (e *runEnv) report(tool string, config, summary map[string]interface{}) error {
	if e.reportPath == "" {
		return nil
	}
	if err := telemetry.WriteRunReport(e.reportPath, e.sink.Report(tool, config, summary)); err != nil {
		return fmt.Errorf("run report: %w", err)
	}
	e.infof("run report written to %s", e.reportPath)
	return nil
}
