// Package logx is the small leveled logger the gsight sub-commands
// share. Progress and diagnostics go to stderr so the reports the tools
// print on stdout stay pipeable; -v and -quiet map onto the Debug and
// Quiet levels.
package logx

import (
	"fmt"
	"io"
	"os"
	"sync"
)

// Level filters log output.
type Level int

const (
	// Quiet suppresses everything but errors.
	Quiet Level = iota
	// Info shows progress messages (the default).
	Info
	// Debug additionally shows detailed diagnostics (-v).
	Debug
)

// LevelFor maps the conventional -v/-quiet flag pair to a level; -quiet
// wins when both are set.
func LevelFor(verbose, quiet bool) Level {
	switch {
	case quiet:
		return Quiet
	case verbose:
		return Debug
	}
	return Info
}

// Logger writes leveled, line-oriented messages. Safe for concurrent
// use.
type Logger struct {
	mu  sync.Mutex
	w   io.Writer
	lvl Level
}

// New returns a logger writing to w at the given level.
func New(w io.Writer, lvl Level) *Logger { return &Logger{w: w, lvl: lvl} }

// Default returns the conventional cmd logger: stderr at LevelFor's
// level.
func Default(verbose, quiet bool) *Logger {
	return New(os.Stderr, LevelFor(verbose, quiet))
}

func (l *Logger) printf(format string, args ...interface{}) {
	l.mu.Lock()
	fmt.Fprintf(l.w, format+"\n", args...)
	l.mu.Unlock()
}

// Infof logs a progress message (Info and Debug levels).
func (l *Logger) Infof(format string, args ...interface{}) {
	if l.lvl >= Info {
		l.printf(format, args...)
	}
}

// Debugf logs a diagnostic message (Debug level only).
func (l *Logger) Debugf(format string, args ...interface{}) {
	if l.lvl >= Debug {
		l.printf(format, args...)
	}
}

// Errorf logs an error unconditionally, prefixed "error: ".
func (l *Logger) Errorf(format string, args ...interface{}) {
	l.printf("error: "+format, args...)
}
