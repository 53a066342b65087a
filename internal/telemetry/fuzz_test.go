package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

// FuzzDecisionLogLine: whatever a name holds and whatever float an
// event carries, the placement, job_begin and pred_sample lines the log
// writes are JSON and decode to the event as encoding/json coerces it
// (each byte of invalid UTF-8 one U+FFFD, a float exactly). A NaN or an
// infinite float writes no line and leaves the stream an error naming
// the event.
func FuzzDecisionLogLine(f *testing.F) {
	for _, s := range []string{"", "matmul#17", `a"b\c`, "a\x01b\x1f", "tab\tnl\nret\r", "bad\xffutf8",
		"\xc3", "\xe4\xb8\xe4\xb8\xad", "中✓é", "�\xff", " \x7f", "\x00", "<a&b>", "  "} {
		f.Add(s, math.Float64bits(1.25))
	}
	for _, x := range []float64{0, math.Copysign(0, -1), 1e-7, 1.5e-5, 1234567, 1e21, -3.5e300, math.SmallestNonzeroFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1)} {
		f.Add("matmul", math.Float64bits(x))
	}
	f.Fuzz(func(t *testing.T, s string, bits uint64) {
		x := math.Float64frombits(bits)
		finite := !math.IsNaN(x) && !math.IsInf(x, 0)
		for _, want := range []any{
			&PlacementDecision{SimTimeS: x, Scheduler: s, Workload: s, Class: s, Outcome: s, Reason: s,
				Placement: []int{2}, PredIPC: x, PredJCTS: x, Tier0Kept: 1, Tier0Score: x},
			&JobBegin{SimTimeS: x, Archetype: s, Job: s, Placement: []int{0, 1}, PredJCTS: x},
			&PredSample{SimTimeS: x, Archetype: s, QoS: s, Pred: x, Obs: x},
		} {
			var buf bytes.Buffer
			l := NewDecisionLog(&buf)
			emitEvent(l, want)
			_, line, _ := bytes.Cut(buf.Bytes(), []byte("\n"))
			kind := reflect.TypeOf(want).Elem().Name()
			if !finite {
				if err := l.Stream().Err(); len(line) != 0 || err == nil || !strings.Contains(err.Error(), kind) {
					t.Fatalf("%s at %v: wrote %q, stream error %v; want no line and an error naming the event", kind, x, line, err)
				}
				continue
			}
			if err := l.Stream().Err(); err != nil || !json.Valid(line) {
				t.Fatalf("%s line %q (stream error %v) is not JSON", kind, line, err)
			}
			got := reflect.New(reflect.TypeOf(want).Elem()).Interface()
			if err := json.Unmarshal(line, got); err != nil {
				t.Fatalf("%s line %s: %v", kind, line, err)
			}
			canonical(want)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s line %s\ndecodes to %+v\nwant       %+v", kind, line, got, want)
			}
		}
	})
}
