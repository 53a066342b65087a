package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// eventKinds is every event kind the decision log writes.
var eventKinds = []string{"placement", "experiment", "predictor_update", "reactive", "fault", "degraded",
	"predictor_drift", "job_begin", "job_end", "pred_sample", "step"}

// emitEvent writes ev through the encoder of its kind.
func emitEvent(l *DecisionLog, ev any) {
	switch e := ev.(type) {
	case *PlacementDecision:
		l.Placement(e)
	case *ExperimentRun:
		l.Experiment(e)
	case *PredictorUpdate:
		l.PredictorUpdate(e)
	case *ReactiveAction:
		l.Reactive(e)
	case *FaultEvent:
		l.Fault(e)
	case *DegradedTransition:
		l.Degraded(e)
	case *DriftEvent:
		l.Drift(e)
	case *JobBegin:
		l.JobBegin(e)
	case *JobEnd:
		l.JobEnd(e)
	case *PredSample:
		l.PredSample(e)
	case *StepSample:
		l.Step(e)
	default:
		panic("no encoder for " + reflect.TypeOf(ev).String())
	}
}

// fillRandom sets every field of the struct v points to: a quarter of
// them to their zero value, so the conditional fields are seen both
// present and absent, the rest to random values — strings that need
// escaping (control characters and invalid UTF-8 among them), floats
// across magnitudes, float32 columns.
func fillRandom(rng *rand.Rand, v reflect.Value) {
	pieces := []string{"a", "b", "z", "-", "_", " ", "#", "/", `"`, `\`, "é", "中", "✓", "0", "9",
		"\x00", "\x01", "\x1f", "\x7f", "\n", "\r", "\t", "\xff", "\xc3", "\xe4\xb8", "\ufffd", "\u2028"}
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if rng.Intn(4) == 0 {
			f.SetZero()
			continue
		}
		switch f.Kind() {
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Int:
			f.SetInt(int64(rng.Intn(2001) - 1000))
		case reflect.Float64:
			f.SetFloat(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(13)-6)))
		case reflect.String:
			var b strings.Builder
			for n := 1 + rng.Intn(12); n > 0; n-- {
				b.WriteString(pieces[rng.Intn(len(pieces))])
			}
			f.SetString(b.String())
		case reflect.Slice:
			n := 1 + rng.Intn(6)
			s := reflect.MakeSlice(f.Type(), n, n)
			for j := 0; j < s.Len(); j++ {
				switch e := s.Index(j); e.Kind() {
				case reflect.Int:
					e.SetInt(int64(rng.Intn(64)))
				case reflect.Float32:
					e.SetFloat(float64(float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4)))))
				}
			}
			f.Set(s)
		default:
			panic("fillRandom: field " + v.Type().Field(i).Name + " of kind " + f.Kind().String())
		}
	}
}

// canonical clears what the encoder of ev's kind leaves out of its line
// — a conditional field at a value it does not log — makes the arrays
// it always logs non-nil, as a decode of `[]` returns them, and puts
// each string in the valid UTF-8 form the log writes.
func canonical(ev any) {
	v := reflect.ValueOf(ev).Elem()
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.String {
			f.SetString(strings.ToValidUTF8(f.String(), "\uFFFD"))
		}
	}
	nonNeg := func(v *float64) {
		if *v <= 0 {
			*v = 0
		}
	}
	always := func(s *[]int) {
		if *s == nil {
			*s = []int{}
		}
	}
	switch e := ev.(type) {
	case *PlacementDecision:
		nonNeg(&e.PredIPC)
		nonNeg(&e.PredJCTS)
		if !e.Tier0 {
			e.Tier0Kept, e.Tier0Pruned, e.Tier0Score = 0, 0, 0
		}
	case *JobBegin:
		always(&e.Placement)
		nonNeg(&e.PredJCTS)
	case *JobEnd:
		nonNeg(&e.Slowdown)
		e.SLAOK = e.SLAOK && e.Checked
	case *StepSample:
		if e.CPUDemand == nil {
			e.CPUDemand = []float32{}
		}
		if e.MemUsed == nil {
			e.MemUsed = []float32{}
		}
	}
}

// TestDecisionLogRoundTrip: for every event kind, seeded random values
// encode to a line that decodes — through NewEvent and the struct's JSON
// tags — back into an equal event: the conditional fields present and
// absent, the presence-derived Tier0 and Checked, strings that need
// escaping (control characters and invalid UTF-8 come back in
// strings.ToValidUTF8's form), floats at every magnitude and the
// float32 columns. A field
// an encoder writes that its struct does not tag, or one it leaves out,
// fails here.
func TestDecisionLogRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, kind := range eventKinds {
		typ := reflect.TypeOf(NewEvent(kind)).Elem()
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.Tag.Get("json") == "" {
				t.Errorf("%s.%s has no json tag", typ.Name(), f.Name)
			}
		}
		for i := 0; i < 300; i++ {
			want := NewEvent(kind)
			fillRandom(rng, reflect.ValueOf(want).Elem())
			var buf bytes.Buffer
			emitEvent(NewDecisionLog(&buf), want)
			canonical(want)
			line := bytes.SplitN(buf.Bytes(), []byte("\n"), 2)[1]
			var head struct{ Event string }
			if err := json.Unmarshal(line, &head); err != nil || head.Event != kind {
				t.Fatalf("%s line %s: event %q, %v", kind, line, head.Event, err)
			}
			got := NewEvent(kind)
			if err := json.Unmarshal(line, got); err != nil {
				t.Fatalf("%s line %s: %v", kind, line, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s line %s\ndecodes to %+v\nwant       %+v", kind, line, got, want)
			}
		}
	}
	if NewEvent("header") != nil || NewEvent("bogus") != nil {
		t.Error("NewEvent returns a struct for a kind the log does not write")
	}
}
