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

// fillRandom sets every field of the struct v points to but its Head,
// which the log stamps: a quarter of them to their zero value, so the
// omitempty fields are seen both present and absent, the rest to random
// values — strings that need escaping (control characters and invalid
// UTF-8 among them), floats across magnitudes, float32 columns.
func fillRandom(rng *rand.Rand, v reflect.Value) {
	pieces := []string{"a", "b", "z", "-", "_", " ", "#", "/", `"`, `\`, "é", "中", "✓", "0", "9",
		"\x00", "\x01", "\x1f", "\x7f", "\n", "\r", "\t", "\xff", "\xc3", "\xe4\xb8", "\ufffd", "\u2028", "<", "&"}
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if v.Type().Field(i).Anonymous {
			continue
		}
		if rng.Intn(4) == 0 {
			f.SetZero()
			continue
		}
		switch f.Kind() {
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Pointer: // *bool
			f.Set(reflect.New(f.Type().Elem()))
			f.Elem().SetBool(rng.Intn(2) == 0)
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

// canonical puts each string of ev in the form encoding/json writes
// it: each byte of invalid UTF-8 becomes one U+FFFD, as converting the
// string to runes reads it.
func canonical(ev any) {
	v := reflect.ValueOf(ev).Elem()
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.String {
			f.SetString(string([]rune(f.String())))
		}
	}
}

// TestDecisionLogRoundTrip: for every event kind, seeded random values
// encode to a line that decodes — through NewEvent and the struct's JSON
// tags — back into an equal event, head included: the omitempty fields
// present and absent, strings that need escaping (control characters
// and invalid UTF-8 come back in encoding/json's form), floats at every
// magnitude and the float32 columns. A field without a tag fails here.
func TestDecisionLogRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, kind := range eventKinds {
		typ := reflect.TypeOf(NewEvent(kind)).Elem()
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.Tag.Get("json") == "" && !f.Anonymous {
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

// TestColumnDecodesAsFloat32s: a step column's own decoder gives what
// encoding/json gives for a []float32, and refuses what it refuses.
func TestColumnDecodesAsFloat32s(t *testing.T) {
	for _, in := range []string{`null`, `[]`, `[ ]`, `[0]`, `[ 1 , -0 ,0.1, 2.5e-7,1E3 ]`, `[null,3]`, `[0.33333334,16777217]`,
		`[1e39]`, `[-1e39]`, `["1"]`, `[[1]]`, `[true]`, `{}`, `"x"`, `1`} {
		var want []float32
		wantErr := json.Unmarshal([]byte(`{"c":`+in+`}`), &struct{ C *[]float32 }{&want})
		var got struct{ C Column }
		gotErr := json.Unmarshal([]byte(`{"c":`+in+`}`), &got)
		if (gotErr != nil) != (wantErr != nil) || (wantErr == nil && !reflect.DeepEqual([]float32(got.C), want)) {
			t.Errorf("%s decodes to %#v, %v; encoding/json gives %#v, %v", in, got.C, gotErr, want, wantErr)
		}
	}
}
