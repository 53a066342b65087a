package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// FuzzAppendStr: whatever a string holds, the object field AppendStr
// writes and the decision-log line that carries the string as a name
// are JSON, and each decodes to the string's valid-UTF-8 form.
func FuzzAppendStr(f *testing.F) {
	for _, s := range []string{"", "matmul#17", `a"b\c`, "a\x01b\x1f", "tab\tnl\nret\r", "bad\xffutf8",
		"\xc3", "\xe4\xb8\xe4\xb8\xad", "中✓é", "�\xff", " \x7f", "\x00"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want := strings.ToValidUTF8(s, "�")
		obj := AppendStr(nil, "k", s) // ,"k":"…"
		obj[0] = '{'
		obj = append(obj, '}')
		var field struct {
			K string `json:"k"`
		}
		if !json.Valid(obj) {
			t.Fatalf("AppendStr(%q) = %s, not JSON", s, obj)
		}
		if err := json.Unmarshal(obj, &field); err != nil || field.K != want {
			t.Fatalf("AppendStr(%q) = %s decodes to %q, %v; want %q", s, obj, field.K, err, want)
		}

		var buf bytes.Buffer
		NewDecisionLog(&buf).Placement(&PlacementDecision{Scheduler: s, Workload: s, Outcome: s, Reason: s})
		line := bytes.SplitN(buf.Bytes(), []byte("\n"), 2)[1]
		var got PlacementDecision
		if !json.Valid(line) {
			t.Fatalf("placement line %s is not JSON", line)
		}
		if err := json.Unmarshal(line, &got); err != nil {
			t.Fatalf("placement line %s: %v", line, err)
		}
		if got.Scheduler != want || got.Workload != want || got.Outcome != want || got.Reason != want {
			t.Fatalf("placement line %s decodes to %+v, want every name %q", line, got, want)
		}
	})
}
