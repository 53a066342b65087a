package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
)

// WritePrometheus renders every registered instrument in the Prometheus
// text exposition format, in lexical name order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	var b bytes.Buffer
	r.mu.Lock()
	for _, name := range r.sortedNames() {
		switch m := r.byName[name].(type) {
		case *Counter:
			writeHeader(&b, name, m.help, "counter")
			fmt.Fprintf(&b, "%s %d\n", name, m.Value())
		case *Gauge:
			writeHeader(&b, name, m.help, "gauge")
			fmt.Fprintf(&b, "%s %s\n", name, fmtFloat(m.Value()))
		case *Histogram:
			writeHeader(&b, name, m.help, "histogram")
			bounds, cum := m.snapshotBuckets()
			for i, bound := range bounds {
				fmt.Fprintf(&b, "%s_bucket{le=%q} %d\n", name, fmtFloat(bound), cum[i])
			}
			fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", name, cum[len(cum)-1])
			fmt.Fprintf(&b, "%s_sum %s\n%s_count %d\n", name, fmtFloat(m.Sum()), name, m.Count())
			fmt.Fprintf(&b, "%s_min %s\n%s_max %s\n", name, fmtFloat(m.Min()), name, fmtFloat(m.Max()))
		}
	}
	r.mu.Unlock()
	_, err := w.Write(b.Bytes())
	return err
}

func writeHeader(b *bytes.Buffer, name, help, typ string) {
	if help != "" {
		fmt.Fprintf(b, "# HELP %s %s\n", name, help)
	}
	fmt.Fprintf(b, "# TYPE %s %s\n", name, typ)
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// HistogramSnapshot is a histogram's summary in a run report.
// Quantiles are exact while the sample count fits the histogram's
// raw-sample buffer, interpolated otherwise; min and max are always
// exact.
type HistogramSnapshot struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	P999  float64 `json:"p999"`
}

// snapshotQuantiles are the quantiles Snapshot exports, in
// HistogramSnapshot field order.
var snapshotQuantiles = []float64{0.50, 0.95, 0.99, 0.999}

// Snapshot is a point-in-time JSON-friendly view of a registry.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures every instrument's current value.
func (r *Registry) Snapshot() *Snapshot {
	snap := &Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return snap
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, m := range r.byName {
		switch m := m.(type) {
		case *Counter:
			snap.Counters[name] = m.Value()
		case *Gauge:
			snap.Gauges[name] = m.Value()
		case *Histogram:
			var qbuf [4]float64
			qs := m.Quantiles(snapshotQuantiles, qbuf[:])
			snap.Histograms[name] = HistogramSnapshot{
				Count: m.Count(),
				Sum:   m.Sum(),
				Min:   m.Min(),
				Max:   m.Max(),
				P50:   qs[0],
				P95:   qs[1],
				P99:   qs[2],
				P999:  qs[3],
			}
		}
	}
	return snap
}

// RunReport is the exportable summary of one tool run: what ran, with
// which configuration, the headline results, and the full metrics
// snapshot. Written as indented JSON next to the experiment output.
type RunReport struct {
	Tool           string                 `json:"tool"`
	Config         map[string]interface{} `json:"config,omitempty"`
	Summary        map[string]interface{} `json:"summary,omitempty"`
	DecisionEvents uint64                 `json:"decision_events,omitempty"`
	Metrics        *Snapshot              `json:"metrics,omitempty"`
}

// Report builds a run report from the sink's registry and decision log.
func (s *Sink) Report(tool string, config, summary map[string]interface{}) *RunReport {
	rep := &RunReport{Tool: tool, Config: config, Summary: summary}
	if s != nil {
		rep.Metrics = s.Registry.Snapshot()
		rep.DecisionEvents = s.Decisions.Stream().Records()
	}
	return rep
}

// WriteRunReport marshals the report as indented JSON to path.
func WriteRunReport(path string, rep *RunReport) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
