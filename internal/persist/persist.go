// Package persist holds what a deployment of Gsight keeps across
// restarts: solo-run profile stores (profiling is a one-time cost the
// paper amortizes, §6.4) as plain JSON, and the durable-log primitives
// both controllers recover from — the checksummed WAL and the binary
// snapshot envelope. It knows nothing of schedulers or learners: their
// state reaches it as opaque payloads.
package persist

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"gsight/internal/metrics"
	"gsight/internal/profile"
	"gsight/internal/resources"
)

// allFinite reports whether every value is a real number. Loaders
// reject NaN/Inf rather than letting a silently corrupt model poison
// every downstream prediction.
func allFinite(vs []float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// profileJSON is the stable on-disk form of a profile.
type profileJSON struct {
	Workload string    `json:"workload"`
	Function string    `json:"function"`
	Metrics  []float64 `json:"metrics"`
	Demand   []float64 `json:"demand"`
	Alloc    []float64 `json:"alloc"`
}

func toProfileJSON(p profile.Profile) profileJSON {
	return profileJSON{
		Workload: p.Workload,
		Function: p.Function,
		Metrics:  p.Metrics[:],
		Demand:   p.Demand[:],
		Alloc:    p.Alloc[:],
	}
}

func fromProfileJSON(j profileJSON) (profile.Profile, error) {
	var p profile.Profile
	if len(j.Metrics) != int(metrics.NumCandidates) {
		return p, fmt.Errorf("persist: profile %s/%s has %d metrics, want %d",
			j.Workload, j.Function, len(j.Metrics), metrics.NumCandidates)
	}
	if len(j.Demand) != int(resources.NumKinds) || len(j.Alloc) != int(resources.NumKinds) {
		return p, fmt.Errorf("persist: profile %s/%s has malformed resource vectors", j.Workload, j.Function)
	}
	if !allFinite(j.Metrics) || !allFinite(j.Demand) || !allFinite(j.Alloc) {
		return p, fmt.Errorf("persist: profile %s/%s has non-finite values", j.Workload, j.Function)
	}
	p.Workload = j.Workload
	p.Function = j.Function
	copy(p.Metrics[:], j.Metrics)
	copy(p.Demand[:], j.Demand)
	copy(p.Alloc[:], j.Alloc)
	return p, nil
}

// storeJSON is the on-disk profile store.
type storeJSON struct {
	Version   int                      `json:"version"`
	Workloads map[string][]profileJSON `json:"workloads"`
}

// SaveStore writes a profile store as JSON.
func SaveStore(w io.Writer, s *profile.Store, workloads []string) error {
	out := storeJSON{Version: 1, Workloads: map[string][]profileJSON{}}
	for _, name := range workloads {
		ps, ok := s.Get(name)
		if !ok {
			return fmt.Errorf("persist: workload %q not in store", name)
		}
		js := make([]profileJSON, len(ps))
		for i, p := range ps {
			js[i] = toProfileJSON(p)
		}
		out.Workloads[name] = js
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// LoadStore reads a profile store from JSON.
func LoadStore(r io.Reader) (*profile.Store, error) {
	var in storeJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("persist: decode store: %w", err)
	}
	if in.Version != 1 {
		return nil, fmt.Errorf("persist: unsupported store version %d", in.Version)
	}
	s := profile.NewStore()
	for name, js := range in.Workloads {
		ps := make([]profile.Profile, len(js))
		for i, j := range js {
			p, err := fromProfileJSON(j)
			if err != nil {
				return nil, err
			}
			ps[i] = p
		}
		s.Put(name, ps)
	}
	return s, nil
}

// SaveStoreFile writes a profile store to path atomically (temp file +
// fsync + rename): a crash mid-save leaves the previous store intact,
// never a torn file.
func SaveStoreFile(path string, s *profile.Store, workloads []string) error {
	return writeFileWith(path, func(w io.Writer) error {
		return SaveStore(w, s, workloads)
	})
}
