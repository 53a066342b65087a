// Package persist holds what a deployment of Gsight keeps across
// restarts: solo-run profile stores (profiling is a one-time cost the
// paper amortizes, §6.4) as plain JSON, the durable-log primitives the
// serving daemon recovers from — the checksummed WAL and the binary
// snapshot envelope. It knows nothing of schedulers or learners: their
// state reaches it as opaque payloads.
package persist

import (
	"encoding/json"
	"fmt"
	"io"

	"gsight/internal/profile"
)

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

// SaveStoreFile writes a profile store to path atomically (temp file +
// fsync + rename): a crash mid-save leaves the previous store intact,
// never a torn file.
func SaveStoreFile(path string, s *profile.Store, workloads []string) error {
	return writeFileWith(path, func(w io.Writer) error {
		return SaveStore(w, s, workloads)
	})
}
