package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// specMetric is one metric entry of BENCHMARK.json.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// spec is BENCHMARK.json: the harness prints exactly the metrics it
// names, so the file and the program cannot drift apart unnoticed.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

// loadSpec finds BENCHMARK.json in the working directory or its parent
// (`go run -C benchmark .` runs the harness inside benchmark/) and
// returns the checkout root with it.
func loadSpec() (root string, sp *spec, err error) {
	for _, dir := range []string{".", ".."} {
		data, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err != nil {
			continue
		}
		sp = &spec{}
		if err := json.Unmarshal(data, sp); err != nil {
			return "", nil, fmt.Errorf("BENCHMARK.json: %w", err)
		}
		root, err := filepath.Abs(dir)
		return root, sp, err
	}
	return "", nil, fmt.Errorf("BENCHMARK.json not found in the working directory or its parent")
}
