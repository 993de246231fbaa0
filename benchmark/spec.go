package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// spec is BENCHMARK.json: the workloads, and each metric's unit,
// direction and regression bound. The benchmark reads names, units and
// bounds from it rather than repeating them.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadSpec reads BENCHMARK.json from the repository root, which is the
// working directory or its parent (when run from benchmark/).
func loadSpec() (*spec, error) {
	path := "BENCHMARK.json"
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		path = filepath.Join("..", path)
		data, err = os.ReadFile(path)
	}
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for _, w := range sp.Workloads {
		if _, err := findWorkload(w.Name); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
	}
	return &sp, nil
}
