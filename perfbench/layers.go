package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// perLayer reads the per-layer metrics, with their units, from the
// per_layer list of BENCHMARK.json at the repository root: the one list
// of what a traced run reports.
func perLayer(root string) ([]struct{ Name, Unit string }, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec struct {
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if len(spec.PerLayer) == 0 {
		return nil, fmt.Errorf("BENCHMARK.json lists no per_layer metrics")
	}
	return spec.PerLayer, nil
}

// fillLayers reports 0 for every per-layer metric this workload does
// not exercise (README.md, "Per-layer metrics", says which layer each
// workload drives). A metric listed as unmeasured (a *.cpu_share rule
// whose function is gone) stays missing. A metric measured but not
// declared in BENCHMARK.json is an error: the two lists must agree.
func (r *run) fillLayers() error {
	declared, err := perLayer(r.root)
	if err != nil {
		return err
	}
	known := map[string]bool{}
	var zero []string
	for _, m := range declared {
		known[m.Name] = true
		if got, ok := r.layer[m.Name]; ok {
			if got.Unit != m.Unit {
				return fmt.Errorf("per-layer %s measured in %s, declared in %s", m.Name, got.Unit, m.Unit)
			}
			continue
		}
		if _, ok := r.unmeasured[m.Name]; ok {
			continue
		}
		r.layer[m.Name] = metric{0, m.Unit}
		zero = append(zero, m.Name)
	}
	for name := range r.layer {
		if !known[name] {
			return fmt.Errorf("per-layer %s is measured but not declared in BENCHMARK.json", name)
		}
	}
	if len(zero) > 0 {
		r.note("not exercised by %s (reported as 0): %v", r.workload, zero)
	}
	return nil
}
