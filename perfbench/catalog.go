package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// catalog is the benchmark's metric contract, read from BENCHMARK.json
// at the repository root: the end-to-end metrics every untraced run
// reports and the per-layer metrics every traced run reports (a layer
// the workload bypasses reads 0). Later changes refer to metrics by
// these names.
type catalog struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadCatalog(root string) (*catalog, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var c catalog
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if len(c.EndToEnd) == 0 || len(c.PerLayer) == 0 {
		return nil, fmt.Errorf("BENCHMARK.json lists no end_to_end or no per_layer metrics")
	}
	return &c, nil
}

// serveUnits are the units of the serve workload's latency and capacity
// figures. The untraced serve run prints them next to the end-to-end
// metrics, but they are not in the result line: the other workloads
// have no HTTP clients to time.
var serveUnits = map[string]string{
	"cached_p50_ms": "ms",
	"cached_p99_ms": "ms",
	"cold_p50_ms":   "ms",
	"cold_p90_ms":   "ms",
	"max_ok_rate":   "1/s",
}

// unitOf returns the unit of a named metric, or guesses it from the
// suffix for the self times of layers outside the catalog.
func (c *catalog) unitOf(name string) string {
	for _, list := range [][]metricDef{c.EndToEnd, c.PerLayer} {
		for _, m := range list {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	if u, ok := serveUnits[name]; ok {
		return u
	}
	if strings.HasSuffix(name, "_s") {
		return "s"
	}
	return ""
}
