package main

import (
	"encoding/json"
	"os"
	"testing"
)

// BENCHMARK.json at the repository root names the metrics this program
// prints; the two must not drift apart.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program runs %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not a runnable workload", w.Name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program prints %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		if c := endToEnd[i]; m.Name != c.name || m.Unit != c.unit || m.Bound != c.bound {
			t.Errorf("end_to_end[%d] = %s %s %g, program has %s %s %g", i, m.Name, m.Unit, m.Bound, c.name, c.unit, c.bound)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program prints %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		c := perLayer[i]
		better := "lower"
		if higherIsBetter[c.name] {
			better = "higher"
		}
		if m.Name != c.name || m.Unit != c.unit || m.Better != better {
			t.Errorf("per_layer[%d] = %s %s %s, program has %s %s %s", i, m.Name, m.Unit, m.Better, c.name, c.unit, better)
		}
	}
}
