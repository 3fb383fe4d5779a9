package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// TestMetricsMatchBenchmarkJSON pins that the benchmark reports exactly
// the metrics the repository's BENCHMARK.json declares, with the same
// units, and that it knows every declared workload.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q unknown to the benchmark", w.Name)
		}
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		t.Errorf("benchmark has %d workloads, BENCHMARK.json %v", len(workloads), names)
	}

	var e2e []decl
	for _, l := range endToEnd(phase{elapsed: 1}, 0) {
		e2e = append(e2e, decl{l.name, l.unit})
	}
	if !slices.Equal(e2e, doc.EndToEnd) {
		t.Errorf("end-to-end metrics: benchmark %v, BENCHMARK.json %v", e2e, doc.EndToEnd)
	}
	var pl []decl
	for _, m := range perLayer {
		pl = append(pl, decl{m.name, m.unit})
	}
	if !slices.Equal(pl, doc.PerLayer) {
		t.Errorf("per-layer metrics: benchmark %v, BENCHMARK.json %v", pl, doc.PerLayer)
	}
}

// TestLayersReportOnlyDeclaredMetrics catches a workload filling a
// metric name that perLayer does not print.
func TestLayersReportOnlyDeclaredMetrics(t *testing.T) {
	declared := map[string]bool{}
	for _, m := range perLayer {
		declared[m.name] = true
	}
	for _, w := range []workload{&wordCount{}, &ghostFleet{}, &peachyd{}} {
		for name := range w.layers() {
			if !declared[name] {
				t.Errorf("%T reports undeclared metric %q", w, name)
			}
		}
	}
	for _, layer := range []string{"bench", "mapreduce", "ghost", "net", "job", "runner"} {
		if !declared[layer+".self_s"] {
			t.Errorf("no self-time metric for layer %q", layer)
		}
	}
}
