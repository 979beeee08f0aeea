package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json, which names the
// workloads and metrics the benchmark promises, in step with the metric
// tables the runs report from.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var bench struct {
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, code %d", len(bench.Workloads), len(workloads))
	}
	for i, w := range bench.Workloads {
		if w.Name != workloads[i] || w.Why == "" {
			t.Errorf("workload %d: %+v, want %s with a reason", i, w, workloads[i])
		}
	}
	check := func(kind string, got []entry, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, code %d", kind, len(got), len(want))
			return
		}
		for i, e := range got {
			if e.Name != want[i].name || e.Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], code %s [%s]", kind, i, e.Name, e.Unit, want[i].name, want[i].unit)
			}
			if !validName(e.Name) {
				t.Errorf("%s: invalid metric name %q", kind, e.Name)
			}
			if e.Better != "lower" && e.Better != "higher" {
				t.Errorf("%s: %s better = %q", kind, e.Name, e.Better)
			}
		}
	}
	check("end_to_end", bench.EndToEnd, endToEnd)
	check("per_layer", bench.PerLayer, perLayer)
	for _, e := range bench.EndToEnd {
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("end_to_end %s bound %v outside (0, 0.25]", e.Name, e.Bound)
		}
	}
}

func TestResultComplete(t *testing.T) {
	res := &result{}
	for _, d := range endToEnd {
		res.set(d.name, 1)
	}
	if err := res.complete(endToEnd); err != nil {
		t.Fatalf("complete result refused: %v", err)
	}
	if res.Metrics["setup_s"].Unit != "s" {
		t.Fatalf("setup_s unit %q", res.Metrics["setup_s"].Unit)
	}
	res.set("extra", 1)
	if err := res.complete(endToEnd); err == nil {
		t.Fatal("result with an extra metric accepted")
	}
	delete(res.Metrics, "extra")
	delete(res.Metrics, "setup_s")
	if err := res.complete(endToEnd); err == nil {
		t.Fatal("result missing setup_s accepted")
	}
}
