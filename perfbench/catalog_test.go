package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
		Bound      float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// Every metric the benchmark prints is named in BENCHMARK.json with the
// same unit, and BENCHMARK.json names nothing the benchmark does not print.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, cat []Metric, listed map[string]string) {
		for _, m := range cat {
			if !nameRE.MatchString(m.Name) {
				t.Errorf("%s metric %q: name outside [A-Za-z0-9_.-]+", kind, m.Name)
			}
			unit, ok := listed[m.Name]
			if !ok {
				t.Errorf("%s metric %s is not in BENCHMARK.json", kind, m.Name)
			} else if unit != m.Unit {
				t.Errorf("%s metric %s: unit %q here, %q in BENCHMARK.json", kind, m.Name, m.Unit, unit)
			}
			delete(listed, m.Name)
		}
		for n := range listed {
			t.Errorf("BENCHMARK.json lists %s metric %s, which the benchmark does not report", kind, n)
		}
	}
	e2e, layer := map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		layer[m.Name] = m.Unit
	}
	check("end-to-end", EndToEnd, e2e)
	check("per-layer", PerLayer, layer)
	if len(b.Workloads) != len(Workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(b.Workloads), len(Workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != Workloads[i] {
			t.Errorf("workload %d: %s in BENCHMARK.json, %s here", i, w.Name, Workloads[i])
		}
	}
}

func TestSummariseTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	d := Summarise(xs)
	if d.P50 != 50.5 || d.Tail != 90 || d.TailPct != 90 {
		t.Errorf("Summarise(1..100) = p50 %v, tail %v at p%v; want 50.5, 90 at p90", d.P50, d.Tail, d.TailPct)
	}
	if d := Summarise(xs[:5]); d.Tail != 5 || d.TailPct != 100 {
		t.Errorf("five samples: tail %v at p%v, want the maximum", d.Tail, d.TailPct)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "map", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "cell", Start: 10, End: 60},
		{ID: 3, Parent: 1, Name: "cell", Start: 40, End: 90}, // overlaps its sibling
		{ID: 4, Parent: 2, Name: "run", Start: 20, End: 50},
	}
	self := SelfTimes(spans)
	for id, want := range map[int64]int64{1: 20, 2: 20, 3: 50, 4: 30} {
		if self[id] != want {
			t.Errorf("span %d: self %d, want %d", id, self[id], want)
		}
	}
}
