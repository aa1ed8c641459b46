package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/machine"
	"repro/internal/workloads"
)

func defsJSON(t *testing.T, workload string, seed uint64) []byte {
	t.Helper()
	in, err := Generate(workload, seed, Full)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestGenerateDeterministic(t *testing.T) {
	for _, w := range Workloads {
		a, b := defsJSON(t, w, 7), defsJSON(t, w, 7)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 generated different inputs on two calls", w)
		}
		if c := defsJSON(t, w, 8); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 generated the same inputs", w)
		}
	}
}

// The generator sizes datasets with footprint; it must agree with what
// Build allocates.
func TestFootprintMatchesBuild(t *testing.T) {
	for _, k := range workloads.Names() {
		for _, n := range []int{1024, 4096, 16384} {
			if isMatrix(k) {
				n /= 64
			}
			in := workloads.Build(workloads.Spec{Name: k, N: n, Grain: 2048, Seed: 1})
			if got, want := footprint(k, n), int64(in.Footprint()); got != want {
				t.Errorf("footprint(%s, %d) = %d, Build allocates %d", k, n, got, want)
			}
		}
	}
}

func TestInputsAreValidAndShared(t *testing.T) {
	for _, w := range Workloads {
		in, err := Generate(w, 3, Full)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range in.Defs {
			g, err := d.Def.Resolve(1)
			if err != nil {
				t.Fatalf("%s %s: %v", w, d.Name, err)
			}
			if len(g.Cells()) != d.Cells {
				t.Errorf("%s %s: %d cells, counted %d", w, d.Name, len(g.Cells()), d.Cells)
			}
			for _, c := range g.Cells() {
				if err := c.Spec.Validate(); err != nil {
					t.Errorf("%s %s: %v", w, d.Name, err)
				}
			}
		}
		s := in.Shares()
		t.Logf("%s shares: %v", w, s)
		switch w {
		case "cold-mix":
			if s["exceeds_l2"] < 0.2 || s["exceeds_l2"] > 0.5 || s["pdf_ws_paired"] != 1 {
				t.Errorf("cold-mix shares %v: want 20-50%% of cells over L2, all paired", s)
			}
			for _, d := range in.Defs {
				if len(d.Def.Cores) == 2 && machine.Default(d.Def.Cores[0]).L2Size != machine.Default(d.Def.Cores[1]).L2Size {
					t.Errorf("%s: core counts %v have different L2 sizes", d.Name, d.Def.Cores)
				}
			}
		case "warm-fleet":
			if in.Defs[0].Cells != 128 {
				t.Errorf("warm-fleet has %d cells, want 128", in.Defs[0].Cells)
			}
		case "service-mix":
			if r := s["repeat_jobs"]; r < 0.45 || r > 0.5 {
				t.Errorf("service-mix repeats %.3f of jobs, want about half", r)
			}
			for _, d := range in.Defs {
				if d.Cells < 8 || d.Cells > 16 {
					t.Errorf("%s has %d cells, want 8 to 16", d.Name, d.Cells)
				}
			}
			if in.Jobs[0].Repeat {
				t.Error("the first job repeats nothing")
			}
		}
	}
}
