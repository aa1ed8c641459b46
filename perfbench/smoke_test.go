package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// binDir holds sweep, cached and sweepd built from the parent module.
var binDir string

func TestMain(m *testing.M) {
	os.Exit(func() int {
		dir, err := os.MkdirTemp("", "perfbench-bin-")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer os.RemoveAll(dir)
		cmd := exec.Command("go", "build", "-o", dir+string(filepath.Separator), "./cmd/sweep", "./cmd/cached", "./cmd/sweepd")
		cmd.Dir = ".."
		if out, err := cmd.CombinedOutput(); err != nil {
			fmt.Fprintf(os.Stderr, "building the binaries: %v\n%s", err, out)
			return 1
		}
		binDir = dir
		return m.Run()
	}())
}

func tinyRun(t *testing.T, workload, bin string, trace bool, seconds time.Duration) *Result {
	t.Helper()
	res, err := Run(Config{Workload: workload, Seed: 5, Seconds: seconds, Trace: trace, Bin: bin, Out: t.TempDir(), Size: Tiny})
	if err != nil {
		t.Fatalf("%s (trace %t): %v", workload, trace, err)
	}
	return res
}

// Each workload, end to end and traced, at tiny sizes: no failed operation
// and every catalogued metric measured.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the simulator")
	}
	for _, w := range Workloads {
		for _, trace := range []bool{false, true} {
			res := tinyRun(t, w, binDir, trace, time.Second)
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s (trace %t): %d of %d operations failed: %v", w, trace, res.Failed, res.Attempted, res.Failures)
			}
			if _, err := Output(res, trace); err != nil {
				t.Errorf("%s (trace %t): %v", w, trace, err)
			}
			if trace {
				if s := res.Metrics["bench.layer_self_share"]; s < 0.9 {
					t.Errorf("%s: layers' self time covers %.3f of cell time, want >= 0.9", w, s)
				}
				if w == "warm-fleet" && res.Metrics["rcache.hit_ratio"] != 1 {
					t.Errorf("warm-fleet: rcache.hit_ratio %v, want 1", res.Metrics["rcache.hit_ratio"])
				}
			}
		}
	}
}

// A sweep whose CSV is altered must fail the traced run's comparison of
// the in-process path with the CLI's output.
func TestGateCatchesCorruptOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the simulator")
	}
	dir := t.TempDir()
	for _, b := range []string{"cached", "sweepd"} {
		if err := os.Symlink(filepath.Join(binDir, b), filepath.Join(dir, b)); err != nil {
			t.Fatal(err)
		}
	}
	// Append a digit to the first data row: still a well-formed CSV.
	script := fmt.Sprintf("#!/bin/sh\n%q \"$@\" | sed '2s/$/0/'\n", filepath.Join(binDir, "sweep"))
	if err := os.WriteFile(filepath.Join(dir, "sweep"), []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	res := tinyRun(t, "cold-mix", dir, true, time.Second)
	caught := false
	for _, f := range res.Failures {
		caught = caught || strings.Contains(f, "differs from the CLI's")
	}
	if res.Failed == 0 || !caught {
		t.Errorf("corrupted CLI output not caught: %d failures %v", res.Failed, res.Failures)
	}
	if _, err := Output(res, true); err != nil || res.Metrics["failed_frac"] == 0 {
		t.Errorf("failed_frac %v (err %v), want > 0", res.Metrics["failed_frac"], err)
	}
}

// The traced run repeats its passes for as long as the run lasts, but
// reports one pass's simulated counts: a longer run gives the same counts.
func TestSimCountsIndependentOfSeconds(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the simulator")
	}
	short := tinyRun(t, "cold-mix", binDir, true, time.Second)
	long := tinyRun(t, "cold-mix", binDir, true, 4*time.Second)
	if short.Record["reps"] == long.Record["reps"] {
		t.Fatalf("both runs made %v reps; the test needs them to differ", short.Record["reps"])
	}
	for _, m := range []string{"sim.instructions", "sim.cycles", "sim.tasks", "cache.offchip_mb", "cache.bus_queue_cycles",
		"core.steals", "core.dispatch_cycles", "trace.actions"} {
		if short.Metrics[m] == 0 || short.Metrics[m] != long.Metrics[m] {
			t.Errorf("%s: %v in a 1 s run, %v in a 4 s run", m, short.Metrics[m], long.Metrics[m])
		}
	}
}
