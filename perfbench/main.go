// Command perfbench is the repository's benchmark. One run measures one
// workload for one seed and prints, as its last line, a JSON object with
// the end-to-end metrics (-trace 0) or the per-layer metrics (-trace 1):
//
//	bash perfbench/run.sh --workload cold-mix --seed 1 --seconds 30 --trace 0
//
// The workloads, and why each exists, are in BENCHMARK.json and gen.go:
//
//   - cold-mix: seeded grids over all ten kernels, datasets on both sides
//     of each core count's L2, every spec under pdf and ws, each swept by
//     `sweep -grid -parallel 2` into an empty cache: the simulator's cost.
//   - warm-fleet: two cached shards warmed once, then a closed loop of
//     sweeps from an empty local cache that must be all remote hits: the
//     cost of serving a result, with no simulation at all.
//   - service-mix: one sweepd and two closed-loop clients posting small
//     grid jobs, half repeats (all hits), half new (all misses): the job
//     service and the fixed per-cell costs of small cells.
//
// End-to-end metrics are measured with no tracing, from the built
// binaries. The traced run (-trace 1) drives the same cells in-process:
// through the program's own grid path with the program's per-cell phase
// tracer, and through a copy of that path with a span around every call
// into a layer. It reports per-layer times and the simulated counts of one
// pass. Every run checks its outputs: a wrong or missing result counts as
// a failed operation.
//
// Each run also writes a record, with the host fingerprint, the raw
// samples, the input shares and the sim-stats digest, to
// .bench_out/<workload>-s<seed>-<e2e|traced>.json, and the traced run its
// spans as JSONL beside it.
//
// What the numbers are not: the simulator has no hardware reference in
// this repository, so its modelled cycles are unvalidated and no error
// figure is given. Each cell's modelled caches start empty, since that is
// how the simulator defines a cell.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"syscall"
	"time"
)

// Metric is one catalogued metric; BENCHMARK.json lists the same names.
type Metric struct{ Name, Unit string }

// EndToEnd metrics are reported by every workload with tracing off.
var EndToEnd = []Metric{
	{"setup_s", "s"},
	{"cells_per_s", "1/s"},
	{"cpu_ms_per_cell", "ms"},
	{"peak_rss_mb", "MB"},
}

// PerLayer metrics are reported by every workload's traced run.
var PerLayer = []Metric{
	{"runner.busy_frac", "ratio"},
	{"workloads.acquire_ms", "ms"},
	{"workloads.pool_hit_ratio", "ratio"},
	{"workloads.builds", "count"},
	{"workloads.build_s", "s"},
	{"workloads.verify_ms", "ms"},
	{"workloads.idle_mb", "MB"},
	{"sim.new_us", "us"},
	{"sim.run_s", "s"},
	{"sim.ns_per_instr", "ns"},
	{"sim.instructions", "count"},
	{"sim.cycles", "count"},
	{"sim.tasks", "count"},
	{"trace.record_ns_per_action", "ns"},
	{"trace.actions", "count"},
	{"cache.access_ns", "ns"},
	{"cache.l1_hit_ratio", "ratio"},
	{"cache.l2_hit_ratio", "ratio"},
	{"cache.offchip_mb", "MB"},
	{"cache.bus_queue_cycles", "count"},
	{"core.steals", "count"},
	{"core.dispatch_cycles", "count"},
	{"rcache.hit_ratio", "ratio"},
	{"rcache.key_us", "us"},
	{"rcache.do_hit_us_p50", "us"},
	{"rcache.do_hit_us_tail", "us"},
	{"rcache.do_miss_overhead_us", "us"},
	{"rcache.remote_errs", "count"},
	{"rcache.corrupt", "count"},
	{"grid.resolve_ms", "ms"},
	{"grid.project_ms", "ms"},
	{"jobs.submit_ms", "ms"},
	{"jobs.fetch_ms", "ms"},
	{"jobs.queue_ms", "ms"},
	{"jobs.run_ms", "ms"},
	{"jobs.rejected", "count"},
	{"sweep.exec_ms", "ms"},
	{"bench.trace_overhead_frac", "ratio"},
	{"bench.layer_self_share", "ratio"},
	{"failed_frac", "ratio"},
}

// Workload metrics are measured by the end-to-end run of the workload they
// belong to and written to its record, but are not in BENCHMARK.json:
// every end-to-end metric there must be reported, nonzero, by every
// workload.
var Workload = []Metric{
	{"sim_minstr_per_s", "Minstr/s"}, // cold-mix
	{"sweep_p50_ms", "ms"},           // warm-fleet
	{"sweep_tail_ms", "ms"},
	{"jobs_per_s", "1/s"}, // service-mix
	{"job_warm_p50_ms", "ms"},
	{"job_warm_tail_ms", "ms"},
	{"job_cold_p50_ms", "ms"},
	{"job_cold_tail_ms", "ms"},
	{"failed_frac", "ratio"}, // every run
}

// Workloads lists the workload names in BENCHMARK.json order.
var Workloads = []string{"cold-mix", "warm-fleet", "service-mix"}

// Config is one run's settings.
type Config struct {
	Workload string
	Seed     uint64
	Seconds  time.Duration
	Trace    bool
	Bin      string
	Out      string
	Size     Size
}

// Run makes one benchmark run and returns its result. A non-nil error
// means the run could not be made at all.
func Run(cfg Config) (*Result, error) {
	in, err := Generate(cfg.Workload, cfg.Seed, cfg.Size)
	if err != nil {
		return nil, err
	}
	for _, b := range []string{"sweep", "cached", "sweepd"} {
		if _, err := os.Stat(filepath.Join(cfg.Bin, b)); err != nil {
			return nil, fmt.Errorf("binary missing: %w", err)
		}
	}
	work, err := os.MkdirTemp(cfg.Out, "work-")
	if err != nil {
		return nil, err
	}
	defer func() {
		// Sync after removing, so the file system has finished freeing the
		// run's files before the next run starts measuring.
		os.RemoveAll(work)
		syscall.Sync()
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	env := &Env{Ctx: ctx, Bin: cfg.Bin, Work: work, Seconds: cfg.Seconds, Size: cfg.Size}
	res := NewResult()
	switch {
	case cfg.Trace:
		err = Traced(env, in, res)
		res.Metrics["failed_frac"] = ratio(float64(res.Failed), float64(res.Attempted))
	case cfg.Workload == "cold-mix":
		err = ColdMix(env, in, res)
	case cfg.Workload == "warm-fleet":
		err = WarmFleet(env, in, res)
	default:
		err = ServiceMix(env, in, res)
	}
	if err == nil {
		err = env.Err()
	}
	if err != nil {
		return nil, err
	}
	res.Record["failed_frac"] = ratio(float64(res.Failed), float64(res.Attempted))
	res.Record["shares"] = in.Shares()
	return res, nil
}

// Line is the last line a run prints.
type Line struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]map[string]any `json:"metrics"`
}

// Output builds the result line from the catalogue; a catalogued metric
// the run did not measure is an error.
func Output(res *Result, trace bool) (Line, error) {
	cat := EndToEnd
	if trace {
		cat = PerLayer
	}
	l := Line{Correct: res.Failed == 0 && res.Attempted > 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]map[string]any{}}
	for _, m := range cat {
		v, ok := res.Metrics[m.Name]
		if !ok {
			return l, fmt.Errorf("metric %s was not measured", m.Name)
		}
		l.Metrics[m.Name] = map[string]any{"value": v, "unit": m.Unit}
	}
	return l, nil
}

func main() {
	var cfg Config
	var seconds int
	var trace int
	flag.StringVar(&cfg.Workload, "workload", "", "workload: cold-mix, warm-fleet or service-mix")
	flag.Uint64Var(&cfg.Seed, "seed", 1, "input seed")
	flag.IntVar(&seconds, "seconds", 30, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1: the traced run, reporting per-layer metrics")
	flag.StringVar(&cfg.Bin, "bin", ".bench_build/bin", "directory holding the built sweep, cached and sweepd")
	flag.StringVar(&cfg.Out, "out", ".bench_out", "directory for records and scratch files")
	flag.Parse()
	cfg.Seconds, cfg.Trace = time.Duration(seconds)*time.Second, trace == 1
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(cfg Config) error {
	if err := os.MkdirAll(cfg.Out, 0o755); err != nil {
		return err
	}
	host := Fingerprint(cfg.Bin)
	res, err := Run(cfg)
	if err != nil {
		return err
	}
	line, err := Output(res, cfg.Trace)
	if err != nil {
		return err
	}
	mode := "e2e"
	if cfg.Trace {
		mode = "traced"
	}
	stem := filepath.Join(cfg.Out, fmt.Sprintf("%s-s%d-%s", cfg.Workload, cfg.Seed, mode))
	rec := map[string]any{
		"workload": cfg.Workload, "seed": cfg.Seed, "seconds": cfg.Seconds.Seconds(), "trace": cfg.Trace,
		"host": host, "line": line, "metrics": res.Metrics, "extra": res.Record, "failures": res.Failures,
		"model": "unvalidated: no hardware reference in this repository, so no error figure is given; each cell's modelled caches start empty",
	}
	b, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(stem+".json", b, 0o644); err != nil {
		return err
	}
	if res.Spans != nil {
		f, err := os.Create(stem + ".spans.jsonl")
		if err != nil {
			return err
		}
		if err := WriteJSONL(f, res.Spans); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	// Every measured value by name and unit, then the result line.
	fmt.Printf("host: %s\n", host.Shape)
	cat := slices.Concat(EndToEnd, Workload)
	if cfg.Trace {
		cat = PerLayer
	}
	for _, m := range cat {
		if v, ok := res.Metrics[m.Name]; ok {
			fmt.Printf("%-28s %-14.6g %s\n", m.Name, v, m.Unit)
		} else if v, ok := res.Record[m.Name]; ok {
			fmt.Printf("%-28s %-14.6g %s\n", m.Name, v, m.Unit)
		}
	}
	for _, k := range []string{"sweep_ms", "job_warm_ms", "job_cold_ms"} {
		if d, ok := res.Record[k].(Dist); ok {
			fmt.Printf("%-28s n=%d p50=%.3f tail=%.3f at p%.1f\n", k, d.N, d.P50, d.Tail, d.TailPct)
		}
	}
	fmt.Printf("%-28s %v\n%-28s %v\n", "digest", res.Record["digest"], "shares", res.Record["shares"])
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}
