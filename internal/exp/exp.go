// Package exp defines the reproduction's experiments: for every figure and
// finding in the paper there is an experiment id that regenerates the
// corresponding table or series. EXPERIMENTS.md carries the full index (and
// DESIGN.md the architecture notes behind it); this package is the single
// implementation used by cmd/sweep, the examples, and the benchmark harness,
// so all three always agree.
package exp

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/rcache"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// Seed fixes all experiment randomness (data generation and WS victim
// selection). Published numbers in EXPERIMENTS.md use this seed.
const Seed = 20060730 // SPAA'06 opening day

// Parallelism is the number of simulation cells a plan runs concurrently
// (1 = serial). Each cell is deterministic and independent, and the runner
// preserves submit order, so results are identical at every setting; only
// wall time changes. cmd/sweep's -parallel flag sets this.
var Parallelism = runtime.GOMAXPROCS(0)

// Cache, when non-nil, memoizes simulation cells by their content address
// (config + spec + scheduler + Seed + quick) through runCellTraced. Because
// every cell is a deterministic function of that identity, a cached Run is
// byte-for-byte the record a fresh simulation would produce, so experiment
// output is identical with the cache off, cold, or warm. Set it (like Parallelism)
// before running experiments; cmd/sweep wires it to the -cache flags.
var Cache *rcache.Store

// Tracer, when non-nil, records one obs span per simulation cell a plan
// runs: wall time split into cache-lookup / pool-acquire / build / reset /
// simulate / store phases, plus the resolving outcome. The tracer only
// observes — results and stdout are byte-identical with it on or off
// (TestTraceByteIdentical) — so cmd/sweep can enable it per run via
// -trace-out. Set (like Parallelism and Cache) before running experiments.
var Tracer *obs.Tracer

// InstancePool memoizes built workload instances below the cell cache: an
// rcache miss still reuses the (reset) instance a sibling scheduler arm
// already built for the same spec, halving-or-better cold-sweep build work.
// A pooled reuse is invisible in results — Instance.Reset restores the
// build-time bytes, so output is byte-identical with the pool on or off
// (TestPooledMatchesUnpooled). nil disables pooling (every run builds
// fresh); the cold-sweep benchmark pair flips this.
var InstancePool = workloads.DefaultPool

// A cell names one independent simulation: a workload instance on a machine
// configuration under a scheduler. Experiments enumerate their cells up
// front and a plan runs them. cell is comparable — every field of Config
// and Spec is a scalar — so a plan deduplicates on the value itself.
type cell struct {
	cfg   machine.Config
	spec  workloads.Spec
	sched string
}

// runCellTraced simulates one cell, consulting the injected cache when
// present. quick is part of the cell's cache identity: published (full) and
// quick tables never share entries even where their shrunken parameters
// happen to collide. tr records the cell's span: the registry path passes
// the package-level Tracer, while the job service (internal/jobs) hands
// every grid its own per-job tracer so one service process can attribute
// spans to submissions.
//
// The cell runs under pprof labels naming its (workload, config, sched)
// identity, so a CPU profile taken over a sweep (`sweep -cpuprofile`)
// attributes samples to cells.
func runCellTraced(c cell, quick bool, tr *obs.Tracer) (r metrics.Run, err error) {
	sp := tr.StartSpan(c.spec.String(), c.cfg.Name, c.sched, quick)
	defer sp.Finish()
	labels := pprof.Labels("workload", c.spec.Name, "config", c.cfg.Name, "sched", c.sched)
	pprof.Do(context.Background(), labels, func(context.Context) {
		if Cache == nil {
			sp.SetOutcome("uncached")
			r, err = runOneSpan(c.cfg, c.spec, c.sched, Seed, sp)
			return
		}
		key := rcache.KeyOf(c.cfg, c.spec, c.sched, Seed, quick)
		r, err = Cache.DoSpan(key, sp, func() (metrics.Run, error) {
			return runOneSpan(c.cfg, c.spec, c.sched, Seed, sp)
		})
	})
	return r, err
}

// pairCells enumerates the pdf/ws cell pair for one (config, workload)
// point — the shape almost every experiment sweeps.
func pairCells(cfg machine.Config, spec workloads.Spec) []cell {
	return []cell{{cfg, spec, "pdf"}, {cfg, spec, "ws"}}
}

// OverheadsOf extracts the scheduler cost knobs from a machine config.
func OverheadsOf(cfg machine.Config) core.Overheads {
	return core.Overheads{
		PDFDispatch:  cfg.PDFDispatch,
		WSPopLocal:   cfg.WSPopLocal,
		WSStealProbe: cfg.WSStealProbe,
		WSStealXfer:  cfg.WSStealXfer,
	}
}

// RunOne acquires an instance of spec (from InstancePool when enabled,
// freshly built otherwise) and simulates it on cfg under the named
// scheduler, verifying functional correctness. This is the uncached compute
// path; experiment cells go through a plan, which layers the optional
// Cache on top.
func RunOne(cfg machine.Config, spec workloads.Spec, sched string) (metrics.Run, error) {
	return RunOneSeeded(cfg, spec, sched, Seed)
}

// RunOneSeeded is RunOne with an explicit scheduler seed (WS victim
// selection); cmd/cmpsim exposes the seed as a flag, experiments pin it to
// Seed.
func RunOneSeeded(cfg machine.Config, spec workloads.Spec, sched string, seed uint64) (metrics.Run, error) {
	return runOneSpan(cfg, spec, sched, seed, nil)
}

// runOneSpan is the span-carrying compute path: instance acquisition times
// into the span's pool-acquire/build/reset phases (split by AcquireSpan) and
// everything from arming through verification into its simulate phase.
func runOneSpan(cfg machine.Config, spec workloads.Spec, sched string, seed uint64, sp *obs.Span) (metrics.Run, error) {
	in := InstancePool.AcquireSpan(spec, sp)
	endSim := sp.StartPhase(obs.PhaseSimulate)
	defer endSim()
	in.BeginRun()
	s := core.ByName(sched, OverheadsOf(cfg), seed)
	e := sim.New(cfg, in.Graph, s, nil)
	r := e.Run()
	r.Workload = spec.Name
	if err := in.Verify(); err != nil {
		// A failed instance never re-enters the pool: its data (or worse,
		// its build) is suspect, and a reset cannot prove otherwise.
		InstancePool.Discard(in)
		return r, fmt.Errorf("exp: %v under %s on %s: %w", spec, sched, cfg.Name, err)
	}
	InstancePool.Release(in)
	return r, nil
}

// Result bundles an experiment's tables with the raw runs behind them.
type Result struct {
	ID     string
	Tables []*report.Table
	Runs   []metrics.Run
}

// An experiment produces a Result. quick mode shrinks problem sizes by ~8x
// so the whole suite runs inside `go test`; published numbers use full mode.
// steps returns the experiment's part for a mode: the steps it needs and
// the projection of their results. Most experiments are declarative grids
// (fromGrid). t4-multiprog time-slices two engines over one shared
// hierarchy, so its two arms are coarse steps rather than cells, and
// a5-premature projects a DAG shape analysis alongside its cells.
type experiment struct {
	id    string
	desc  string
	steps func(quick bool) (part, error)
}

// fromGrid makes a grid builder an experiment's steps.
func fromGrid(build func(quick bool) *grid.Grid) func(quick bool) (part, error) {
	return func(quick bool) (part, error) { return gridPart(build(quick)) }
}

var registry = []experiment{
	{id: "fig1-misses", desc: "Figure 1 (left): mergesort L2 misses per 1000 instructions vs cores", steps: fromGrid(gridFig1Misses)},
	{id: "fig1-speedup", desc: "Figure 1 (right): mergesort speedup over 1 core vs cores", steps: fromGrid(gridFig1Speedup)},
	{id: "t1-dc", desc: "Finding 1: divide-and-conquer class, PDF vs WS at 16/32 cores", steps: fromGrid(gridT1DC)},
	{id: "t1-irregular", desc: "Finding 1: bandwidth-limited irregular class, PDF vs WS", steps: fromGrid(gridT1Irregular)},
	{id: "t2-neutral", desc: "Finding 2: limited-reuse and compute-bound classes, PDF ~ WS", steps: fromGrid(gridT2Neutral)},
	{id: "t3-power", desc: "Power-down: runtime vs fraction of L2 ways powered off", steps: fromGrid(gridT3Power)},
	{id: "t4-multiprog", desc: "Multiprogramming: L2 survival across context switches", steps: partT4Multiprog},
	{id: "t5-coarse", desc: "Finding 3: coarse-grained SMP-style threading loses the PDF advantage", steps: fromGrid(gridT5Coarse)},
	{id: "a1-grain", desc: "Ablation: task granularity sweep", steps: fromGrid(gridA1Grain)},
	{id: "a2-l2size", desc: "Ablation: L2 capacity sweep at 16 cores", steps: fromGrid(gridA2L2Size)},
	{id: "a3-bandwidth", desc: "Ablation: off-chip bandwidth sweep at 16 cores", steps: fromGrid(gridA3Bandwidth)},
	{id: "a4-stealpolicy", desc: "Ablation: scheduler policy variants", steps: fromGrid(gridA4Policies)},
	{id: "a5-premature", desc: "Premature nodes: the SPAA'04 working-set bound, measured", steps: partA5Premature},
}

// IDs lists experiment ids in canonical order.
func IDs() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.id
	}
	return out
}

// Describe returns the one-line description of an experiment id.
func Describe(id string) string {
	e, _ := lookup(id)
	return e.desc
}

// Run executes the experiment with the given id.
func Run(id string, quick bool) (*Result, error) {
	var res *Result
	if err := RunAll([]string{id}, quick, func(r *Result) error { res = r; return nil }); err != nil {
		return nil, err
	}
	return res, nil
}

// RunAll executes the experiments ids as one plan: every step they need,
// each distinct cell once, runs in one fan-out over Parallelism workers.
// yield is called once per experiment, in the order of ids, as soon as the
// steps that experiment needs have completed. The first failing step (in
// plan order) stops the plan, and its error is prefixed with the id of the
// experiment that needs it; an error from yield is returned as is.
func RunAll(ids []string, quick bool, yield func(*Result) error) error {
	parts := make([]part, len(ids))
	for i, id := range ids {
		e, ok := lookup(id)
		if !ok {
			return fmt.Errorf("exp: unknown experiment %q (known: %v)", id, IDs())
		}
		p, err := e.steps(quick)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		parts[i] = p
	}
	return newPlan(parts).run(context.Background(), quick, Tracer, nil, yield)
}

func lookup(id string) (experiment, bool) {
	for _, e := range registry {
		if e.id == id {
			return e, true
		}
	}
	return experiment{}, false
}

// RunGrid executes a declarative scenario grid: its cells are enumerated in
// the grid's canonical order and run as a one-grid plan through the same
// runner, instance pool, and content-addressed cache path every registry
// experiment uses — then the grid projects its table from the results.
// quick is part of each cell's cache identity exactly as for registry
// experiments; user-authored grids always run with quick=false (their sizes
// are explicit), which also lets them share warm cells with full-size
// registry sweeps and cmpsim.
func RunGrid(g *grid.Grid, quick bool) (*Result, error) {
	return RunGridStream(context.Background(), g, quick, Tracer, nil)
}

// RunGridStream is RunGrid for long-running callers (the sweepd job
// service): identical execution and results — the same plan through the
// same runner/pool/cache path, so the projected tables are byte-identical
// to RunGrid's — plus three service affordances:
//
//   - ctx cancels between cells: in-flight cells complete (a simulation is
//     never abandoned half-observed), unstarted cells are skipped, and the
//     ctx error is returned wrapped with the grid id.
//   - tr scopes spans to this call instead of the package-level Tracer, so a
//     service process can attribute spans per submission. Pass Tracer (or
//     nil) to keep the CLI behavior.
//   - progress, when non-nil, is called after each step of the plan
//     completes, in canonical order, with (done, total): total is the
//     grid's cell count, and done counts the grid cells settled so far — a
//     grid that repeats a point (cores=2,2) runs it once and settles both
//     cells with it. done is strictly increasing and ends at total, so
//     callers can derive percent-complete without locking. It is invoked
//     on the calling goroutine's yield path and must not block.
func RunGridStream(ctx context.Context, g *grid.Grid, quick bool, tr *obs.Tracer, progress func(done, total int)) (*Result, error) {
	p, err := gridPart(g)
	if err != nil {
		return nil, err
	}
	pl := newPlan([]part{p})
	var delivered func(int)
	if progress != nil {
		settles := make([]int, len(pl.steps))
		for _, i := range pl.at[0] {
			settles[i]++
		}
		done, total := 0, len(p.cells)
		delivered = func(i int) {
			done += settles[i]
			progress(done, total)
		}
	}
	var res *Result
	if err := pl.run(ctx, quick, tr, delivered, func(r *Result) error { res = r; return nil }); err != nil {
		return nil, err
	}
	return res, nil
}

// ratio returns a/b, or 0 when b is 0 — the guard every derived table
// column uses (the grid layer's "ratio" op has the same semantics).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// sizing returns n scaled down 8x in quick mode (minimum floor keeps graphs
// meaningful).
func sizing(n int, quick bool) int {
	if quick {
		n /= 8
		if n < 4096 {
			n = 4096
		}
	}
	return n
}
