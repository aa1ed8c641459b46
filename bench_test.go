// Benchmark harness: one benchmark per paper artifact (both Figure 1 panels
// and every finding treated as a table), plus ablations and simulator
// throughput microbenchmarks.
//
// Each experiment benchmark executes the full-size experiment — the same
// code path as `cmd/sweep -exp <id>` — so `go test -bench=.` regenerates
// every number in EXPERIMENTS.md. Experiment iterations are seconds long;
// expect b.N == 1.
package repro

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/machine"
	"repro/internal/rcache"
	"repro/internal/sim"
	"repro/internal/workloads"
)

var benchSink any

// benchExperiment runs the experiment through the same runner-backed path
// as cmd/sweep: cells fan out across exp.Parallelism workers (GOMAXPROCS
// by default), and results are deterministic at any setting.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := exp.Run(id, false)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = res
	}
}

// benchExperimentAt pins the runner's parallelism for the duration of the
// benchmark — the Serial/Parallel pair below measures the fan-out win.
func benchExperimentAt(b *testing.B, id string, parallel int) {
	b.Helper()
	defer func(old int) { exp.Parallelism = old }(exp.Parallelism)
	exp.Parallelism = parallel
	benchExperiment(b, id)
}

// ratioAtTop extracts, from the last row of the first table, the ratio in
// the given column — used to attach the headline number to the benchmark
// output.
func ratioAtTop(b *testing.B, id string, col int, metric string) {
	b.Helper()
	res, err := exp.Run(id, false)
	if err != nil {
		b.Fatal(err)
	}
	rows := res.Tables[0].Rows
	last := rows[len(rows)-1]
	var v float64
	if _, err := fscan(last[col], &v); err != nil {
		b.Fatalf("cannot parse %q: %v", last[col], err)
	}
	b.ReportMetric(v, metric)
	benchSink = res
}

// fscan is a minimal float parser (the cells are produced by this repo).
func fscan(s string, out *float64) (int, error) {
	var v, div float64 = 0, 1
	frac := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '.':
			frac = true
		case c >= '0' && c <= '9':
			v = v*10 + float64(c-'0')
			if frac {
				div *= 10
			}
		default:
			return 0, errBadFloat
		}
	}
	*out = v / div
	return 1, nil
}

type benchErr string

func (e benchErr) Error() string { return string(e) }

const errBadFloat = benchErr("bad float")

// --- Figure 1 -------------------------------------------------------------

func BenchmarkFig1Misses(b *testing.B)  { benchExperiment(b, "fig1-misses") }
func BenchmarkFig1Speedup(b *testing.B) { benchExperiment(b, "fig1-speedup") }

// BenchmarkFig1Headline reports the paper's headline ratios at 32 cores as
// benchmark metrics: ws/pdf MPKI and pdf/ws speedup.
func BenchmarkFig1Headline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ratioAtTop(b, "fig1-speedup", 3, "pdf/ws-speedup@32c")
	}
}

// --- Findings ---------------------------------------------------------------

func BenchmarkT1DivideConquer(b *testing.B) { benchExperiment(b, "t1-dc") }
func BenchmarkT1Irregular(b *testing.B)     { benchExperiment(b, "t1-irregular") }
func BenchmarkT2Neutral(b *testing.B)       { benchExperiment(b, "t2-neutral") }
func BenchmarkT3PowerDown(b *testing.B)     { benchExperiment(b, "t3-power") }
func BenchmarkT4Multiprogram(b *testing.B)  { benchExperiment(b, "t4-multiprog") }
func BenchmarkT5CoarseGrain(b *testing.B)   { benchExperiment(b, "t5-coarse") }

// --- Ablations --------------------------------------------------------------

func BenchmarkA1Grain(b *testing.B)     { benchExperiment(b, "a1-grain") }
func BenchmarkA2L2Size(b *testing.B)    { benchExperiment(b, "a2-l2size") }
func BenchmarkA3Bandwidth(b *testing.B) { benchExperiment(b, "a3-bandwidth") }
func BenchmarkA4Policies(b *testing.B)  { benchExperiment(b, "a4-stealpolicy") }
func BenchmarkA5Premature(b *testing.B) { benchExperiment(b, "a5-premature") }

// --- Runner fan-out -----------------------------------------------------------

// The Serial/Parallel pair measures the experiment-runner speedup on the
// densest cell grid (fig1-misses: 2 schedulers x 7 configs). Outputs are
// byte-identical; only wall time differs.

func BenchmarkFig1MissesSerial(b *testing.B) { benchExperimentAt(b, "fig1-misses", 1) }
func BenchmarkFig1MissesParallel(b *testing.B) {
	benchExperimentAt(b, "fig1-misses", runtime.GOMAXPROCS(0))
}

// --- Result cache ------------------------------------------------------------

// The Cold/Warm pair measures the content-addressed result cache
// (internal/rcache) on the densest cell grid. Cold resets the store every
// iteration, so each cell simulates; Warm reuses a pre-populated store, so
// each cell is a lookup. Outputs are byte-identical; the headline is the
// wall-time gap (warm runs are expected to be orders of magnitude faster,
// ≥5x being the regression bar).

func BenchmarkFig1MissesColdCache(b *testing.B) {
	defer func(old *rcache.Store) { exp.Cache = old }(exp.Cache)
	for i := 0; i < b.N; i++ {
		exp.Cache = rcache.NewMemory()
		res, err := exp.Run("fig1-misses", false)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = res
	}
}

func BenchmarkFig1MissesWarmCache(b *testing.B) {
	defer func(old *rcache.Store) { exp.Cache = old }(exp.Cache)
	exp.Cache = rcache.NewMemory()
	if _, err := exp.Run("fig1-misses", false); err != nil {
		b.Fatal(err)
	}
	populated := exp.Cache.Stats().Misses
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := exp.Run("fig1-misses", false)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = res
	}
	if st := exp.Cache.Stats(); st.Misses != populated {
		b.Fatalf("warm iterations re-simulated cells: %+v", st)
	}
}

// --- Instance pool: cold-sweep build phase -----------------------------------

// The PoolOn/PoolOff pair measures the workload instance pool on a cold
// sweep: every experiment id, quick mode, serial, with a fresh (empty)
// rcache per iteration so every cell simulates. The pool's effect is on the
// build phase — the N scheduler arms of a (config, spec) point, and repeats
// of a spec across experiments, share one Build — so besides wall time the
// pair reports builds/op and build-ms/op from the workloads build counters.
// Expectation (the PR's acceptance bar): build count and build time drop
// well over 2x with the pool on; see BENCH_pr3.json for recorded numbers.

func benchColdSweep(b *testing.B, pooled bool) {
	defer func(oldC *rcache.Store, oldP int, oldPool *workloads.Pool) {
		exp.Cache, exp.Parallelism, exp.InstancePool = oldC, oldP, oldPool
	}(exp.Cache, exp.Parallelism, exp.InstancePool)
	exp.Parallelism = 1
	var builds, buildNanos int64
	for i := 0; i < b.N; i++ {
		exp.Cache = rcache.NewMemory()
		exp.InstancePool = nil
		if pooled {
			exp.InstancePool = workloads.NewPool(workloads.DefaultPoolBudget)
		}
		b0, n0 := workloads.BuildCount()
		for _, id := range exp.IDs() {
			res, err := exp.Run(id, true)
			if err != nil {
				b.Fatal(err)
			}
			benchSink = res
		}
		b1, n1 := workloads.BuildCount()
		builds += b1 - b0
		buildNanos += n1 - n0
	}
	b.ReportMetric(float64(builds)/float64(b.N), "builds/op")
	b.ReportMetric(float64(buildNanos)/1e6/float64(b.N), "build-ms/op")
}

func BenchmarkColdSweepQuickPoolOn(b *testing.B)  { benchColdSweep(b, true) }
func BenchmarkColdSweepQuickPoolOff(b *testing.B) { benchColdSweep(b, false) }

// --- Simulator throughput ----------------------------------------------------

// BenchmarkEngineThroughput measures simulated instructions per wall-clock
// second on a mid-size mergesort: the cost of the instrument itself.
func BenchmarkEngineThroughput(b *testing.B) {
	cfg := machine.Default(8)
	o := exp.OverheadsOf(cfg)
	spec := workloads.Spec{Name: "mergesort", N: 1 << 16, Grain: 1024, Seed: 3}
	var instr int64
	for i := 0; i < b.N; i++ {
		in := workloads.Build(spec)
		r := sim.New(cfg, in.Graph, core.NewPDF(o), nil).Run()
		instr = r.Instructions
	}
	b.ReportMetric(float64(instr)*float64(b.N)/b.Elapsed().Seconds(), "sim-instr/s")
}

// BenchmarkDAGBuild measures workload construction cost alone.
func BenchmarkDAGBuild(b *testing.B) {
	spec := workloads.Spec{Name: "mergesort", N: 1 << 16, Grain: 1024, Seed: 3}
	for i := 0; i < b.N; i++ {
		benchSink = workloads.Build(spec)
	}
}
