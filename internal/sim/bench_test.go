package sim

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/mem"
	"repro/internal/trace"
)

// flatGraph builds root -> w leaves -> join with per-leaf run functions, so
// a benchmark can size the task count to b.N and measure per-task cost.
func flatGraph(w int, leaf func(i int) dag.RunFunc) *dag.Graph {
	g := dag.New()
	root := g.AddNode("root", nil)
	join := g.AddNode("join", nil)
	kids := make([]*dag.Node, w)
	for i := range kids {
		kids[i] = g.AddNode("t", leaf(i))
	}
	g.Fan(root, join, kids...)
	g.MustFreeze()
	return g
}

// benchReplay times exactly the replay loop: the graph and engine (with its
// recording buffers and coroutines) are built outside the timer, then one
// RunUntil executes the b.N-task graph. ns/op and allocs/op are therefore
// per task.
func benchReplay(b *testing.B, leaf func(i int) dag.RunFunc) {
	b.Helper()
	cfg := testConfig(8)
	g := flatGraph(b.N, leaf)
	e := New(cfg, g, core.NewPDF(overheadsOf(cfg)), nil)
	b.ReportAllocs()
	b.ResetTimer()
	e.RunUntil(hardLimit)
	b.StopTimer()
	if !e.Done() {
		b.Fatal("graph incomplete")
	}
}

// BenchmarkEngineStep measures replay throughput per task for the two
// extremes of trace shape.
func BenchmarkEngineStep(b *testing.B) {
	b.Run("compute-heavy", func(b *testing.B) {
		benchReplay(b, func(int) dag.RunFunc {
			return func(r *trace.Recorder) {
				for k := 0; k < 16; k++ {
					r.Compute(40)
				}
			}
		})
	})
	b.Run("memory-heavy", func(b *testing.B) {
		sp := mem.NewSpace(0)
		arr := trace.NewInt64s(sp, "bench", 1<<15)
		benchReplay(b, func(i int) dag.RunFunc {
			base := (i * 509) % (1 << 14)
			return func(r *trace.Recorder) {
				for k := 0; k < 24; k++ {
					v := arr.Get(r, base+k*67)
					arr.Set(r, base+k*67, v+1)
					r.Compute(2)
				}
			}
		})
	})
}

// BenchmarkDispatchAlloc pins the allocation contract of the dispatch and
// replay hot path: with recording buffers, coroutines and all other engine
// state preallocated by New, replaying a task must not allocate — allocs/op reports 0
// at any realistic benchtime (the remaining constant is a handful of
// scheduler-queue doublings, amortized over b.N tasks).
func BenchmarkDispatchAlloc(b *testing.B) {
	sp := mem.NewSpace(0)
	arr := trace.NewInt64s(sp, "bench", 1<<12)
	benchReplay(b, func(i int) dag.RunFunc {
		base := (i * 131) % (1 << 11)
		return func(r *trace.Recorder) {
			v := arr.Get(r, base)
			arr.Set(r, base, v+1)
			r.Compute(25)
		}
	})
}

// TestDispatchZeroAlloc is the deterministic form of BenchmarkDispatchAlloc:
// once New has returned, the whole replay of a 3000-task graph must stay under
// one allocation per ~75 tasks (the slack covers scheduler-queue doublings,
// which grow logarithmically, not per task).
func TestDispatchZeroAlloc(t *testing.T) {
	cfg := testConfig(8)
	sp := mem.NewSpace(0)
	arr := trace.NewInt64s(sp, "zeroalloc", 1<<12)
	leaf := func(i int) dag.RunFunc {
		base := (i * 131) % (1 << 11)
		return func(r *trace.Recorder) {
			v := arr.Get(r, base)
			arr.Set(r, base, v+1)
			r.Compute(25)
		}
	}

	const tasks = 3000
	e := New(cfg, flatGraph(tasks, leaf), core.NewPDF(overheadsOf(cfg)), nil)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e.RunUntil(hardLimit)
	runtime.ReadMemStats(&after)

	if !e.Done() {
		t.Fatal("graph incomplete")
	}
	allocs := after.Mallocs - before.Mallocs
	if allocs > tasks/75 {
		t.Fatalf("replaying %d tasks allocated %d times — the dispatch hot path is allocating per task", tasks, allocs)
	}
}
