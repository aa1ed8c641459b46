package sim

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// withChunkSize runs f with every engine New builds recording in chunks of
// n actions.
func withChunkSize(n int, f func()) {
	old := chunkSize
	chunkSize = n
	defer func() { chunkSize = old }()
	f()
}

// chunkSpec is a small instance of each kernel: every task of every one of
// them records more than 7 actions, and the three sorts (mergesort,
// mergesort-coarse, quicksort) have tasks longer than the default chunk.
func chunkSpec(name string) workloads.Spec {
	switch name {
	case "matmul", "lu":
		return workloads.Spec{Name: name, N: 32, Grain: 64, Seed: 42}
	case "fft":
		return workloads.Spec{Name: name, N: 1 << 10, Grain: 128, Seed: 42}
	case "spmv":
		return workloads.Spec{Name: name, N: 1 << 10, Grain: 256, Iters: 2, Seed: 42}
	default:
		return workloads.Spec{Name: name, N: 1 << 12, Grain: 256, Seed: 42}
	}
}

// TestChunkedRecordingMatchesWholeTask is the interleaving differential:
// every kernel, under pdf and ws, on 1, 3 and 8 cores, runs on the real
// engine with chunks of 1 action, 7 actions and the default size, and each
// run must give the metrics.Run of the reference engine, which records
// every task whole at dispatch, and must pass Verify. Small chunks make
// concurrent tasks' closures interleave almost action by action, so a
// kernel that breaks the workloads package's contract (a write to shared
// data after the task has started recording, other than one Add) shows up
// here as a wrong answer or a diverging stream.
func TestChunkedRecordingMatchesWholeTask(t *testing.T) {
	for _, name := range workloads.Names() {
		in := workloads.Build(chunkSpec(name))
		run := func(cores int, sched string, drive func(*Engine)) metrics.Run {
			t.Helper()
			in.Reset()
			in.BeginRun()
			cfg := machine.Default(cores)
			e := New(cfg, in.Graph, core.ByName(sched, overheadsOf(cfg), 3), nil)
			drive(e)
			if err := in.Verify(); err != nil {
				t.Fatalf("%v %s cores=%d: %v", in.Spec, sched, cores, err)
			}
			return e.Result()
		}
		for _, sched := range []string{"pdf", "ws"} {
			for _, cores := range []int{1, 3, 8} {
				want := run(cores, sched, refRun)
				for _, size := range []int{1, 7, chunkActions} {
					var got metrics.Run
					withChunkSize(size, func() {
						got = run(cores, sched, func(e *Engine) { e.Run() })
					})
					if got != want {
						t.Fatalf("%s %s cores=%d chunk=%d: chunked recording diverged from whole-task recording\ngot  %+v\nwant %+v",
							name, sched, cores, size, got, want)
					}
				}
			}
		}
	}
}

// longTasks is a fork-join of w tasks that each record 100 loads, so with
// a chunk size of 7 every task is suspended mid-record many times. The
// task with index panicAt (if any) panics with panicVal after 50 loads.
func longTasks(w, panicAt int, panicVal any) *dag.Graph {
	return flatGraph(w, func(i int) dag.RunFunc {
		return func(r *trace.Recorder) {
			for k := 0; k < 100; k++ {
				if i == panicAt && k == 50 {
					panic(panicVal)
				}
				r.Load(mem.Addr(0x1000+0x40*(i*100+k)), 8)
			}
		}
	})
}

// TestRunLeavesNoGoroutines: New starts one recording coroutine per core,
// and Run stops them all.
func TestRunLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	withChunkSize(7, func() {
		cfg := testConfig(8)
		e := New(cfg, longTasks(32, -1, nil), core.NewWS(overheadsOf(cfg), 1), nil)
		if n := runtime.NumGoroutine(); n < base+cfg.Cores {
			t.Fatalf("New: %d goroutines, want at least %d (one coroutine per core)", n, base+cfg.Cores)
		}
		e.Run()
	})
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after Run, want %d", n, base)
	}
}

// TestCloseStopsSuspendedTasks: an engine stopped by RunFor with tasks
// suspended mid-record still holds their coroutines; Close unwinds them.
func TestCloseStopsSuspendedTasks(t *testing.T) {
	base := runtime.NumGoroutine()
	withChunkSize(7, func() {
		cfg := testConfig(8)
		e := New(cfg, longTasks(32, -1, nil), core.NewWS(overheadsOf(cfg), 1), nil)
		suspended := 0
		for suspended == 0 && !e.Done() {
			e.RunFor(50)
			for i := range e.cores {
				if e.cores[i].more {
					suspended++
				}
			}
		}
		if suspended == 0 {
			t.Fatal("no task was ever suspended mid-record")
		}
		e.Close()
		e.Close() // idempotent
	})
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after Close, want %d", n, base)
	}
}

// TestTaskPanicReachesCaller: a panic inside a task closure reaches Run's
// caller with its original value while other cores' tasks are suspended
// mid-record, and stopping those on the way out neither swallows nor
// replaces it.
func TestTaskPanicReachesCaller(t *testing.T) {
	type boom struct{ msg string }
	want := &boom{"task failed"}
	base := runtime.NumGoroutine()
	var got any
	withChunkSize(7, func() {
		cfg := testConfig(4)
		e := New(cfg, longTasks(16, 9, want), core.NewPDF(overheadsOf(cfg)), nil)
		func() {
			defer func() { got = recover() }()
			e.Run()
		}()
	})
	if got != any(want) {
		t.Fatalf("Run panicked with %#v, want the task's own value %#v", got, want)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after the panic, want %d", n, base)
	}
}
