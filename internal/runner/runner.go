// Package runner executes independent simulation cells across a worker
// pool while preserving the canonical (submit-order) result sequence.
//
// The simulator is deterministic per (workload, scheduler, configuration,
// seed) tuple — see the internal/sim doc comment — so independent cells can
// fan out across host cores and still produce bit-identical results; only
// the order in which cells *complete* varies between runs. The runner hides
// that nondeterminism: results are always delivered in the order cells were
// submitted, never the order they finished, so every consumer (cmd/sweep
// and the sweepd job service via exp's plan, the exp tests, the benchmark
// harness) emits byte-identical output at any parallelism level.
//
// # Worker cap
//
// SetBudget caps the workers any one Stream/Map call runs (default
// GOMAXPROCS; cmd/sweep sets it to -parallel). Fan-outs are never nested —
// exp runs a whole sweep as one flat plan, and reprolint's tokenhold
// analyzer rejects a Stream or Map inside a worker callback — so the cap on
// one call is the cap on the process.
package runner

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// A Job is one independent unit of work — in this repository, typically an
// exp.RunOne-shaped closure simulating one (config, workload, scheduler)
// cell.
type Job[T any] func() (T, error)

// budget is the cap on the workers one Stream/Map call runs.
var budget = func() *atomic.Int64 {
	var b atomic.Int64
	b.Store(int64(runtime.GOMAXPROCS(0)))
	return &b
}()

// SetBudget caps the number of workers a Stream/Map call runs at n (floored
// at 1) and returns the previous cap, so callers can restore it. cmd/sweep
// sets this to -parallel.
func SetBudget(n int) int {
	if n < 1 {
		n = 1
	}
	return int(budget.Swap(int64(n)))
}

// Stream executes jobs on min(parallel, SetBudget's cap, len(jobs)) workers
// and calls yield exactly once per job, in submit order, as soon as the job
// and all of its predecessors have completed. parallel <= 0 means
// GOMAXPROCS; a single worker runs every job inline on the caller's
// goroutine (the serial path: no goroutines, no channels).
//
// yield receives the job's index, value, and error. If yield returns a
// non-nil error, no further jobs are started and no further yields happen;
// Stream drains in-flight work and returns that error. Job errors are not
// fatal to the pool — they are handed to yield, which decides.
func Stream[T any](parallel int, jobs []Job[T], yield func(i int, v T, err error) error) error {
	n := len(jobs)
	if n == 0 {
		return nil
	}
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	parallel = min(parallel, int(budget.Load()), n)
	// Every job is queued up front; each execution path below drains the
	// gauge exactly once per index — claimed and run, claimed and
	// cancel-filled, or abandoned after a yield error.
	queued.Add(int64(n))
	if parallel == 1 {
		for i, job := range jobs {
			claimJob()
			v, err := job()
			finishJob()
			if yerr := yield(i, v, err); yerr != nil {
				abandonJobs(n - i - 1)
				return yerr
			}
		}
		return nil
	}
	return streamWorkers(parallel, jobs, yield)
}

// streamWorkers is Stream's fan-out engine: it runs jobs on worker
// goroutines and yields results in submit order on the caller's goroutine.
func streamWorkers[T any](workers int, jobs []Job[T], yield func(i int, v T, err error) error) error {
	n := len(jobs)

	type result struct {
		v   T
		err error
	}
	// One buffered slot per job: workers never block on delivery, and the
	// consumer below reorders simply by reading slots 0..n-1 in sequence.
	slots := make([]chan result, n)
	for i := range slots {
		slots[i] = make(chan result, 1)
	}

	var (
		next      atomic.Int64 // next job index to claim
		cancelled atomic.Bool  // set once yield fails; stops new work
		wg        sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if cancelled.Load() {
					skipJob()
					// Still fill the slot so the drain below never blocks.
					slots[i] <- result{}
					continue
				}
				claimJob()
				v, err := jobs[i]()
				finishJob()
				slots[i] <- result{v, err}
			}
		}()
	}

	var yerr error
	for i := 0; i < n; i++ {
		//repro:allow tokenhold result drain on Stream's caller, which is never a pool worker: the fan-out rule forbids Stream inside a worker callback
		r := <-slots[i]
		if yerr != nil {
			continue // draining only
		}
		if yerr = yield(i, r.v, r.err); yerr != nil {
			cancelled.Store(true)
		}
	}
	//repro:allow tokenhold bounded drain: every slot has been received, so all workers are past their last job and exiting
	wg.Wait()
	return yerr
}

// Map executes jobs on up to parallel workers and returns their results in
// submit order. The first job error (by submit order, which is
// deterministic regardless of completion order) aborts the pool: unstarted
// jobs are skipped, in-flight jobs drain, and Map returns that error with a
// nil slice.
func Map[T any](parallel int, jobs []Job[T]) ([]T, error) {
	out := make([]T, len(jobs))
	err := Stream(parallel, jobs, func(i int, v T, err error) error {
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
