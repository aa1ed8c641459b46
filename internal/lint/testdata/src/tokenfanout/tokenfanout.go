// Package tokenfanout exercises tokenhold's worker-callback rule against the
// real repro/internal/runner API: function literals passed to Stream/Map are
// worker callbacks, and re-entering the pool or launching goroutines from
// inside one idles or escapes the pool's workers. The rule applies in every
// package — this one is deliberately NOT in TokenPackages.
package tokenfanout

import "repro/internal/runner"

// Re-entry from a job closure: the closure's pool worker idles while the
// nested fan-out waits.
func nestedMap(jobs []runner.Job[int]) ([][]int, error) {
	return runner.Map(4, []runner.Job[[]int]{
		func() ([]int, error) {
			return runner.Map(2, jobs) // want `runner\.Map re-entered from inside a runner\.Map worker callback`
		},
	})
}

// Re-entry from a yield callback is the same bug.
func nestedStream(jobs []runner.Job[int]) error {
	return runner.Stream(2, jobs, func(i int, v int, err error) error {
		return runner.Stream(1, jobs, discard) // want `runner\.Stream re-entered from inside a runner\.Stream worker callback`
	})
}

// Goroutines launched from a worker callback escape the budget entirely.
func launches(jobs []runner.Job[int]) error {
	return runner.Stream(2, jobs, func(i int, v int, err error) error {
		go work(v) // want `goroutine launched from inside a runner\.Stream worker callback escapes the worker budget`
		return err
	})
}

// Plain fan-out with well-behaved callbacks is clean, as is sequential
// composition outside the callbacks.
func clean(jobs []runner.Job[int]) ([]int, error) {
	out, err := runner.Map(4, jobs)
	if err != nil {
		return nil, err
	}
	_, err = runner.Map(4, jobs)
	return out, err
}

func discard(i int, v int, err error) error { return err }

func work(int) {}
