package runner

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// jobsReturningIndex builds n jobs whose results reveal which job produced
// them; later jobs finish earlier (the sleep is inversely proportional to
// the index) so completion order is the reverse of submit order.
func jobsReturningIndex(n int) []Job[int] {
	jobs := make([]Job[int], n)
	for i := range jobs {
		i := i
		jobs[i] = func() (int, error) {
			time.Sleep(time.Duration(n-i) * time.Millisecond)
			return i, nil
		}
	}
	return jobs
}

func TestMapPreservesSubmitOrder(t *testing.T) {
	for _, parallel := range []int{1, 2, runtime.GOMAXPROCS(0), 16} {
		parallel := parallel
		t.Run(fmt.Sprintf("parallel=%d", parallel), func(t *testing.T) {
			out, err := Map(parallel, jobsReturningIndex(24))
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range out {
				if v != i {
					t.Fatalf("out[%d] = %d: results not in submit order: %v", i, v, out)
				}
			}
		})
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	// The jobs are pure functions of their index, so any parallelism level
	// must reproduce the serial output exactly.
	mk := func() []Job[string] {
		jobs := make([]Job[string], 40)
		for i := range jobs {
			i := i
			jobs[i] = func() (string, error) {
				return fmt.Sprintf("cell-%03d:%d", i, i*i), nil
			}
		}
		return jobs
	}
	serial, err := Map(1, mk())
	if err != nil {
		t.Fatal(err)
	}
	for _, parallel := range []int{2, runtime.GOMAXPROCS(0), 7} {
		par, err := Map(parallel, mk())
		if err != nil {
			t.Fatal(err)
		}
		if len(par) != len(serial) {
			t.Fatalf("parallel=%d: %d results, serial had %d", parallel, len(par), len(serial))
		}
		for i := range serial {
			if par[i] != serial[i] {
				t.Fatalf("parallel=%d: out[%d] = %q, serial %q", parallel, i, par[i], serial[i])
			}
		}
	}
}

func TestMapPropagatesCellError(t *testing.T) {
	boom := errors.New("cell failed")
	for _, parallel := range []int{1, 2, runtime.GOMAXPROCS(0), 8} {
		jobs := jobsReturningIndex(10)
		jobs[3] = func() (int, error) { return 0, boom }
		out, err := Map(parallel, jobs)
		if !errors.Is(err, boom) {
			t.Fatalf("parallel=%d: err = %v, want %v", parallel, err, boom)
		}
		if out != nil {
			t.Fatalf("parallel=%d: partial results returned alongside error", parallel)
		}
	}
}

func TestMapReturnsLowestIndexedError(t *testing.T) {
	// Two failing cells; the one later in submit order finishes first.
	// Yields happen in submit order, so the reported error must be the
	// lowest-indexed failure — deterministically, at any parallelism.
	early := errors.New("index 2")
	late := errors.New("index 7")
	for _, parallel := range []int{1, 4} {
		jobs := make([]Job[int], 10)
		for i := range jobs {
			i := i
			jobs[i] = func() (int, error) {
				switch i {
				case 2:
					time.Sleep(20 * time.Millisecond)
					return 0, early
				case 7:
					return 0, late
				default:
					return i, nil
				}
			}
		}
		if _, err := Map(parallel, jobs); !errors.Is(err, early) {
			t.Fatalf("parallel=%d: err = %v, want lowest-indexed %v", parallel, err, early)
		}
	}
}

func TestStreamYieldsInOrder(t *testing.T) {
	var got []int
	err := Stream(4, jobsReturningIndex(12), func(i int, v int, err error) error {
		if err != nil {
			return err
		}
		if i != v {
			t.Fatalf("yield(%d) got value %d", i, v)
		}
		got = append(got, i)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("yield order %v not submit order", got)
		}
	}
	if len(got) != 12 {
		t.Fatalf("yield called %d times, want 12", len(got))
	}
}

func TestStreamStopsAfterYieldError(t *testing.T) {
	stop := errors.New("stop")
	var yields atomic.Int64
	var started atomic.Int64
	n := 64
	// Jobs past the first two worker rounds block until yield cancels the
	// stream, so most of the job list is still unclaimed when cancellation
	// lands. Stream sets its cancelled flag just *after* yield returns, so
	// released jobs also sleep a few ms: for the assertion below to fail,
	// the consumer goroutine would have to stay off-CPU for the tens of
	// milliseconds it takes the workers to chew through ~50 sleeping jobs.
	release := make(chan struct{})
	jobs := make([]Job[int], n)
	for i := range jobs {
		i := i
		jobs[i] = func() (int, error) {
			started.Add(1)
			if i > 7 {
				<-release
				time.Sleep(2 * time.Millisecond)
			}
			return i, nil
		}
	}
	err := Stream(4, jobs, func(i int, v int, err error) error {
		yields.Add(1)
		if i == 5 {
			close(release)
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) {
		t.Fatalf("err = %v, want %v", err, stop)
	}
	if got := yields.Load(); got != 6 {
		t.Fatalf("yield called %d times after cancel at index 5, want 6", got)
	}
	if got := started.Load(); got == int64(n) {
		t.Fatalf("all %d jobs ran despite cancellation", n)
	}
}

// trackConcurrency wraps a job list so each job records the number of jobs
// executing simultaneously, returning the high-water mark reader.
func trackConcurrency[T any](jobs []Job[T]) ([]Job[T], func() int64) {
	var cur, peak atomic.Int64
	wrapped := make([]Job[T], len(jobs))
	for i, job := range jobs {
		wrapped[i] = func() (T, error) {
			c := cur.Add(1)
			for {
				p := peak.Load()
				if c <= p || peak.CompareAndSwap(p, c) {
					break
				}
			}
			defer cur.Add(-1)
			return job()
		}
	}
	return wrapped, peak.Load
}

// TestBudgetReleased: SetBudget's cap bounds every Stream's peak
// concurrency, however many workers the call asks for, on every call.
func TestBudgetReleased(t *testing.T) {
	defer SetBudget(SetBudget(2))
	for round := 0; round < 3; round++ {
		jobs, peak := trackConcurrency(jobsReturningIndex(8))
		if _, err := Map(8, jobs); err != nil {
			t.Fatal(err)
		}
		if p := peak(); p > 2 {
			t.Fatalf("round %d: concurrency %d exceeds budget 2 — tokens leaked?", round, p)
		}
		if p := peak(); p < 1 {
			t.Fatalf("round %d: nothing ran", round)
		}
	}
}

func TestEmptyAndDegenerate(t *testing.T) {
	if out, err := Map[int](4, nil); err != nil || len(out) != 0 {
		t.Fatalf("empty job list: out=%v err=%v", out, err)
	}
	// parallel <= 0 falls back to GOMAXPROCS rather than deadlocking.
	out, err := Map(0, jobsReturningIndex(3))
	if err != nil || len(out) != 3 {
		t.Fatalf("parallel=0: out=%v err=%v", out, err)
	}
	out, err = Map(-1, jobsReturningIndex(3))
	if err != nil || len(out) != 3 {
		t.Fatalf("parallel=-1: out=%v err=%v", out, err)
	}
}
