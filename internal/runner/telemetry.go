package runner

import (
	"sync/atomic"

	"repro/internal/obs"
)

// Process-wide execution telemetry, shared by every Stream/Map call. The
// counters are maintained inline in the execution paths (serial and worker)
// at a cost of a few uncontended atomic adds per job — noise against cells
// that run for milliseconds to seconds — and exposed through
// RegisterMetrics as the runner_* family of the unified registry (`sweep
// -stats`, /metrics).
var (
	// queued is the number of jobs accepted by Stream/Map but not yet
	// claimed for execution (or abandonment, after a yield error).
	queued atomic.Int64
	// inflight is the number of jobs executing right now — the "cells in
	// flight" gauge, which is also the number of busy workers.
	inflight atomic.Int64
	// jobsDone counts jobs executed to completion since process start.
	jobsDone atomic.Int64
)

// RegisterMetrics exposes the runner's worker cap and execution state on a
// registry.
func RegisterMetrics(r *obs.Registry) {
	r.GaugeFunc("runner_budget_cap", "", "process-wide worker budget (cmd flag -parallel)",
		func() float64 { return float64(budget.Load()) })
	r.GaugeFunc("runner_queue_depth", "", "jobs submitted to Stream/Map but not yet claimed by a worker",
		func() float64 { return float64(queued.Load()) })
	r.GaugeFunc("runner_cells_in_flight", "", "jobs executing right now",
		func() float64 { return float64(inflight.Load()) })
	r.CounterFunc("runner_jobs_total", "", "jobs executed to completion",
		func() int64 { return jobsDone.Load() })
}

// claimJob moves one job from queued to in-flight.
func claimJob() {
	queued.Add(-1)
	inflight.Add(1)
}

// finishJob retires one executed job.
func finishJob() {
	inflight.Add(-1)
	jobsDone.Add(1)
}

// abandonJobs drains n never-started jobs from the queue gauge (a yield
// error stopped the stream before they were claimed).
func abandonJobs(n int) {
	queued.Add(int64(-n))
}

// skipJob drains one claimed-but-cancelled job (a worker filling slots
// after cancellation).
func skipJob() {
	queued.Add(-1)
}
