package exp

import (
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// partT4Multiprog reproduces the paper's multiprogramming observation: "the
// PDF version is also less of a cache hog and its smaller working set is
// more likely to remain in the cache across context switches."
//
// Setup: program A (mergesort, the program under test, in address space 0)
// time-slices with program B (a streaming scan in address space 1) on the
// same CMP, sharing the cache hierarchy. We run A for a quantum, record how
// many L2 lines it occupies (hogging), run B for a quantum, then measure
// how much of A's footprint survived and how sharply A's miss rate spikes
// right after resuming. Lower occupancy, higher survival, and a smaller
// resume spike are all direct consequences of PDF's smaller working set.
//
// This experiment does not decompose into cells: within one arm the
// interleaved RunFor steps of engines A and B share one Hierarchy, so each
// scheduler arm is a single stateful sequence. The two arms, however, are
// fully independent — each owns its own Hierarchy pair and engines — so
// they are two coarse steps of the plan, with rows projected in canonical
// (pdf, ws) order regardless of which arm finishes first.
func partT4Multiprog(quick bool) (part, error) {
	cores := 8
	quantum := int64(2_000_000)
	if quick {
		quantum = 500_000
	}
	type arm struct {
		row  []string
		runs []metrics.Run
	}
	scheds := []string{"pdf", "ws"}
	coarse := make([]func() (any, error), len(scheds))
	for i, sched := range scheds {
		coarse[i] = func() (any, error) {
			row, runs, err := multiprogOnce(sched, cores, quantum, quick)
			return arm{row, runs}, err
		}
	}
	project := func(_ []metrics.Run, arms []any) (*Result, error) {
		t := report.New("Multiprogramming: mergesort time-sliced with a streaming scan (8 cores)",
			"sched", "L2 lines held at switch", "survival after B %", "pre-switch MPKI", "resume-window MPKI", "spike x", "refill misses")
		t.Note = "paper: PDF hogs less cache and retains its working set across context switches"
		res := &Result{ID: "t4-multiprog", Tables: []*report.Table{t}}
		for _, v := range arms {
			a := v.(arm)
			t.Rows = append(t.Rows, a.row)
			res.Runs = append(res.Runs, a.runs...)
		}
		return res, nil
	}
	return part{id: "t4-multiprog", coarse: coarse, project: project}, nil
}

func multiprogOnce(sched string, cores int, quantum int64, quick bool) ([]string, []metrics.Run, error) {
	cfg := machine.Default(cores)
	specA := workloads.Spec{Name: "mergesort", N: sizing(1<<19, quick), Grain: 2048, Seed: Seed, SpaceID: 0}
	specB := workloads.Spec{Name: "scan", N: sizing(1<<21, quick), Grain: 4096, Seed: Seed + 1, SpaceID: 1}

	inA := InstancePool.Acquire(specA)
	inB := InstancePool.Acquire(specB)
	inA.BeginRun()
	inB.BeginRun()

	engA := sim.New(cfg, inA.Graph, core.ByName(sched, OverheadsOf(cfg), Seed), nil)
	// B shares A's hierarchy: same L2, same bus — a context switch, not a
	// second chip. B always runs under WS; only A's scheduler varies.
	engB := sim.New(cfg, inB.Graph, core.ByName("ws", OverheadsOf(cfg), Seed), engA.Hierarchy())
	// Each engine closes itself when its program finishes; these cover a
	// panic that leaves one suspended mid-task.
	defer engA.Close()
	defer engB.Close()

	// Warm A up into the middle of its execution, then measure a window.
	engA.RunFor(quantum)
	preMisses := engA.Hierarchy().L2().Stats.Misses
	preInstr := engA.Instructions()
	engA.RunFor(quantum / 2)
	preMPKI := mpkiOf(engA.Hierarchy().L2().Stats.Misses-preMisses, engA.Instructions()-preInstr)

	// Context switch: A off, B on. B's quantum is sized to churn the cache
	// noticeably without flushing it outright — with a full flush both
	// schedulers restart stone-cold and the comparison degenerates.
	_, heldA := engA.Hierarchy().L2().CountValid(0)
	engB.RunFor(2 * quantum)
	_, survivedA := engA.Hierarchy().L2().CountValid(0)

	// Resume A; measure the cold-restart window. The refill cost — extra
	// misses A takes to get back up to speed — is the operational content
	// of "more likely to remain in the cache across context switches".
	resMisses := engA.Hierarchy().L2().Stats.Misses
	resInstr := engA.Instructions()
	engA.RunFor(quantum / 2)
	refill := engA.Hierarchy().L2().Stats.Misses - resMisses
	resMPKI := mpkiOf(refill, engA.Instructions()-resInstr)

	survival := 0.0
	if heldA > 0 {
		survival = 100 * float64(survivedA) / float64(heldA)
	}
	spike := ratio(resMPKI, preMPKI)

	// Finish both programs and verify correctness end-to-end.
	for !engA.Done() {
		engA.RunFor(quantum)
	}
	for !engB.Done() {
		engB.RunFor(quantum)
	}
	if errA, errB := inA.Verify(), inB.Verify(); errA != nil || errB != nil {
		// Failed instances never re-enter the pool; Discard balances the
		// checked-out accounting so later acquires are not misreported as
		// contended.
		InstancePool.Discard(inA)
		InstancePool.Discard(inB)
		if errA != nil {
			return nil, nil, errA
		}
		return nil, nil, errB
	}
	ra := engA.Result()
	ra.Workload = specA.Name
	rb := engB.Result()
	rb.Workload = specB.Name
	// Both programs verified and all results extracted: only now does
	// exclusive ownership end, so a concurrent arm's Acquire can never
	// reset an instance this arm's engines still reference.
	InstancePool.Release(inA)
	InstancePool.Release(inB)

	row := []string{
		sched,
		itoa(int64(heldA)),
		formatF(survival),
		formatF(preMPKI),
		formatF(resMPKI),
		formatF(spike),
		itoa(refill),
	}
	return row, []metrics.Run{ra, rb}, nil
}

func mpkiOf(misses, instr int64) float64 {
	if instr <= 0 {
		return 0
	}
	return float64(misses) * 1000 / float64(instr)
}

func formatF(v float64) string {
	// Mirrors report.AddRow's float formatting.
	neg := v < 0
	if neg {
		v = -v
	}
	scaled := int64(v*1000 + 0.5)
	s := itoa(scaled/1000) + "." + pad3(scaled%1000)
	if neg {
		s = "-" + s
	}
	return s
}

func pad3(v int64) string {
	s := itoa(v)
	for len(s) < 3 {
		s = "0" + s
	}
	return s
}
