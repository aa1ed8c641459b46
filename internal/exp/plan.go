package exp

import (
	"context"
	"fmt"

	"repro/internal/grid"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/runner"
)

// A part is one experiment's share of a plan: the cells it needs, the
// coarse steps it needs that are not cells (t4-multiprog's two arms, whose
// engines share a hierarchy mid-run), and the projection of their results
// into its Result. project receives the runs in cells order and the coarse
// steps' values in coarse order.
type part struct {
	id      string
	cells   []cell
	coarse  []func() (any, error)
	project func(runs []metrics.Run, vals []any) (*Result, error)
}

// gridPart is a grid's part: its cells in the grid's canonical order,
// projected into the grid's table.
func gridPart(g *grid.Grid) (part, error) {
	if err := g.Validate(); err != nil {
		return part{}, err
	}
	gcells := g.Cells()
	cells := make([]cell, len(gcells))
	for i, c := range gcells {
		cells[i] = cell{cfg: c.Config, spec: c.Spec, sched: c.Sched}
	}
	return part{
		id:    g.ID,
		cells: cells,
		project: func(runs []metrics.Run, _ []any) (*Result, error) {
			t, err := g.Project(runs)
			if err != nil {
				return nil, err
			}
			return &Result{ID: g.ID, Tables: []*report.Table{t}, Runs: runs}, nil
		},
	}, nil
}

// A step is one job of a plan: a cell, or a coarse step when coarse is set.
// owner is the first part that needs it, named in its errors.
type step struct {
	cell   cell
	coarse func() (any, error)
	owner  int
}

// outcome is a step's result: a cell's run or a coarse step's value.
type outcome struct {
	run metrics.Run
	val any
}

// A plan flattens parts into one step list in which each distinct cell
// appears once. Equal cell values have equal cache keys: Fingerprint covers
// every field of machine.Config and workloads.Spec, and Seed and quick are
// fixed for the whole plan. So deduplicating on the value never merges two
// identities, and no cell is looked up twice.
type plan struct {
	parts []part
	steps []step
	at    [][]int // at[p][k]: the step behind part p's k-th cell, then its coarse steps
	last  []int   // last[p]: the highest step part p needs, -1 if none
}

func newPlan(parts []part) *plan {
	pl := &plan{parts: parts, at: make([][]int, len(parts)), last: make([]int, len(parts))}
	seen := make(map[cell]int)
	for p, pt := range parts {
		at := make([]int, 0, len(pt.cells)+len(pt.coarse))
		for _, c := range pt.cells {
			i, ok := seen[c]
			if !ok {
				i = len(pl.steps)
				seen[c] = i
				pl.steps = append(pl.steps, step{cell: c, owner: p})
			}
			at = append(at, i)
		}
		for _, job := range pt.coarse {
			at = append(at, len(pl.steps))
			pl.steps = append(pl.steps, step{coarse: job, owner: p})
		}
		pl.at[p] = at
		pl.last[p] = -1
		for _, i := range at {
			pl.last[p] = max(pl.last[p], i)
		}
	}
	return pl
}

// run executes every step in one runner.Stream over Parallelism workers and
// calls yield once per part, in part order, as soon as the last step that
// part needs has been delivered. delivered, when non-nil, is called with
// each step index in order, before the yields that step unblocks. A failed
// step stops the plan; its error names the step's owner. ctx cancels
// between steps: in-flight steps complete, unstarted ones are skipped.
func (pl *plan) run(ctx context.Context, quick bool, tr *obs.Tracer, delivered func(step int), yield func(*Result) error) error {
	jobs := make([]runner.Job[outcome], len(pl.steps))
	for i, st := range pl.steps {
		jobs[i] = func() (outcome, error) {
			// Checked at claim time: a cancelled plan stops starting steps
			// immediately instead of waiting for the yield path to notice.
			if err := ctx.Err(); err != nil {
				return outcome{}, err
			}
			if st.coarse != nil {
				v, err := st.coarse()
				return outcome{val: v}, err
			}
			r, err := runCellTraced(st.cell, quick, tr)
			return outcome{run: r}, err
		}
	}
	out := make([]outcome, len(pl.steps))
	next := 0
	// flush projects, in order, every part whose steps are all below done.
	flush := func(done int) error {
		for ; next < len(pl.parts) && pl.last[next] < done; next++ {
			res, err := pl.project(next, out)
			if err != nil {
				return err
			}
			if err := yield(res); err != nil {
				return err
			}
		}
		return nil
	}
	err := runner.Stream(Parallelism, jobs, func(i int, v outcome, err error) error {
		if err != nil {
			return fmt.Errorf("%s: %w", pl.parts[pl.steps[i].owner].id, err)
		}
		out[i] = v
		if delivered != nil {
			delivered(i)
		}
		return flush(i + 1)
	})
	if err != nil {
		return err
	}
	return flush(len(pl.steps))
}

// project gathers part p's results from the plan's outcomes and projects
// them.
func (pl *plan) project(p int, out []outcome) (*Result, error) {
	pt, at := pl.parts[p], pl.at[p]
	runs := make([]metrics.Run, len(pt.cells))
	for k := range runs {
		runs[k] = out[at[k]].run
	}
	vals := make([]any, len(pt.coarse))
	for k := range vals {
		vals[k] = out[at[len(runs)+k]].val
	}
	return pt.project(runs, vals)
}
