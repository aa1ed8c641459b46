package exp

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/grid"
	"repro/internal/metrics"
	"repro/internal/rcache"
	"repro/internal/runner"
)

// renderResult flattens a result's tables (aligned and CSV forms).
func renderResult(res *Result) string {
	var out string
	for _, tbl := range res.Tables {
		out += tbl.String() + tbl.CSV()
	}
	return out
}

// TestRunAllMatchesRun: one plan over the whole suite renders, experiment
// by experiment, the bytes per-id Run renders (the goldens TestGoldenTables
// pins Run to) — in parallel from a cold cache, where deduplicated cells
// simulate concurrently, and serially from the warm one.
func TestRunAllMatchesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	defer func(old int) { Parallelism = old }(Parallelism)
	defer func(old *rcache.Store) { Cache = old }(Cache)
	defer runner.SetBudget(runner.SetBudget(8))

	Cache = rcache.NewMemory()
	for _, parallel := range []int{8, 1} {
		Parallelism = parallel
		var got []string
		err := RunAll(IDs(), true, func(res *Result) error {
			got = append(got, res.ID)
			want, err := os.ReadFile(filepath.Join("testdata", res.ID+".golden"))
			if err != nil {
				return err
			}
			if renderResult(res) != string(want) {
				t.Errorf("Parallelism=%d: %s renders differently from Run:\n--- Run ---\n%s\n--- RunAll ---\n%s",
					parallel, res.ID, want, renderResult(res))
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, IDs()) {
			t.Errorf("Parallelism=%d: yielded %v, want %v", parallel, got, IDs())
		}
	}
}

// TestRunAllLooksUpEachCellOnce: the two fig1 panels share their cells, and
// a plan over both looks each distinct cell up exactly once — no hits.
func TestRunAllLooksUpEachCellOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	defer func(old int) { Parallelism = old }(Parallelism)
	defer func(old *rcache.Store) { Cache = old }(Cache)
	Cache = rcache.NewMemory()
	Parallelism = 8

	distinct := map[grid.Cell]bool{}
	total := 0
	for _, g := range []*grid.Grid{gridFig1Misses(true), gridFig1Speedup(true)} {
		for _, c := range g.Cells() {
			distinct[c] = true
			total++
		}
	}
	if len(distinct) == total {
		t.Fatalf("the fig1 panels share no cells (%d); the test needs overlap", total)
	}
	if err := RunAll([]string{"fig1-misses", "fig1-speedup"}, true, func(*Result) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if st := Cache.Stats(); st.Misses != int64(len(distinct)) || st.Hits() != 0 {
		t.Errorf("stats %+v: want %d misses (distinct cells of %d), 0 hits", st, len(distinct), total)
	}
}

// TestRepeatedGridPoint: a grid that repeats a point (cores=2,2) looks each
// distinct cell up once, every time, and its progress still ends at
// (cells, cells).
func TestRepeatedGridPoint(t *testing.T) {
	defer func(old int) { Parallelism = old }(Parallelism)
	defer func(old *rcache.Store) { Cache = old }(Cache)
	defer runner.SetBudget(runner.SetBudget(8))
	Parallelism = 8

	def, err := grid.ParseExpr("workload=scan;n=4096;cores=2,2;sched=pdf,ws")
	if err != nil {
		t.Fatal(err)
	}
	g, err := def.Resolve(Seed)
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 20; rep++ {
		Cache = rcache.NewMemory()
		var last [2]int
		res, err := RunGridStream(context.Background(), g, false, nil, func(done, total int) { last = [2]int{done, total} })
		if err != nil {
			t.Fatal(err)
		}
		if st := Cache.Stats(); st.Lookups() != 2 || st.Misses != 2 {
			t.Fatalf("repeat %d: stats %+v, want 2 lookups, 2 misses", rep, st)
		}
		if last != [2]int{4, 4} {
			t.Fatalf("repeat %d: last progress %v, want [4 4]", rep, last)
		}
		if len(res.Runs) != 4 || res.Runs[0] != res.Runs[2] || res.Runs[1] != res.Runs[3] {
			t.Fatalf("repeat %d: runs %+v do not repeat the point", rep, res.Runs)
		}
	}
}

// TestPlanErrorNamesOwner: a failing step stops the plan after the parts
// before it are yielded, and its error names the part that needs it.
func TestPlanErrorNamesOwner(t *testing.T) {
	defer func(old int) { Parallelism = old }(Parallelism)
	boom := errors.New("boom")
	mk := func(id string, err error) part {
		return part{
			id:     id,
			coarse: []func() (any, error){func() (any, error) { return id, err }},
			project: func(_ []metrics.Run, vals []any) (*Result, error) {
				return &Result{ID: vals[0].(string)}, nil
			},
		}
	}
	for _, parallel := range []int{1, 4} {
		Parallelism = parallel
		var got []string
		err := newPlan([]part{mk("a", nil), mk("b", boom), mk("c", nil)}).run(context.Background(), true, nil, nil, func(r *Result) error {
			got = append(got, r.ID)
			return nil
		})
		if !errors.Is(err, boom) || err.Error() != "b: boom" {
			t.Errorf("parallel %d: err = %v, want b: boom", parallel, err)
		}
		if !reflect.DeepEqual(got, []string{"a"}) {
			t.Errorf("parallel %d: yielded %v, want [a]", parallel, got)
		}
	}
}
