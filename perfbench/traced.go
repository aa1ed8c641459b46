package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/grid"
	"repro/internal/jobs"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/rcache"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// The traced run drives the cells of the definitions it covers in-process
// two ways. The program's own grid path, exp.RunGridStream, runs them with
// the program's per-cell tracer (internal/obs), which times the phases the
// program itself splits a cell into: cache lookup, instance acquisition,
// simulate and store. A copy of exp's cell path, call for call (KeyOf,
// Store.Do, Pool.Acquire, core.ByName, sim.New, Engine.Run,
// Instance.Verify, Pool.Release, all under runner.Map, then Grid.Project),
// runs them with a span around each call, for the splits obs does not
// make. TestCopyMatchesExp fails when exp's path and the copy part ways.

// parallel is the worker count of every path: one per vCPU of the 2-vCPU
// host the benchmark is sized for.
const parallel = 2

// Pass runs definitions in-process against one store and instance pool.
type Pass struct {
	Name  string
	Store *rcache.Store
	Pool  *workloads.Pool
	T     *Tracer // nil: spans off

	Busy    atomic.Int64 // ns spent inside cell jobs
	MapWall time.Duration
	Wall    time.Duration  // spent in Run
	CSV     map[int][]byte // by definition index
	mu      sync.Mutex
	Runs    []metrics.Run // computed (not cached) runs
}

func NewPass(name string, store *rcache.Store, tr *Tracer) *Pass {
	return &Pass{Name: name, Store: store, Pool: workloads.NewPool(workloads.DefaultPoolBudget), T: tr, CSV: map[int][]byte{}}
}

// RunDef resolves and runs one definition and returns its projected CSV.
func (p *Pass) RunDef(d Input) ([]byte, error) {
	sp := p.T.Begin("grid.Def.Resolve", p.Name+"/"+d.Name, nil)
	g, err := d.Def.Resolve(exp.Seed)
	sp.End()
	if err != nil {
		return nil, err
	}
	cells := g.Cells()
	jobsList := make([]runner.Job[metrics.Run], len(cells))
	mapSpan := p.T.Begin("runner.Map", p.Name+"/"+d.Name, nil)
	for i, c := range cells {
		id := fmt.Sprintf("%s/%s/%d", p.Name, d.Name, i)
		jobsList[i] = func() (metrics.Run, error) {
			t0 := time.Now()
			defer func() { p.Busy.Add(time.Since(t0).Nanoseconds()) }()
			return p.cell(c, id, mapSpan)
		}
	}
	t0 := time.Now()
	runs, err := runner.Map(parallel, jobsList)
	p.MapWall += time.Since(t0)
	mapSpan.End()
	if err != nil {
		return nil, err
	}
	sp = p.T.Begin("grid.Grid.Project", p.Name+"/"+d.Name, nil)
	t, err := g.Project(runs)
	sp.End()
	if err != nil {
		return nil, err
	}
	return []byte(t.CSV()), nil
}

func (p *Pass) cell(c grid.Cell, id string, parent *Open) (metrics.Run, error) {
	root := p.T.Begin("cell", id, parent)
	defer root.End()
	sp := p.T.Begin("rcache.KeyOf", id, root)
	key := rcache.KeyOf(c.Config, c.Spec, c.Sched, exp.Seed, false)
	sp.End()
	do := p.T.Begin("rcache.Store.Do", id, root)
	defer do.End()
	return p.Store.Do(key, func() (metrics.Run, error) {
		r, err := p.compute(c, id, do)
		if err == nil {
			p.mu.Lock()
			p.Runs = append(p.Runs, r)
			p.mu.Unlock()
		}
		return r, err
	})
}

// compute is internal/exp's cell compute path, call for call.
func (p *Pass) compute(c grid.Cell, id string, parent *Open) (metrics.Run, error) {
	sp := p.T.Begin("workloads.Pool.Acquire", id, parent)
	in := p.Pool.Acquire(c.Spec)
	sp.End()
	in.BeginRun()
	sp = p.T.Begin("core.ByName", id, parent)
	s := core.ByName(c.Sched, exp.OverheadsOf(c.Config), exp.Seed)
	sp.End()
	sp = p.T.Begin("sim.New", id, parent)
	e := sim.New(c.Config, in.Graph, s, nil)
	sp.End()
	sp = p.T.Begin("sim.Engine.Run", id, parent)
	r := e.Run()
	sp.End()
	r.Workload = c.Spec.Name
	sp = p.T.Begin("workloads.Instance.Verify", id, parent)
	err := in.Verify()
	sp.End()
	if err != nil {
		p.Pool.Discard(in)
		return r, fmt.Errorf("%v under %s on %s: %w", c.Spec, c.Sched, c.Config.Name, err)
	}
	sp = p.T.Begin("workloads.Pool.Release", id, parent)
	p.Pool.Release(in)
	sp.End()
	return r, nil
}

// Run runs definition i and keeps its CSV.
func (p *Pass) Run(in *Inputs, i int) error {
	t0 := time.Now()
	csv, err := p.RunDef(in.Defs[i])
	p.Wall += time.Since(t0)
	if err != nil {
		return fmt.Errorf("%s pass, %s: %w", p.Name, in.Defs[i].Name, err)
	}
	p.CSV[i] = csv
	return nil
}

// RunAll runs each of the definitions at idx on every pass in turn, the
// order of the passes turning by one with every definition (and with
// turn), so drift in the host's speed falls on all of them alike.
func RunAll(in *Inputs, idx []int, turn int, passes ...*Pass) error {
	for j, i := range idx {
		for k := range passes {
			if err := passes[(turn+j+k)%len(passes)].Run(in, i); err != nil {
				return err
			}
		}
	}
	return nil
}

// Traced is the traced run: the CLI path, the program's in-process path,
// the copy of it with spans off and on, a hit-only pass, the job service, a
// 1DF record and cache replay pass, and the process floor. It reports
// every per-layer metric.
func Traced(env *Env, in *Inputs, res *Result) error {
	tr := NewTracer()
	idx := in.TracedDefs()
	files, err := WriteDefs(env.Dir("defs"), in, idx)
	if err != nil {
		return err
	}

	// The CLI's CSVs, which every in-process path must reproduce.
	var fleet Fleet
	cli := map[int][]byte{}
	if in.Workload == "warm-fleet" {
		var ref []byte
		if fleet, ref, err = StartWarmFleet(env, in, files[0]); err != nil {
			return err
		}
		defer fleet.Stop()
		cli[0] = ref
	} else {
		for _, i := range idx {
			p, err := RunProc(env.Ctx, env.bin("sweep"), sweepArgs(files[i], env.Dir("cli"))...)
			if err == nil {
				err = checkSweep(p, in.Defs[i].Cells, in.Defs[i].Cells)
			}
			if res.Op(err) {
				cli[i] = p.Stdout
			}
		}
	}
	compare := func(pass string, got map[int][]byte) {
		for _, i := range idx {
			var err error
			if !bytes.Equal(got[i], cli[i]) {
				err = fmt.Errorf("%s pass: %s CSV differs from the CLI's", pass, in.Defs[i].Name)
			}
			res.Op(err)
		}
	}

	// Every store reads through a disk directory of its own (or, for the
	// hit pass, the traced pass's); on warm-fleet, as its sweeps do, through
	// memory and the fleet.
	var stores []*rcache.Store
	defer func() {
		for _, s := range stores {
			s.Close()
		}
	}()
	open := func(dir string) (*rcache.Store, error) {
		if fleet != nil {
			s := rcache.NewMemory()
			stores = append(stores, s)
			return s, s.AttachRemoteFleet(fleet.URLs(), 0)
		}
		s, err := rcache.Open(dir, false)
		if err != nil {
			return nil, err
		}
		stores = append(stores, s)
		return s, nil
	}
	run := func(turn int, passes ...*Pass) error {
		err := RunAll(in, idx, turn, passes...)
		if err == nil {
			for _, p := range passes {
				compare(p.Name, p.CSV)
			}
		}
		return err
	}

	// The program computes every cell from an empty store: on warm-fleet,
	// from memory alone, since the fleet holds every cell.
	fresh := func() (*rcache.Store, error) {
		if fleet != nil {
			s := rcache.NewMemory()
			stores = append(stores, s)
			return s, nil
		}
		return open(env.Dir("program"))
	}

	// Each rep is one pass over the definitions on each path: the
	// program's, then the copy with spans off and on, definition by
	// definition by turns. Reps repeat for at least half the run, for the
	// tracing overhead and the per-call means; totals and counts are per
	// rep, so they do not grow with the number of reps.
	runner.SetBudget(parallel)
	prog := obs.NewTracer()
	var offWall, onWall time.Duration
	var reps [][]*Pass // by rep, the copy's passes that computed cells
	var s1 *rcache.Store
	var tracedDir, digest string
	var cacheStats rcache.Stats
	var builds, buildS []float64
	start := time.Now()
	for rep := 0; rep == 0 || time.Since(start) < env.Seconds/2; rep++ {
		ps, err := fresh()
		if err != nil {
			return err
		}
		b0, n0 := workloads.BuildCount()
		got, err := programPass(env.Ctx, in, idx, ps, prog)
		if err != nil {
			return err
		}
		b1, n1 := workloads.BuildCount()
		builds, buildS = append(builds, float64(b1-b0)), append(buildS, float64(n1-n0)/1e9)
		compare("program", got)
		s0, err := open(env.Dir("inproc"))
		if err != nil {
			return err
		}
		tracedDir = env.Dir("inproc")
		if s1, err = open(tracedDir); err != nil {
			return err
		}
		off := NewPass(fmt.Sprintf("untraced.%d", rep), s0, nil)
		on := NewPass(fmt.Sprintf("traced.%d", rep), s1, tr)
		if err := run(rep, off, on); err != nil {
			return err
		}
		offWall, onWall = offWall+off.Wall, onWall+on.Wall
		digest = Digest(in, on.CSV)
		st := s1.Stats()
		cacheStats.MemHits += st.Hits()
		cacheStats.Misses += st.Lookups() - st.Hits()
		passes := []*Pass{on}
		if fleet != nil {
			// Every cell was a remote hit and nothing was simulated: time
			// the compute layers on the same cells from an empty memory
			// store.
			probe := NewPass(fmt.Sprintf("probe.%d", rep), rcache.NewMemory(), tr)
			if err := run(0, probe); err != nil {
				return err
			}
			passes = append(passes, probe)
		}
		reps = append(reps, passes)
	}

	// Hit-only, on the program's path: what a new process sees of the
	// traced pass's results, from its disk directory, or from the fleet on
	// warm-fleet. No cell may be computed.
	hs, err := open(tracedDir)
	if err != nil {
		return err
	}
	progHit := obs.NewTracer()
	got, err := programPass(env.Ctx, in, idx, hs, progHit)
	if err != nil {
		return err
	}
	compare("hit", got)
	for _, r := range progHit.Records() {
		var err error
		if r.Outcome == "computed" || r.Outcome == "uncached" {
			err = fmt.Errorf("hit pass: %s under %s on %s was %s, want a cache hit", r.Workload, r.Sched, r.Config, r.Outcome)
		}
		res.Op(err)
	}

	list, outs, jobStats, err := jobsPass(env, in, s1, tr)
	if err != nil {
		return err
	}
	if in.Jobs != nil {
		// The service's own store carries service-mix's repeat traffic.
		cacheStats = jobStats
	}
	CheckJobs(in, list, outs, res)
	for _, o := range outs {
		d := list[o.Index].Def
		var err error
		if o.Err == nil && !bytes.Equal(o.CSV, cli[d]) {
			err = fmt.Errorf("job result for %s differs from sweep -grid", in.Defs[d].Name)
		}
		res.Op(err)
	}

	recordPass(in, idx, tr, res)

	var exec []float64
	for i := 0; i < 15; i++ {
		sp := tr.Begin("sweep.exec", fmt.Sprintf("exec/%d", i), nil)
		_, err := RunProc(env.Ctx, env.bin("sweep"), "-list")
		exec = append(exec, ms(sp.End()))
		res.Op(err)
	}

	spans := tr.Spans()
	res.Spans = spans
	m := res.Metrics
	res.Op(layerMetrics(m, spans, reps))
	programMetrics(m, prog.Records(), progHit.Records())
	jobMetrics(m, outs)
	m["sweep.exec_ms"] = Median(exec)
	m["workloads.builds"] = Median(builds)
	m["workloads.build_s"] = Median(buildS)
	var hits, misses int64
	var idle []float64
	for _, passes := range reps {
		for _, p := range passes {
			st := p.Pool.Stats()
			hits, misses = hits+st.Hits, misses+st.Misses
			idle = append(idle, float64(st.IdleBytes)/(1<<20))
		}
	}
	m["workloads.pool_hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	m["workloads.idle_mb"] = mean(idle)
	var remoteErrs, corrupt int64
	for _, s := range stores {
		s.Close()
		x := s.Stats()
		remoteErrs += x.RemoteErrs
		corrupt += x.Corrupt
	}
	stores = nil
	m["rcache.hit_ratio"] = ratio(float64(cacheStats.Hits()), float64(cacheStats.Lookups()))
	m["rcache.remote_errs"] = float64(remoteErrs)
	m["rcache.corrupt"] = float64(corrupt)
	m["bench.trace_overhead_frac"] = ratio((onWall - offWall).Seconds(), offWall.Seconds())
	res.Record["digest"] = digest
	res.Record["reps"] = len(reps)
	res.Record["untraced_s"] = offWall.Seconds()
	res.Record["traced_s"] = onWall.Seconds()
	res.Record["self_s_by_span"] = selfByName(spans)
	return nil
}

// programPass runs the definitions at idx through exp.RunGridStream, the
// path sweep -grid and sweepd run, against store, and returns their CSVs
// by index. tr is the program's own per-cell tracer.
func programPass(ctx context.Context, in *Inputs, idx []int, store *rcache.Store, tr *obs.Tracer) (map[int][]byte, error) {
	exp.Cache, exp.InstancePool, exp.Parallelism = store, workloads.NewPool(workloads.DefaultPoolBudget), parallel
	out := map[int][]byte{}
	for _, i := range idx {
		g, err := in.Defs[i].Def.Resolve(exp.Seed)
		if err != nil {
			return nil, err
		}
		r, err := exp.RunGridStream(ctx, g, false, tr, nil)
		if err != nil {
			return nil, fmt.Errorf("program pass, %s: %w", in.Defs[i].Name, err)
		}
		out[i] = []byte(r.Tables[0].CSV())
	}
	return out, nil
}

// programMetrics takes from the program's own cell phases: instance
// acquisition (pool-acquire, build, reset) and the cache's overhead around
// the compute (cache-lookup, store) on computed cells, and the lookup that
// found each cell on the hit pass.
func programMetrics(m map[string]float64, miss, hit []obs.SpanRecord) {
	var acquire, over, hits []float64
	for _, r := range miss {
		if r.Outcome != "computed" {
			continue
		}
		p := r.PhaseNs()
		acquire = append(acquire, float64(p[obs.PhasePoolAcquire]+p[obs.PhaseBuild]+p[obs.PhaseReset]))
		over = append(over, float64(p[obs.PhaseCacheLookup]+p[obs.PhaseStore]))
	}
	for _, r := range hit {
		hits = append(hits, float64(r.Phases.CacheLookup))
	}
	m["workloads.acquire_ms"] = mean(acquire) / 1e6
	m["rcache.do_miss_overhead_us"] = mean(over) / 1e3
	h := Summarise(hits)
	m["rcache.do_hit_us_p50"] = h.P50 / 1e3
	m["rcache.do_hit_us_tail"] = h.Tail / 1e3
}

// jobsPass submits jobs to an in-process job service over HTTP. On
// service-mix these are the traced prefix of the submission sequence, from
// two clients against a fresh cache; elsewhere one job per traced
// definition, against the traced pass's warm store.
func jobsPass(env *Env, in *Inputs, warm *rcache.Store, tr *Tracer) ([]Job, []JobOutcome, rcache.Stats, error) {
	var list []Job
	store, clients := warm, 1
	if in.Jobs != nil {
		list = in.Jobs[:in.Traced]
		s, err := rcache.Open(env.Dir("jobs"), false)
		if err != nil {
			return nil, nil, rcache.Stats{}, err
		}
		defer s.Close()
		store, clients = s, 2
	} else {
		for _, i := range in.TracedDefs() {
			list = append(list, Job{Def: i, Cached: true})
		}
	}
	exp.Cache, exp.InstancePool, exp.Parallelism = store, workloads.NewPool(workloads.DefaultPoolBudget), parallel
	mgr := jobs.New(jobs.Config{})
	srv := httptest.NewServer(jobs.NewAPI(mgr, nil))
	defer srv.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		mgr.Shutdown(ctx)
	}()
	sub, err := NewSubmitter(srv.URL, in, list, tr)
	if err != nil {
		return nil, nil, rcache.Stats{}, err
	}
	outs := RunJobs(env.Ctx, sub, clients, func() bool { return false })
	return list, outs, store.Stats(), nil
}

// recordPass runs up to three sampled instances task by task in 1DF order
// on a trace.Recorder, replays each task's loads and stores through a
// fresh cache hierarchy of the cell's machine, and verifies the result.
func recordPass(in *Inputs, idx []int, tr *Tracer, res *Result) {
	var picks []grid.Cell
	seen := map[string]bool{}
	for _, i := range idx {
		g, err := in.Defs[i].Def.Resolve(exp.Seed)
		if !res.Op(err) {
			continue
		}
		for _, c := range g.Cells() {
			if len(picks) < 3 && !seen[c.Spec.Name] && c.Spec.N <= 1<<16 && footprint(c.Spec.Name, c.Spec.N) <= 2<<20 {
				seen[c.Spec.Name] = true
				picks = append(picks, c)
			}
		}
	}
	var recNs, accNs, actions, accesses int64
	var rec trace.Recorder
	for i, p := range picks {
		id := fmt.Sprintf("record/%d", i)
		root := tr.Begin("record", id, nil)
		sp := tr.Begin("workloads.Build", id, root)
		inst := workloads.Build(p.Spec)
		sp.End()
		inst.BeginRun()
		h := cache.New(p.Config.CacheParams())
		var now int64
		recSpan := tr.Begin("trace.Recorder", id, root)
		for _, n := range inst.Graph.OneDFOrder() {
			if n.Run == nil {
				continue
			}
			rec.Reset()
			t := time.Now()
			n.Run(&rec)
			recNs += time.Since(t).Nanoseconds()
			actions += int64(rec.Len())
			t = time.Now()
			for _, a := range rec.Actions() {
				if a.Kind != trace.Compute {
					now = h.Access(0, a.Addr, int(a.N), a.Kind == trace.Store, now)
					accesses++
				}
			}
			accNs += time.Since(t).Nanoseconds()
		}
		recSpan.End()
		sp = tr.Begin("workloads.Instance.Verify", id, root)
		err := inst.Verify()
		sp.End()
		root.End()
		if err != nil {
			err = fmt.Errorf("1DF record pass of %v: %w", p.Spec, err)
		}
		res.Op(err)
	}
	res.Metrics["trace.record_ns_per_action"] = ratio(float64(recNs), float64(actions))
	res.Metrics["trace.actions"] = float64(actions)
	res.Metrics["cache.access_ns"] = ratio(float64(accNs), float64(accesses))
	res.Record["record_samples"] = len(picks)
}

// byName collects span durations (ns) by name over spans whose cell id
// starts with one of the pass prefixes.
func byName(spans []Span, name string, passes ...string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name && inPasses(s, passes) {
			out = append(out, float64(s.Dur()))
		}
	}
	return out
}

func sum(xs []float64) (t float64) {
	for _, x := range xs {
		t += x
	}
	return t
}

// leafLayers are the calls on a computed cell's path that do a layer's
// work; what a cell spends outside them (the cell's and Do's own code on a
// miss) is unattributed.
var leafLayers = map[string]bool{
	"rcache.KeyOf": true, "workloads.Pool.Acquire": true, "core.ByName": true, "sim.New": true,
	"sim.Engine.Run": true, "workloads.Instance.Verify": true, "workloads.Pool.Release": true,
}

// LayerShare is the share of the cells' time (spans named "cell" in the
// passes) spent inside leaf layer calls, or in Store.Do on a cell it found
// cached (a Do span with no children).
func LayerShare(spans []Span, passes ...string) float64 {
	self := SelfTimes(spans)
	var cells, layers float64
	for _, s := range spans {
		if !inPasses(s, passes) {
			continue
		}
		switch {
		case s.Name == "cell":
			cells += float64(s.Dur())
		case leafLayers[s.Name]:
			layers += float64(s.Dur())
		case s.Name == "rcache.Store.Do" && self[s.ID] == s.Dur():
			layers += float64(s.Dur())
		}
	}
	return ratio(layers, cells)
}

func inPasses(s Span, passes []string) bool {
	for _, p := range passes {
		if strings.HasPrefix(s.Cell, p+"/") {
			return true
		}
	}
	return false
}

// simCounts sums the simulated counts of runs.
func simCounts(runs []metrics.Run) metrics.Run {
	var t metrics.Run
	for _, r := range runs {
		t.Instructions += r.Instructions
		t.Cycles += r.Cycles
		t.Tasks += r.Tasks
		t.L1Hits += r.L1Hits
		t.L1Misses += r.L1Misses
		t.L2Hits += r.L2Hits
		t.L2Misses += r.L2Misses
		t.OffchipBytes += r.OffchipBytes
		t.BusQueueCycles += r.BusQueueCycles
		t.Steals += r.Steals
		t.DispatchCyc += r.DispatchCyc
	}
	return t
}

// layerMetrics derives the copy's per-layer times from the spans of the
// passes that computed cells, by rep, and the simulated counts from the
// runs they produced. Per-call times are means over every rep; totals are
// the median rep's; counts are one rep's, and every rep must repeat them
// exactly.
func layerMetrics(m map[string]float64, spans []Span, reps [][]*Pass) error {
	var names []string
	var busy, wall float64
	var runS, nsPerInstr []float64
	var counts metrics.Run
	var err error
	for i, passes := range reps {
		var rn []string
		var runs []metrics.Run
		for _, p := range passes {
			rn = append(rn, p.Name)
			busy += float64(p.Busy.Load())
			wall += float64(p.MapWall.Nanoseconds()) * parallel
			runs = append(runs, p.Runs...)
		}
		names = append(names, rn...)
		ns := sum(byName(spans, "sim.Engine.Run", rn...))
		c := simCounts(runs)
		runS = append(runS, ns/1e9)
		nsPerInstr = append(nsPerInstr, ratio(ns, float64(c.Instructions)))
		if i == 0 {
			counts = c
		} else if c != counts && err == nil {
			err = fmt.Errorf("rep %d simulated %+v, rep 0 %+v", i, c, counts)
		}
	}
	m["runner.busy_frac"] = ratio(busy, wall)
	m["workloads.verify_ms"] = mean(byName(spans, "workloads.Instance.Verify", names...)) / 1e6
	m["sim.new_us"] = mean(byName(spans, "sim.New", names...)) / 1e3
	m["sim.run_s"] = Median(runS)
	m["sim.ns_per_instr"] = Median(nsPerInstr)
	m["rcache.key_us"] = mean(byName(spans, "rcache.KeyOf", names...)) / 1e3
	m["grid.resolve_ms"] = mean(byName(spans, "grid.Def.Resolve", names...)) / 1e6
	m["grid.project_ms"] = mean(byName(spans, "grid.Grid.Project", names...)) / 1e6
	m["bench.layer_self_share"] = LayerShare(spans, names...)

	m["sim.instructions"] = float64(counts.Instructions)
	m["sim.cycles"] = float64(counts.Cycles)
	m["sim.tasks"] = float64(counts.Tasks)
	m["cache.l1_hit_ratio"] = ratio(float64(counts.L1Hits), float64(counts.L1Hits+counts.L1Misses))
	m["cache.l2_hit_ratio"] = ratio(float64(counts.L2Hits), float64(counts.L2Hits+counts.L2Misses))
	m["cache.offchip_mb"] = float64(counts.OffchipBytes) / (1 << 20)
	m["cache.bus_queue_cycles"] = float64(counts.BusQueueCycles)
	m["core.steals"] = float64(counts.Steals)
	m["core.dispatch_cycles"] = float64(counts.DispatchCyc)
	return err
}

// jobMetrics averages the job service's timings over the jobs that ran.
func jobMetrics(m map[string]float64, outs []JobOutcome) {
	var submit, fetch, queue, runMS []float64
	rejected := 0
	for _, o := range outs {
		if o.Rejected {
			rejected++
		}
		if o.Err != nil {
			continue
		}
		submit = append(submit, ms(o.Submit))
		fetch = append(fetch, ms(o.Fetch))
		queue = append(queue, o.QueueMS)
		runMS = append(runMS, o.RunMS)
	}
	m["jobs.submit_ms"] = mean(submit)
	m["jobs.fetch_ms"] = mean(fetch)
	m["jobs.queue_ms"] = mean(queue)
	m["jobs.run_ms"] = mean(runMS)
	m["jobs.rejected"] = float64(rejected)
}

// selfByName totals self time (s) per span name, for the record.
func selfByName(spans []Span) map[string]float64 {
	self := SelfTimes(spans)
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Name] += float64(self[s.ID]) / 1e9
	}
	return out
}
