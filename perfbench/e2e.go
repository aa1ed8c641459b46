package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/jobs"
)

// Env is one benchmark run's surroundings.
type Env struct {
	Ctx     context.Context
	Bin     string // directory holding sweep, cached and sweepd
	Work    string // scratch directory, removed when the run ends
	Seconds time.Duration
	Size    Size
	dirs    int
	dirErr  error
}

func (e *Env) bin(name string) string { return filepath.Join(e.Bin, name) }

// Dir makes a fresh directory under the scratch directory. A failure is
// kept for Err; whatever then uses the directory fails too.
func (e *Env) Dir(prefix string) string {
	e.dirs++
	d := filepath.Join(e.Work, fmt.Sprintf("%s-%d", prefix, e.dirs))
	if err := os.MkdirAll(d, 0o755); err != nil && e.dirErr == nil {
		e.dirErr = err
	}
	return d
}

// Err returns the first failure to make a directory.
func (e *Env) Err() error { return e.dirErr }

// Result is what a run measured and checked.
type Result struct {
	Attempted, Failed int
	Failures          []string
	Metrics           map[string]float64 // by catalog name
	Record            map[string]any     // extra facts for the record file only
	Spans             []Span
}

func NewResult() *Result {
	return &Result{Metrics: map[string]float64{}, Record: map[string]any{}}
}

// Op counts one attempted operation and, when err is non-nil, its failure.
func (r *Result) Op(err error) bool {
	r.Attempted++
	if err != nil {
		r.Failed++
		if len(r.Failures) < 20 {
			r.Failures = append(r.Failures, err.Error())
		}
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", err)
	}
	return err == nil
}

// WriteDefs writes the definitions at idx as grid files and returns their
// paths by index.
func WriteDefs(dir string, in *Inputs, idx []int) (map[int]string, error) {
	paths := map[int]string{}
	for _, i := range idx {
		d := in.Defs[i]
		b, err := json.MarshalIndent(d.Def, "", " ")
		if err != nil {
			return nil, err
		}
		paths[i] = filepath.Join(dir, d.Name+".json")
		if err := os.WriteFile(paths[i], b, 0o644); err != nil {
			return nil, err
		}
	}
	return paths, nil
}

var statRE = regexp.MustCompile(`\b(lookups|misses|corrupt|remote-errs)=(\d+)`)

// cacheStats parses sweep's -cache-stats line.
func cacheStats(stderr []byte) map[string]int {
	out := map[string]int{}
	for _, m := range statRE.FindAllSubmatch(stderr, -1) {
		if _, seen := out[string(m[1])]; !seen {
			out[string(m[1])], _ = strconv.Atoi(string(m[2]))
		}
	}
	return out
}

// checkSweep applies the checks every sweep invocation must pass: the
// expected number of CSV rows, no corrupt records or remote errors, and
// the expected number of misses (-1: any).
func checkSweep(p Proc, cells, misses int) error {
	if rows := csvRows(p.Stdout); rows != cells {
		return fmt.Errorf("sweep printed %d CSV rows, want %d", rows, cells)
	}
	st := cacheStats(p.Stderr)
	if _, ok := st["lookups"]; !ok {
		return fmt.Errorf("sweep printed no cache statistics")
	}
	if st["corrupt"] != 0 || st["remote-errs"] != 0 {
		return fmt.Errorf("sweep cache: corrupt=%d remote-errs=%d", st["corrupt"], st["remote-errs"])
	}
	if misses >= 0 && st["misses"] != misses {
		return fmt.Errorf("sweep cache: misses=%d, want %d", st["misses"], misses)
	}
	return nil
}

func csvRows(csv []byte) int {
	n := bytes.Count(csv, []byte("\n"))
	if n == 0 {
		return 0
	}
	return n - 1
}

// csvSum sums a named column over a CSV's rows.
func csvSum(csv []byte, col string) float64 {
	lines := strings.Split(strings.TrimSpace(string(csv)), "\n")
	if len(lines) < 2 {
		return 0
	}
	idx := -1
	for i, h := range strings.Split(lines[0], ",") {
		if h == col {
			idx = i
		}
	}
	if idx < 0 {
		return 0
	}
	var s float64
	for _, l := range lines[1:] {
		f := strings.Split(l, ",")
		if idx < len(f) {
			v, _ := strconv.ParseFloat(f[idx], 64)
			s += v
		}
	}
	return s
}

// Digest hashes the CSVs of the definitions the traced run covers, in
// definition order, into the sim-stats digest. It repeats exactly for one
// seed on every path; a missing CSV makes it "incomplete".
func Digest(in *Inputs, csvs map[int][]byte) string {
	h := sha256.New()
	for _, i := range in.TracedDefs() {
		c, ok := csvs[i]
		if !ok {
			return "incomplete"
		}
		fmt.Fprintf(h, "%s\n%s", in.Defs[i].Name, c)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// sweepArgs returns the arguments of one `sweep -grid` run; an empty
// cache directory leaves only the in-memory tier.
func sweepArgs(file, cache string, extra ...string) []string {
	args := []string{"-grid", file, "-csv", "-parallel", "2", "-cache-stats"}
	if cache != "" {
		args = append(args, "-cache", cache)
	}
	return append(args, extra...)
}

// setups makes the set-up reps times and returns the times (s). prepare
// runs untimed before each rep: it stops what the rep before started and
// makes the rep's directories, so only the program's own work is timed.
//
// A set-up of a few milliseconds is made half before the timed phase and
// half after, and setup_s is the median of both halves: the host's speed
// drifts for seconds at a time, and set-ups made all at one moment would
// report that moment's speed.
func setups(reps int, prepare func(), setup func() error) ([]float64, error) {
	var ts []float64
	for i := 0; i < reps; i++ {
		prepare()
		t := time.Now()
		if err := setup(); err != nil {
			return nil, err
		}
		ts = append(ts, time.Since(t).Seconds())
	}
	return ts, nil
}

// ColdMix runs every definition through `sweep -grid` against a fresh
// cache directory, in whole cycles over the definitions, for at least one
// cycle and for as many more as fit in the run length. Its set-up is the
// process floor every one of those sweeps pays before it simulates: a
// `sweep -list` from launch to exit.
func ColdMix(env *Env, in *Inputs, res *Result) error {
	all := make([]int, len(in.Defs))
	for i := range all {
		all[i] = i
	}
	files, err := WriteDefs(env.Dir("defs"), in, all)
	if err != nil {
		return err
	}
	floor := func() error {
		_, err := RunProc(env.Ctx, env.bin("sweep"), "-list")
		return err
	}
	before, err := setups(25, func() {}, floor)
	if err != nil {
		return err
	}
	var cells, instr float64
	var wall, cpu time.Duration
	var rss int64
	var lat, rssMB []float64
	first := map[int][]byte{}
	start := time.Now()
	var cycle time.Duration
	for round := 0; round == 0 || time.Since(start)+cycle <= env.Seconds; round++ {
		t0 := time.Now()
		for i, d := range in.Defs {
			dir := env.Dir("cache")
			p, err := RunProc(env.Ctx, env.bin("sweep"), sweepArgs(files[i], dir)...)
			if err == nil {
				err = checkSweep(p, d.Cells, d.Cells)
			}
			if err == nil {
				if ref, ok := first[i]; !ok {
					first[i] = p.Stdout
				} else if !bytes.Equal(ref, p.Stdout) {
					err = fmt.Errorf("%s: output differs from the first cycle's", d.Name)
				}
			}
			if !res.Op(err) {
				continue
			}
			cells += float64(d.Cells)
			instr += csvSum(p.Stdout, "instructions")
			wall += p.Wall
			cpu += p.CPU
			rss = max(rss, p.MaxRSSKB)
			lat = append(lat, ms(p.Wall))
			rssMB = append(rssMB, float64(p.MaxRSSKB)/1024)
		}
		cycle = time.Since(t0)
	}
	after, err := setups(26, func() {}, floor)
	if err != nil {
		return err
	}
	res.Metrics["setup_s"] = Median(append(before, after...))
	res.Metrics["cells_per_s"] = ratio(cells, wall.Seconds())
	res.Metrics["cpu_ms_per_cell"] = ratio(ms(cpu), cells)
	res.Metrics["peak_rss_mb"] = float64(rss) / 1024
	res.Record["sim_minstr_per_s"] = ratio(instr/1e6, wall.Seconds())
	res.Record["sweep_ms"] = Summarise(lat)
	res.Record["sweep_rss_mb"] = rssMB
	res.Record["cells"] = cells
	res.Record["digest"] = Digest(in, first)
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// Fleet is a set of running cached shards.
type Fleet []*Server

func (f Fleet) URLs() string {
	u := make([]string, len(f))
	for i, s := range f {
		u[i] = s.URL
	}
	return strings.Join(u, ",")
}

func (f Fleet) Stop() {
	for _, s := range f {
		s.Stop()
	}
}

func (f Fleet) CPU() (t time.Duration) {
	for _, s := range f {
		t += s.CPU()
	}
	return t
}

// StartWarmFleet starts two cached shards and fills them with one cold
// sweep of the definition, whose output it returns as the reference.
func StartWarmFleet(env *Env, in *Inputs, file string) (Fleet, []byte, error) {
	var fleet Fleet
	for i := 0; i < 2; i++ {
		s, err := StartServer(env.bin("cached"), []string{"-dir", env.Dir("shard")}, "/stats", filepath.Join(env.Dir("log"), "cached.log"))
		if err != nil {
			fleet.Stop()
			return nil, nil, err
		}
		fleet = append(fleet, s)
	}
	d := in.Defs[0]
	p, err := RunProc(env.Ctx, env.bin("sweep"), sweepArgs(file, env.Dir("warm"), "-cache-remote", fleet.URLs())...)
	if err == nil {
		err = checkSweep(p, d.Cells, d.Cells)
	}
	if err != nil {
		fleet.Stop()
		return nil, nil, fmt.Errorf("warming the fleet: %w", err)
	}
	return fleet, p.Stdout, nil
}

// WarmFleet times a closed loop of sweeps with no local cache against a
// warmed two-shard fleet. Every sweep must be all remote hits and print the
// warm-up sweep's bytes. The sweeps keep no -cache directory: filling one
// creates a file per cell, and on a file system that discards freed blocks
// (ext4 -o discard) a run's tens of thousands of creates and deletes slow
// file creation for the runs after it, so the numbers would drift with the
// disk's history.
func WarmFleet(env *Env, in *Inputs, res *Result) error {
	files, err := WriteDefs(env.Dir("defs"), in, []int{0})
	if err != nil {
		return err
	}
	file := files[0]
	var fleet Fleet
	var ref []byte
	ts, err := setups(5, func() { fleet.Stop() }, func() error {
		var err error
		fleet, ref, err = StartWarmFleet(env, in, file)
		return err
	})
	if err != nil {
		fleet.Stop()
		return err
	}
	setup := Median(ts)
	defer fleet.Stop()
	d := in.Defs[0]
	var cells float64
	var cpu time.Duration
	var rss int64
	var lat []float64
	cpu0 := fleet.CPU()
	start := time.Now()
	for time.Since(start) < env.Seconds {
		p, err := RunProc(env.Ctx, env.bin("sweep"), sweepArgs(file, "", "-cache-remote", fleet.URLs())...)
		if err == nil {
			err = checkSweep(p, d.Cells, 0)
		}
		if err == nil && !bytes.Equal(p.Stdout, ref) {
			err = fmt.Errorf("warm sweep output differs from the warm-up sweep's")
		}
		if !res.Op(err) {
			continue
		}
		cells += float64(d.Cells)
		cpu += p.CPU
		rss = max(rss, p.MaxRSSKB)
		lat = append(lat, ms(p.Wall))
	}
	cpu += fleet.CPU() - cpu0
	for _, s := range fleet {
		rss = max(rss, s.PeakRSSKB())
	}
	// The typical sweep's rate: the host's speed drifts for seconds at a
	// time, and a median of the sweeps passes over a slow stretch that a
	// total over the run would average in.
	sw := Summarise(lat)
	res.Metrics["setup_s"] = setup
	res.Metrics["cells_per_s"] = ratio(float64(d.Cells), sw.P50/1e3)
	res.Metrics["cpu_ms_per_cell"] = ratio(ms(cpu), cells)
	res.Metrics["peak_rss_mb"] = float64(rss) / 1024
	res.Record["sweep_p50_ms"] = sw.P50
	res.Record["sweep_tail_ms"] = sw.Tail
	res.Record["sweep_ms"] = sw
	res.Record["cells"] = cells
	res.Record["digest"] = Digest(in, map[int][]byte{0: ref})
	return nil
}

// JobOutcome is one job's trip through the service.
type JobOutcome struct {
	Index    int
	Status   jobs.Status
	CSV      []byte
	Latency  time.Duration // POST to fetched result
	Submit   time.Duration
	Fetch    time.Duration
	QueueMS  float64
	RunMS    float64
	Rejected bool
	Err      error
}

// Submitter drives one job service over HTTP. A repeat is posted only
// after the job it repeats was posted, so the FIFO queue always runs the
// original first and the repeat finds every cell cached.
type Submitter struct {
	URL    string
	Inputs *Inputs
	Jobs   []Job
	Tracer *Tracer
	posted []chan struct{} // closed once a definition's first job is posted
	once   []sync.Once
	bodies [][]byte
}

func NewSubmitter(url string, in *Inputs, list []Job, tr *Tracer) (*Submitter, error) {
	s := &Submitter{URL: url, Inputs: in, Jobs: list, Tracer: tr,
		posted: make([]chan struct{}, len(in.Defs)), once: make([]sync.Once, len(in.Defs)), bodies: make([][]byte, len(in.Defs))}
	for i, d := range in.Defs {
		s.posted[i] = make(chan struct{})
		b, err := json.Marshal(d.Def)
		if err != nil {
			return nil, err
		}
		s.bodies[i] = b
	}
	return s, nil
}

// Run submits job i, waits for it to end and fetches its CSV.
func (s *Submitter) Run(ctx context.Context, i int) JobOutcome {
	get := func(url string) (*http.Response, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return nil, err
		}
		return http.DefaultClient.Do(req)
	}
	job := s.Jobs[i]
	o := JobOutcome{Index: i}
	if job.Repeat {
		select {
		case <-s.posted[job.Def]:
		case <-ctx.Done():
			o.Err = ctx.Err()
			return o
		}
	}
	cell := fmt.Sprintf("jobs/%d", i)
	root := s.Tracer.Begin("job", cell, nil)
	defer root.End()
	start := time.Now()
	sp := s.Tracer.Begin("jobs.submit", cell, root)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.URL+"/v1/jobs", bytes.NewReader(s.bodies[job.Def]))
	if err != nil {
		o.Err = err
		return o
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if !job.Repeat {
		s.once[job.Def].Do(func() { close(s.posted[job.Def]) })
	}
	if err != nil {
		o.Err = err
		return o
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	sp.End()
	o.Submit = time.Since(start)
	if resp.StatusCode != http.StatusAccepted {
		o.Rejected = true
		o.Err = fmt.Errorf("job %d rejected: %d %s", i, resp.StatusCode, strings.TrimSpace(string(body)))
		return o
	}
	var st jobs.Status
	if err := json.Unmarshal(body, &st); err != nil {
		o.Err = fmt.Errorf("job %d: status: %v", i, err)
		return o
	}
	base := s.URL + "/v1/jobs/" + st.ID
	sp = s.Tracer.Begin("jobs.wait", cell, root)
	// The event stream closes once the job is terminal.
	if err := drain(get, base+"/events"); err != nil {
		o.Err = err
		return o
	}
	sp.End()
	if err := getJSON(get, base, &o.Status); err != nil {
		o.Err = err
		return o
	}
	t := time.Now()
	sp = s.Tracer.Begin("jobs.fetch", cell, root)
	resp, err = get(base + "/result?format=csv")
	if err != nil {
		o.Err = err
		return o
	}
	o.CSV, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	sp.End()
	o.Fetch = time.Since(t)
	o.Latency = time.Since(start)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("result: HTTP %d", resp.StatusCode)
	}
	o.QueueMS, o.RunMS = stampMS(o.Status.SubmittedAt, o.Status.StartedAt), stampMS(o.Status.StartedAt, o.Status.FinishedAt)
	o.Err = err
	if o.Err == nil {
		o.Err = s.check(o)
	}
	return o
}

// check applies the per-job checks: done, the expected rows, and all hits
// for a job whose cells are cached, all misses for one whose are not.
func (s *Submitter) check(o JobOutcome) error {
	job := s.Jobs[o.Index]
	d := s.Inputs.Defs[job.Def]
	switch {
	case o.Status.State != jobs.StateDone:
		return fmt.Errorf("job %d (%s) ended %s: %s", o.Index, d.Name, o.Status.State, o.Status.Error)
	case csvRows(o.CSV) != d.Cells:
		return fmt.Errorf("job %d (%s): %d CSV rows, want %d", o.Index, d.Name, csvRows(o.CSV), d.Cells)
	case job.Cached && o.Status.CacheMisses != 0:
		return fmt.Errorf("job %d (%s) should be cached but missed %d cells", o.Index, d.Name, o.Status.CacheMisses)
	case !job.Cached && o.Status.CacheHits != 0:
		return fmt.Errorf("job %d (%s) is new but hit %d cells", o.Index, d.Name, o.Status.CacheHits)
	}
	return nil
}

func stampMS(from, to string) float64 {
	a, err1 := time.Parse(time.RFC3339Nano, from)
	b, err2 := time.Parse(time.RFC3339Nano, to)
	if err1 != nil || err2 != nil {
		return 0
	}
	return ms(b.Sub(a))
}

func drain(get func(string) (*http.Response, error), url string) error {
	resp, err := get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

func getJSON(get func(string) (*http.Response, error), url string, v any) error {
	resp, err := get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// RunJobs drives jobs [0, limit) through the service with clients
// closed-loop clients until the jobs run out or stop reports true, and
// returns the outcomes of the jobs it started, in job order.
func RunJobs(ctx context.Context, s *Submitter, clients int, stop func() bool) []JobOutcome {
	limit := len(s.Jobs)
	outs := make([]JobOutcome, limit)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop() {
				i := int(next.Add(1)) - 1
				if i >= limit {
					return
				}
				outs[i] = s.Run(ctx, i)
			}
		}()
	}
	wg.Wait()
	started := int(min(next.Load(), int64(limit)))
	return outs[:started]
}

// CheckJobs counts every outcome as an operation, and fails a repeat whose
// CSV differs from its original's.
func CheckJobs(in *Inputs, list []Job, outs []JobOutcome, res *Result) {
	orig := map[int][]byte{}
	for _, o := range outs {
		job := list[o.Index]
		err := o.Err
		if err == nil && job.Repeat {
			if ref, ok := orig[job.Def]; ok && !bytes.Equal(ref, o.CSV) {
				err = fmt.Errorf("job %d: result differs from the earlier run of %s", o.Index, in.Defs[job.Def].Name)
			}
		}
		if err == nil && !job.Repeat {
			orig[job.Def] = o.CSV
		}
		res.Op(err)
	}
}

// ServiceMix times two closed-loop clients submitting the job sequence to
// one sweepd, then checks sampled results against `sweep -grid`.
func ServiceMix(env *Env, in *Inputs, res *Result) error {
	var srv *Server
	defer func() {
		if srv != nil {
			srv.Stop()
		}
	}()
	var dir, log string
	prepare := func() {
		if srv != nil {
			srv.Stop()
		}
		dir, log = env.Dir("svc"), filepath.Join(env.Dir("log"), "sweepd.log")
	}
	start := func() error {
		var err error
		srv, err = StartServer(env.bin("sweepd"), []string{"-parallel", "2", "-cache", dir}, "/healthz", log)
		return err
	}
	before, err := setups(11, prepare, start)
	if err != nil {
		return err
	}
	sub, err := NewSubmitter(srv.URL, in, in.Jobs, nil)
	if err != nil {
		return err
	}
	cpu0 := srv.CPU()
	t0 := time.Now()
	outs := RunJobs(env.Ctx, sub, 2, func() bool { return time.Since(t0) >= env.Seconds })
	elapsed := time.Since(t0)
	cpu := srv.CPU() - cpu0
	rss := srv.PeakRSSKB()
	CheckJobs(in, in.Jobs, outs, res)

	var cells float64
	var warm, cold []float64
	done := 0
	csvs := map[int][]byte{}
	for _, o := range outs {
		if o.Err != nil {
			continue
		}
		done++
		job := in.Jobs[o.Index]
		cells += float64(in.Defs[job.Def].Cells)
		if job.Repeat {
			warm = append(warm, ms(o.Latency))
		} else {
			cold = append(cold, ms(o.Latency))
			csvs[job.Def] = o.CSV
		}
	}
	// Two new definitions, recomputed by the CLI from an empty cache.
	checked := 0
	for i := range in.Defs {
		if c, ok := csvs[i]; ok && checked < 2 {
			checked++
			files, err := WriteDefs(env.Dir("defs"), in, []int{i})
			if err != nil {
				return err
			}
			p, err := RunProc(env.Ctx, env.bin("sweep"), sweepArgs(files[i], env.Dir("cli"))...)
			if err == nil && !bytes.Equal(p.Stdout, c) {
				err = fmt.Errorf("job result for %s differs from sweep -grid: %s", in.Defs[i].Name, firstDiff(c, p.Stdout))
			}
			res.Op(err)
		}
	}
	after, err := setups(10, prepare, start)
	if err != nil {
		return err
	}
	w, c := Summarise(warm), Summarise(cold)
	res.Metrics["setup_s"] = Median(append(before, after...))
	res.Metrics["cells_per_s"] = ratio(cells, elapsed.Seconds())
	res.Metrics["cpu_ms_per_cell"] = ratio(ms(cpu), cells)
	res.Metrics["peak_rss_mb"] = float64(rss) / 1024
	res.Record["jobs_per_s"] = ratio(float64(done), elapsed.Seconds())
	res.Record["job_warm_p50_ms"], res.Record["job_warm_tail_ms"] = w.P50, w.Tail
	res.Record["job_cold_p50_ms"], res.Record["job_cold_tail_ms"] = c.P50, c.Tail
	res.Record["job_warm_ms"], res.Record["job_cold_ms"] = w, c
	res.Record["jobs_submitted"] = len(outs)
	res.Record["cells"] = cells
	res.Record["digest"] = Digest(in, csvs)
	return nil
}

// firstDiff describes the first line where two outputs differ.
func firstDiff(a, b []byte) string {
	al, bl := strings.Split(string(a), "\n"), strings.Split(string(b), "\n")
	for i := 0; i < len(al) || i < len(bl); i++ {
		var x, y string
		if i < len(al) {
			x = al[i]
		}
		if i < len(bl) {
			y = bl[i]
		}
		if x != y {
			return fmt.Sprintf("line %d: %q vs %q", i+1, x, y)
		}
	}
	return "no difference"
}
