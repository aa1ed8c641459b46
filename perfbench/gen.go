package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sort"

	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/workloads"
)

// The generator turns (workload, seed) into grid definitions. Everything it
// emits is a pure function of its arguments: the same seed gives
// byte-identical definitions, so two runs on one seed simulate the same
// cells, and different seeds give different data seeds, sizes and core
// counts, so no run replays another's cache entries.

// Size picks between the full-size inputs the benchmark runs and tiny
// inputs its own tests use.
type Size int

const (
	Full Size = iota
	Tiny
)

// vectorKernels are the kernels whose n counts elements; matmul and lu take
// a matrix dimension instead.
var vectorKernels = []string{"mergesort", "mergesort-coarse", "quicksort", "spmv", "scan", "fft", "histogram", "hashjoin"}

func isMatrix(kernel string) bool { return kernel == "matmul" || kernel == "lu" }

// footprint is the simulated bytes a kernel's instance allocates at size n
// and the default grain of 2048 (workloads.Instance.Footprint, checked by
// TestFootprintMatchesBuild). The generator sizes datasets against L2 with
// it without building anything.
func footprint(kernel string, n int) int64 {
	m, blocks := int64(n), int64(n+2047)/2048
	switch kernel {
	case "spmv":
		return 112 * m
	case "fft":
		return 32 * m
	case "hashjoin":
		return 18*m + 8*(blocks+1)
	case "scan":
		return 16*m + 8*blocks
	case "matmul":
		return 24 * m * m
	case "lu":
		return 8 * m * m
	default: // mergesort, mergesort-coarse, quicksort, histogram
		return 16 * m
	}
}

// Job is one submission to the job service: the index of its definition
// in Inputs.Defs, whether that definition was submitted before, and
// whether every cell is cached by the time the job runs.
type Job struct {
	Def    int
	Repeat bool
	Cached bool
}

// Input is one grid definition with the facts the record reports about it.
type Input struct {
	Name   string
	Def    grid.Def
	Cells  int
	Exceed int // cells whose dataset is larger than their machine's L2
	Paired int // cells whose spec also runs under the other of pdf and ws
}

// Inputs is everything one workload run submits.
type Inputs struct {
	Workload string
	Seed     uint64
	Defs     []Input
	Jobs     []Job // service-mix only: the submission order
	Traced   int   // the traced run covers Defs[:Traced] (service-mix: Jobs[:Traced])
}

// Shares are the input properties later claims cite, each over cells (or,
// for repeats, over jobs).
func (in *Inputs) Shares() map[string]float64 {
	var cells, exceed, paired int
	add := func(d Input) { cells += d.Cells; exceed += d.Exceed; paired += d.Paired }
	if in.Jobs == nil {
		for _, d := range in.Defs {
			add(d)
		}
	} else {
		for _, j := range in.Jobs {
			add(in.Defs[j.Def])
		}
	}
	s := map[string]float64{
		"exceeds_l2":    float64(exceed) / float64(cells),
		"pdf_ws_paired": float64(paired) / float64(cells),
	}
	if in.Jobs != nil {
		rep := 0
		for _, j := range in.Jobs {
			if j.Repeat {
				rep++
			}
		}
		s["repeat_jobs"] = float64(rep) / float64(len(in.Jobs))
	}
	return s
}

// TracedDefs returns the indexes of the definitions the traced run covers,
// in definition order.
func (in *Inputs) TracedDefs() []int {
	var out []int
	if in.Jobs == nil {
		for i := 0; i < in.Traced; i++ {
			out = append(out, i)
		}
		return out
	}
	for _, j := range in.Jobs[:in.Traced] {
		if !j.Repeat {
			out = append(out, j.Def)
		}
	}
	return out
}

// Generate builds the inputs of the named workload.
func Generate(workload string, seed uint64, size Size) (*Inputs, error) {
	rng := rand.New(rand.NewPCG(seed, 0x5eed0f9e7c11))
	in := &Inputs{Workload: workload, Seed: seed}
	switch workload {
	case "cold-mix":
		genColdMix(in, rng, size)
	case "warm-fleet":
		genWarmFleet(in, rng, size)
	case "service-mix":
		genServiceMix(in, rng, size)
	default:
		return nil, fmt.Errorf("unknown workload %q (valid: cold-mix, warm-fleet, service-mix)", workload)
	}
	return in, nil
}

// newDef returns a definition whose CSV carries every simulated statistic
// of every cell, one row per cell.
func newDef(title string, dataSeed uint64) grid.Def {
	return grid.Def{
		Title:   title,
		Seed:    []uint64{dataSeed},
		Metrics: grid.MetricNames(),
		Rows:    []string{"workload", "config", "sched"},
	}
}

// finish counts a definition's cells and how many exceed their L2.
func finish(name string, d grid.Def) Input {
	in := Input{Name: name, Def: d}
	for _, c := range d.Cores {
		l2 := machine.Default(c).L2Size
		for _, k := range d.Workload {
			for _, n := range d.N {
				cells := len(d.Sched)
				in.Cells += cells
				if footprint(k, n) > l2 {
					in.Exceed += cells
				}
				if hasBoth(d.Sched) {
					in.Paired += cells
				}
			}
		}
	}
	return in
}

func hasBoth(scheds []string) bool {
	var pdf, ws bool
	for _, s := range scheds {
		pdf = pdf || s == "pdf"
		ws = ws || s == "ws"
	}
	return pdf && ws
}

// l2Classes groups core counts 1..16 by the L2 size of their default
// machine, smallest L2 first.
func l2Classes() [][]int {
	by := map[int64][]int{}
	for c := 1; c <= 16; c++ {
		l2 := machine.Default(c).L2Size
		by[l2] = append(by[l2], c)
	}
	sizes := make([]int64, 0, len(by))
	for s := range by {
		sizes = append(sizes, s)
	}
	sort.Slice(sizes, func(i, j int) bool { return sizes[i] < sizes[j] })
	out := make([][]int, len(sizes))
	for i, s := range sizes {
		out[i] = by[s]
	}
	return out
}

// vectorN returns the element count whose footprint is about ratio times
// l2: a multiple of 1024, or the nearest power of two for fft, which needs
// one, and for hashjoin, whose build panics (index out of range) when
// n/grain is not a power of two, e.g. `cmpsim -workload hashjoin -n 40960`.
func vectorN(kernel string, l2 int64, ratio float64) int {
	const big = 1 << 20 // large enough that per-instance overheads vanish
	target := ratio * float64(l2) * big / float64(footprint(kernel, big))
	if kernel == "fft" || kernel == "hashjoin" {
		return 1 << int(math.Round(math.Log2(target)))
	}
	return max(1024, int(target)/1024*1024)
}

// genColdMix draws one definition per kernel: a dataset that fits in the
// machine's L2 (about a quarter to half of it) and one about 2.25 to 2.75
// times larger (exactly 2 for the power-of-two kernels), on two core
// counts with that L2, under pdf and ws.
//
// Simulation cost grows with the dataset and the core count, so the draws
// are stratified to keep every seed's cost, and so cells_per_s, the same:
//   - Half the kernels always run with the smaller L2 and half with the
//     larger, in two fixed groups; fft, the costliest kernel per element,
//     is with the smaller.
//   - A definition's two core counts are antithetic: the i-th smallest and
//     i-th largest of its L2 class, so their cost sums to about the same
//     whichever pair the seed deals.
//   - The size ratios are spread evenly over their ranges before being
//     dealt to the kernels.
//
// The seed moves which kernel gets which core counts and sizes, and the data.
func genColdMix(in *Inputs, rng *rand.Rand, size Size) {
	classes := l2Classes()
	matrixN := map[string][]int{"matmul": {64, 128}, "lu": {64, 128, 192}}
	if size == Tiny {
		classes = [][]int{{2}, {2}}
		matrixN = map[string][]int{"matmul": {32, 64}, "lu": {32, 64}}
	}
	small := map[string]bool{"fft": true, "mergesort": true, "spmv": true, "lu": true, "scan": true}
	kernels := workloads.Names()
	fit, exceed := spread(rng, 0.25, 0.5, len(kernels)), spread(rng, 2.25, 2.75, len(kernels))
	for ci, class := range classes[:2] {
		pairs := antithetic(class)
		dealt := rng.Perm(len(kernels))
		for ki, k := range kernels {
			if small[k] != (ci == 0) {
				continue
			}
			cores := pairs[dealt[ki]%len(pairs)]
			l2 := machine.Default(cores[0]).L2Size
			var ns []int
			switch {
			case isMatrix(k):
				opts := matrixN[k]
				i := rng.IntN(len(opts) - 1)
				ns = []int{opts[i], opts[i+1+rng.IntN(len(opts)-1-i)]}
			case size == Tiny:
				ns = []int{4096, 8192}
			default:
				ns = []int{vectorN(k, l2, fit[ki]), vectorN(k, l2, exceed[ki])}
			}
			d := newDef(fmt.Sprintf("cold-mix %s on %v cores", k, cores), rng.Uint64())
			d.Workload = []string{k}
			d.N = ns
			d.Cores = cores
			d.Sched = []string{"pdf", "ws"}
			in.Defs = append(in.Defs, finish(fmt.Sprintf("c%d-%s", ci, k), d))
		}
		if ci == 0 {
			in.Traced = len(in.Defs)
		}
	}
}

// antithetic pairs the i-th smallest core count of a class with the i-th
// largest.
func antithetic(class []int) [][]int {
	var out [][]int
	for i, j := 0, len(class)-1; i <= j; i, j = i+1, j-1 {
		if i == j {
			out = append(out, []int{class[i]})
		} else {
			out = append(out, []int{class[i], class[j]})
		}
	}
	return out
}

// spread returns k values in [lo, hi), one from each of k equal bins, in a
// seeded order.
func spread(rng *rand.Rand, lo, hi float64, k int) []float64 {
	out := make([]float64, k)
	for i, j := range rng.Perm(k) {
		out[i] = lo + (hi-lo)*(float64(j)+rng.Float64())/float64(k)
	}
	return out
}

// pick returns k distinct values of from, in their original order.
func pick[T any](rng *rand.Rand, from []T, k int) []T {
	idx := rng.Perm(len(from))[:k]
	sort.Ints(idx)
	out := make([]T, k)
	for i, j := range idx {
		out[i] = from[j]
	}
	return out
}

func coreRange() []int {
	out := make([]int, 16)
	for i := range out {
		out[i] = i + 1
	}
	return out
}

// genWarmFleet draws one definition of 128 small cells: the 8 vector
// kernels, 2 sizes, 4 core counts, pdf and ws. What the warm-up sweep, the
// workload's set-up, costs is set by the kernels, sizes and core counts,
// so every seed has all the kernels, the same sizes, and two antithetic
// pairs of core counts, whose sum is the same whichever the seed deals.
func genWarmFleet(in *Inputs, rng *rand.Rand, size Size) {
	ns, kernels, pairs := []int{2048, 8192}, vectorKernels, 2
	if size == Tiny {
		ns, kernels, pairs = []int{1024, 2048}, vectorKernels[:2], 1
	}
	d := newDef("warm-fleet", rng.Uint64())
	d.Workload = kernels
	d.N = ns
	for _, p := range pick(rng, antithetic(coreRange()), pairs) {
		d.Cores = append(d.Cores, p...)
	}
	slices.Sort(d.Cores)
	d.Sched = []string{"pdf", "ws"}
	in.Defs = []Input{finish("fleet", d)}
	in.Traced = 1
}

// genServiceMix draws the submission sequence: in every block of four jobs
// two are new definitions and two repeat an earlier one (the first job is
// always new). A new definition is one kernel at two small sizes on two to
// four core counts, 8 to 16 cells, with its own data seed, so none of its
// cells is cached; a repeat's cells all are. Cell cost differs by kernel
// and size far more than by anything else, so kernels, size pairs, core
// counts and shapes are dealt from decks: every stretch of new jobs has the
// same mix, and so every seed the same cost per cell.
func genServiceMix(in *Inputs, rng *rand.Rand, size Size) {
	jobs, traced := 1000, 12
	ns := [][]int{{4096, 8192}, {4096, 16384}, {8192, 16384}}
	if size == Tiny {
		jobs, traced = 8, 4
		ns = [][]int{{1024, 2048}}
	}
	type shape struct {
		cores  int
		scheds []string
	}
	shapes := []shape{{2, []string{"pdf", "ws"}}, {3, []string{"pdf", "ws"}}, {4, []string{"pdf", "ws"}}, {4, []string{"pdf"}}, {4, []string{"ws"}}}
	if size == Tiny {
		shapes = []shape{{1, []string{"pdf", "ws"}}}
	}
	kernels, sizes, forms, cores := newDeck(rng, vectorKernels), newDeck(rng, ns), newDeck(rng, shapes), newDeck(rng, coreRange())
	newDefn := func() {
		d := newDef(fmt.Sprintf("service-mix job %d", len(in.Defs)), rng.Uint64())
		f := forms.draw()
		d.Workload = []string{kernels.draw()}
		d.N = sizes.draw()
		for len(d.Cores) < f.cores {
			if c := cores.draw(); !slices.Contains(d.Cores, c) {
				d.Cores = append(d.Cores, c)
			}
		}
		slices.Sort(d.Cores)
		d.Sched = f.scheds
		in.Jobs = append(in.Jobs, Job{Def: len(in.Defs)})
		in.Defs = append(in.Defs, finish(fmt.Sprintf("j%03d", len(in.Defs)), d))
	}
	for len(in.Jobs) < jobs {
		block := []bool{false, false, true, true}
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, repeat := range block {
			if repeat && len(in.Defs) > 0 {
				in.Jobs = append(in.Jobs, Job{Def: rng.IntN(len(in.Defs)), Repeat: true, Cached: true})
			} else {
				newDefn()
			}
		}
	}
	in.Jobs = in.Jobs[:jobs]
	in.Traced = traced
}

// deck deals its values in seeded order, every value once per round.
type deck[T any] struct {
	rng  *rand.Rand
	from []T
	left []T
}

func newDeck[T any](rng *rand.Rand, from []T) *deck[T] { return &deck[T]{rng: rng, from: from} }

func (d *deck[T]) draw() T {
	if len(d.left) == 0 {
		d.left = make([]T, len(d.from))
		for i, j := range d.rng.Perm(len(d.from)) {
			d.left[i] = d.from[j]
		}
	}
	x := d.left[0]
	d.left = d.left[1:]
	return x
}
