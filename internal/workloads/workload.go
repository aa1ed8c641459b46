// Package workloads generates the benchmark computations the paper's
// evaluation runs: fine-grained divide-and-conquer programs (parallel merge
// sort — Figure 1 — plus quicksort, FFT, LU, and recursive matrix multiply),
// bandwidth-limited irregular programs (sparse matrix-vector iteration,
// clustered histogram), streaming programs with little reuse (parallel
// prefix scan), and deliberately coarse-grained SMP-style variants of the
// same computations (the paper's Finding 3).
//
// Every workload builds a dag.Graph whose tasks execute the genuine
// algorithm on live data while recording simulated memory references, so
// the reference streams the cache hierarchy sees are authentic.
//
// # Kernel contract
//
// The simulator does not run a task's closure to completion at dispatch.
// It records the stream in fixed-size chunks, suspending the closure each
// time its buffer fills and resuming it once the chunk is replayed (see
// internal/sim), so the closures of concurrent tasks interleave at chunk
// boundaries. DAG edges make a task's inputs final before it starts, but
// nothing orders two concurrent tasks. Hence the rule for a kernel:
//
//	A task's writes to data that a concurrent task also touches must
//	land before it records anything, or be a single Int64s.Add.
//
// A write made later could be seen, or lost, by the other task depending
// on where the chunk boundaries fall, and with it the data, the addresses
// that depend on the data, and Verify. Histogram's bucket increments use
// Add, which updates the data before it records the load and store; each
// hashjoin build task makes all its inserts into the shared table on the
// host data first, then records the same probe loads and stores.
//
// # Instance lifecycle
//
// An Instance separates immutable identity from mutable run state. The
// graph, the address layout, and the build-time snapshot of every simulated
// array are fixed at Build (the space is frozen); only the array contents
// mutate during a simulated run. The lifecycle is build → run → Reset → run
// …: BeginRun marks an instance in use (and panics on a second run without
// an intervening Reset — the misuse guard), Reset restores every simulated
// array to its build-time bytes at memcpy speed, re-arming both the data
// and Verify. Equal Specs still build identical instances, so a reset
// instance is indistinguishable from a fresh build — the property Pool
// (pool.go) exploits to share one build across scheduler arms.
package workloads

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/dag"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Spec names a workload and its parameters. Equal Specs build identical
// instances (all randomness derives from Seed).
type Spec struct {
	Name    string
	N       int    // problem size: elements, keys, or matrix dimension
	Grain   int    // target task granularity, in elements (leaf size)
	Iters   int    // iteration count for iterative workloads (spmv)
	Seed    uint64 // data-generation seed
	SpaceID uint8  // address space (multiprogramming experiments co-run spaces)
}

// String implements fmt.Stringer. Like Fingerprint it covers every field:
// multiprogramming arms differ only in SpaceID, and omitting it would make
// distinct address spaces render identically in labels and diagnostics.
func (s Spec) String() string {
	return fmt.Sprintf("%s(n=%d,grain=%d,iters=%d,seed=%d,space=%d)",
		s.Name, s.N, s.Grain, s.Iters, s.Seed, s.SpaceID)
}

// Fingerprint returns a canonical, self-describing encoding of every field —
// the workload half of a simulation cell's identity, consumed by the result
// cache (internal/rcache). Equal fingerprints build identical instances
// (Build derives all randomness from Seed). Every field must appear here:
// TestSpecFingerprintCoversEveryField perturbs each struct field by
// reflection and fails if the fingerprint does not change, so adding a Spec
// field without extending this method cannot silently alias cache entries.
func (s Spec) Fingerprint() string {
	return fmt.Sprintf("workloads.Spec{Name=%q N=%d Grain=%d Iters=%d Seed=%d SpaceID=%d}",
		s.Name, s.N, s.Grain, s.Iters, s.Seed, s.SpaceID)
}

// Instance is a ready-to-simulate workload: a frozen DAG over allocated
// simulated arrays, plus a functional-correctness check to run afterwards.
// Graph, Space layout, and the space's frozen snapshot are immutable; the
// array contents are the only mutable run state, and Reset restores them.
// An Instance is exclusively owned while in use — its methods are not safe
// for concurrent use on one instance.
type Instance struct {
	Spec   Spec
	Graph  *dag.Graph
	Space  *mem.Space
	Verify func() error

	// runs counts simulated runs since build or the last Reset. BeginRun
	// uses it to guard against re-running an instance on dirty data.
	runs int
}

// Footprint returns the instance's total allocated bytes.
func (in *Instance) Footprint() uint64 { return in.Space.Footprint() }

// Armed reports whether the instance's simulated arrays hold their
// build-time contents (no run since build or the last Reset).
func (in *Instance) Armed() bool { return in.runs == 0 }

// BeginRun marks the start of one simulated execution of the instance's
// graph. It panics if the instance has already been run without an
// intervening Reset: a second run would execute over mutated data, silently
// computing — and verifying — garbage.
func (in *Instance) BeginRun() {
	if in.runs != 0 {
		panic(fmt.Sprintf("workloads: %v re-run without Reset (runs=%d) — data is no longer the build-time input", in.Spec, in.runs))
	}
	in.runs++
}

// Reset restores every simulated array to its build-time contents,
// re-arming the instance (and its Verify) for another run. Resetting an
// armed instance is a no-op.
func (in *Instance) Reset() {
	if in.runs == 0 {
		return
	}
	in.Space.Reset()
	in.runs = 0
}

// builds and buildNanos count Build calls and their total wall time —
// the cold-sweep benchmarks read them to show how much construction work
// the instance pool saves.
var (
	builds     atomic.Int64
	buildNanos atomic.Int64
)

// BuildCount returns the number of Build calls so far in this process and
// the total nanoseconds they took.
func BuildCount() (n, nanos int64) { return builds.Load(), buildNanos.Load() }

// Validate is the error-returning gate for user-supplied specs (cmpsim
// flags, sweep grids): a known name, positive N and Grain, non-negative
// Iters. Build still panics on violations — experiment-table specs are
// trusted; user input goes through here first, mirroring core.Lookup.
func (s Spec) Validate() error {
	names := Names()
	found := false
	for _, n := range names {
		if n == s.Name {
			found = true
			break
		}
	}
	if !found {
		return fmt.Errorf("workloads: unknown workload %q (valid: %s)", s.Name, strings.Join(names, ", "))
	}
	if s.N <= 0 {
		return fmt.Errorf("workloads: %s: n must be positive, got %d", s.Name, s.N)
	}
	if s.Grain <= 0 {
		return fmt.Errorf("workloads: %s: grain must be positive, got %d", s.Name, s.Grain)
	}
	if s.Iters < 0 {
		return fmt.Errorf("workloads: %s: iters must be non-negative, got %d", s.Name, s.Iters)
	}
	return shapeErr(s)
}

// shapeErr returns the per-workload shape constraint s violates, if any.
// This is the single source of those constraints: Build panics on it (its
// callers are trusted), Spec.Validate returns it (user input), so a spec
// that validates can never panic the builder.
func shapeErr(s Spec) error {
	switch s.Name {
	case "fft":
		if s.N < 2 || s.N&(s.N-1) != 0 {
			return fmt.Errorf("workloads: fft N=%d must be a power of two >= 2", s.N)
		}
	case "matmul":
		if s.N&(s.N-1) != 0 {
			return fmt.Errorf("workloads: matmul N=%d must be a power of two", s.N)
		}
	case "lu":
		b := leafDim(s.Grain)
		if b > s.N {
			b = s.N
		}
		if s.N%b != 0 {
			return fmt.Errorf("workloads: lu N=%d not divisible by tile %d", s.N, b)
		}
	}
	return nil
}

// Build constructs the named workload. It panics on unknown names or
// malformed parameters — Specs are experiment-table input, not user input
// (callers with user input validate with Spec.Validate first).
func Build(s Spec) *Instance {
	// Wall time is read through obs.Clock, the sanctioned telemetry clock:
	// it feeds only BuildCount/benchmark reporting, never simulation state,
	// output tables, or cache keys.
	start := obs.Now()
	in := build(s)
	// Freeze captures the build-time bytes of every simulated array; Reset
	// restores them, making the instance multi-run.
	in.Space.Freeze()
	builds.Add(1)
	buildNanos.Add(obs.Since(start).Nanoseconds())
	return in
}

func build(s Spec) *Instance {
	if s.N <= 0 {
		panic(fmt.Sprintf("workloads: %v has non-positive N", s))
	}
	if s.Grain <= 0 {
		s.Grain = 1024
	}
	if err := shapeErr(s); err != nil {
		panic(err.Error())
	}
	switch s.Name {
	case "mergesort":
		return buildMergesort(s, false)
	case "mergesort-coarse":
		return buildMergesort(s, true)
	case "quicksort":
		return buildQuicksort(s)
	case "matmul":
		return buildMatmul(s)
	case "spmv":
		return buildSpMV(s)
	case "scan":
		return buildScan(s)
	case "fft":
		return buildFFT(s)
	case "lu":
		return buildLU(s)
	case "histogram":
		return buildHistogram(s)
	case "hashjoin":
		return buildHashJoin(s)
	default:
		panic("workloads: unknown workload " + s.Name)
	}
}

// Names lists the available workloads in a stable order.
func Names() []string {
	return []string{
		"mergesort", "mergesort-coarse", "quicksort", "matmul",
		"spmv", "scan", "fft", "lu", "histogram", "hashjoin",
	}
}

// ---------------------------------------------------------------------------
// Shared recorded kernels

// recordedLeafSort sorts data's live values, recording an authentic
// bottom-up merge sort that ping-pongs between data and scratch (two equal-
// length simulated segments). The sorted result is left in data, or in
// scratch when intoScratch is set; a final recorded copy pass fixes the
// parity when needed, exactly as a real implementation would.
func recordedLeafSort(r *trace.Recorder, data, scratch trace.Int64s, intoScratch bool) {
	n := data.Len()
	dst := data
	if intoScratch {
		dst = scratch
	}
	if n == 0 {
		return
	}
	if n == 1 {
		if intoScratch {
			scratch.Set(r, 0, data.Get(r, 0))
		}
		return
	}
	cur, other := data, scratch
	for width := 1; width < n; width *= 2 {
		for lo := 0; lo < n; lo += 2 * width {
			mid := min(lo+width, n)
			hi := min(lo+2*width, n)
			recordedMergeRun(r, cur, other, lo, mid, hi)
		}
		cur, other = other, cur
	}
	if cur.Base != dst.Base {
		// Result landed in the wrong buffer; one recorded copy pass.
		for i := 0; i < n; i++ {
			dst.Set(r, i, cur.Get(r, i))
		}
	}
}

// recordedMergeRun merges cur[lo:mid) and cur[mid:hi) into other[lo:hi),
// recording every comparison's loads and every store.
func recordedMergeRun(r *trace.Recorder, cur, other trace.Int64s, lo, mid, hi int) {
	i, j := lo, mid
	for k := lo; k < hi; k++ {
		var v int64
		switch {
		case i >= mid:
			v = cur.Get(r, j)
			j++
		case j >= hi:
			v = cur.Get(r, i)
			i++
		default:
			a := cur.Get(r, i)
			b := cur.Get(r, j)
			r.Compute(1)
			if a <= b {
				v = a
				i++
			} else {
				v = b
				j++
			}
		}
		other.Set(r, k, v)
		r.Compute(1)
	}
}

// corank finds the split (i, j) with i+j = k such that merging a[:i] and
// b[:j] yields the first k outputs of merge(a, b), recording the binary
// search's probe loads. Standard parallel-merge co-ranking.
func corank(r *trace.Recorder, k int, a, b trace.Int64s) (int, int) {
	lo := max(0, k-b.Len())
	hi := min(k, a.Len())
	for lo < hi {
		i := (lo + hi) / 2
		j := k - i
		// Valid split: (i==0 || j==lenB || a[i-1] <= b[j]) and
		// (j==0 || i==lenA || b[j-1] < a[i]), matching the stable
		// merge's take-from-a-on-ties rule.
		r.Compute(2)
		if j > 0 && i < a.Len() && a.Get(r, i) <= b.Get(r, j-1) {
			lo = i + 1
		} else if i > 0 && j < b.Len() && b.Get(r, j) < a.Get(r, i-1) {
			hi = i - 1
		} else {
			return i, j
		}
	}
	return lo, k - lo
}

// recordedMergeSegment merges the output range [k0, k1) of merge(a, b) into
// out[k0:k1), co-ranking both endpoints first. This is the task body of the
// fine-grained parallel merge.
func recordedMergeSegment(r *trace.Recorder, a, b, out trace.Int64s, k0, k1 int) {
	i0, j0 := corank(r, k0, a, b)
	i1, j1 := corank(r, k1, a, b)
	i, j := i0, j0
	for k := k0; k < k1; k++ {
		var v int64
		switch {
		case i >= i1:
			v = b.Get(r, j)
			j++
		case j >= j1:
			v = a.Get(r, i)
			i++
		default:
			av := a.Get(r, i)
			bv := b.Get(r, j)
			r.Compute(1)
			if av <= bv {
				v = av
				i++
			} else {
				v = bv
				j++
			}
		}
		out.Set(r, k, v)
		r.Compute(1)
	}
}

// verifySorted checks that got is a sorted permutation of want (consumed by
// sorting a copy).
func verifySorted(name string, got []int64, want []int64) error {
	ref := append([]int64(nil), want...)
	sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })
	if len(got) != len(ref) {
		return fmt.Errorf("%s: length %d, want %d", name, len(got), len(ref))
	}
	for i := range ref {
		if got[i] != ref[i] {
			return fmt.Errorf("%s: element %d = %d, want %d", name, i, got[i], ref[i])
		}
	}
	return nil
}

// spawnTree builds the binary spawn tree a Cilk-style `parallel for` emits:
// the range [lo, hi) splits recursively down to spans of at most leafSpan,
// with leaf(lo, hi) creating each leaf task node. Left-to-right order fixes
// the 1DF numbering to the sequential iteration order.
//
// This structure (rather than a flat fan-out) is essential to reproducing
// the schedulers' divergence: with a flat fan-out, WS thieves drain one
// deque oldest-first and end up on ADJACENT blocks — accidentally sharing
// constructively, which no fine-grained runtime of the paper's era actually
// did. With the spawn tree, a thief steals a distant subtree, exactly the
// disjoint-working-set behavior the paper describes. Returns the subtree's
// exit (join) node.
func spawnTree(g *dag.Graph, parent *dag.Node, lo, hi, leafSpan int, leaf func(lo, hi int) *dag.Node) *dag.Node {
	if hi-lo <= leafSpan {
		n := leaf(lo, hi)
		g.AddEdge(parent, n)
		return n
	}
	mid := lo + (hi-lo)/2
	split := g.AddNode("spawn", nil)
	g.AddEdge(parent, split)
	le := spawnTree(g, split, lo, mid, leafSpan, leaf)
	re := spawnTree(g, split, mid, hi, leafSpan, leaf)
	join := g.AddNode("sync", nil)
	g.AddEdge(le, join)
	g.AddEdge(re, join)
	return join
}

// splitRange is one leaf span of a spawnTree.
type splitRange struct{ lo, hi int }

// splitRanges returns, in left-to-right order, exactly the leaf ranges
// spawnTree(…, lo, hi, leafSpan, …) will create. Workloads that need a
// per-leaf side array (e.g. scan's block sums) size and index it with this.
func splitRanges(lo, hi, leafSpan int) []splitRange {
	if hi-lo <= leafSpan {
		return []splitRange{{lo, hi}}
	}
	mid := lo + (hi-lo)/2
	return append(splitRanges(lo, mid, leafSpan), splitRanges(mid, hi, leafSpan)...)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
