package sim

// Differential testing of the optimized engine against a stepwise reference.
//
// RunUntil earns its speed from four semantic claims: the calendar wheel
// pops events in exactly the stepwise (time, core-id) lexicographic order;
// fusing an action run into one pop never reorders operations on shared
// cache/bus state; applying a memory action's Post cycles inside the same
// pop (or owing them past a limit) matches running them as their own event;
// and the pre-split AccessLine path is Access exactly. The
// reference implementation below keeps the simple invariants — one global
// min-scan per event, one action per event (a memory action's folded Post
// cycles are an event of their own), Hierarchy.Access for every memory
// action, no wheel, no fusion — and the tests here drive both
// implementations over seeded-random DAGs, schedulers, core counts, and
// quantum sizes, demanding identical cycles, instruction counts, cache and
// bus statistics, and completion order.

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/xprng"
)

// refRunUntil advances e with stepwise reference semantics: select the core
// with the minimum next-event time (ties to the lowest core id), process
// exactly one event, repeat. It shares dispatch/complete and the cache
// hierarchy with the real engine — the machinery under test is only event
// selection, action fusion, Post folding, and the access fast path.
func refRunUntil(e *Engine, limit int64) {
	for !e.Done() {
		c := 0
		min := e.nextAt[0]
		for i := 1; i < len(e.nextAt); i++ {
			if e.nextAt[i] < min {
				min, c = e.nextAt[i], i
			}
		}
		if min >= limit {
			e.now = limit
			return
		}
		e.now = min
		cs := &e.cores[c]
		switch {
		case cs.task == nil:
			e.dispatch(c)
		case cs.owed != 0:
			// A memory action's Post cycles are their own event, popped at
			// the access's completion time — the semantics of the unfolded
			// stream, where they were a separate Compute action.
			done := e.now + int64(cs.owed)
			e.instructions += int64(cs.owed)
			cs.owed = 0
			cs.busy += done - e.now
			e.nextAt[c] = done
		case cs.ip < len(cs.actions):
			a := cs.actions[cs.ip]
			cs.ip++
			var done int64
			if a.Kind == trace.Compute {
				done = e.now + int64(a.N)
				e.instructions += int64(a.N)
			} else {
				done = e.hier.Access(c, a.Addr, int(a.N), a.Kind == trace.Store, e.now)
				e.instructions++
				cs.owed = a.Post
			}
			cs.busy += done - e.now
			e.nextAt[c] = done
		default:
			e.complete(c)
		}
	}
}

func refRunFor(e *Engine, delta int64) { refRunUntil(e, e.now+delta) }

func refRun(e *Engine) {
	refRunUntil(e, hardLimit)
	if !e.Done() {
		panic("reference engine hit the hard limit")
	}
}

// hierState renders every observable counter of a hierarchy, so a
// differential mismatch pinpoints the diverging statistic.
func hierState(h *cache.Hierarchy, cores int) string {
	var b strings.Builder
	for c := 0; c < cores; c++ {
		fmt.Fprintf(&b, "L1.%d %+v\n", c, h.L1(c).Stats)
	}
	fmt.Fprintf(&b, "L2 %+v\noffchip %d transfers %d bytes\nbus queue %d",
		h.L2().Stats, h.OffchipTransfers, h.OffchipBytes, h.Bus().QueueCycles)
	return b.String()
}

// memHeavyGraph is randomGraph's cache-hostile sibling: a larger shared
// array (too big for one L1) with strided reads and writes, so the
// differential runs exercise L1 misses, L2 misses, dirty evictions, and
// cross-core coherence (upgrades, downgrades, invalidations), not just the
// hit path.
func memHeavyGraph(rng *xprng.PRNG, depth int) *dag.Graph {
	g := dag.New()
	sp := mem.NewSpace(0)
	arr := trace.NewInt64s(sp, "shared", 1<<15)
	root := g.AddNode("root", nil)
	var build func(parent *dag.Node, d int) *dag.Node
	build = func(parent *dag.Node, d int) *dag.Node {
		if d == 0 || rng.Intn(3) == 0 {
			base := rng.Intn(1 << 14)
			stride := []int{1, 9, 64, 129}[rng.Intn(4)]
			leaf := g.AddNode("leaf", func(r *trace.Recorder) {
				idx := base
				for i := 0; i < 48; i++ {
					idx = (idx + stride) % (1 << 15)
					v := arr.Get(r, idx)
					arr.Set(r, idx, v+1)
					if i%8 == 0 {
						r.Compute(5)
					}
				}
			})
			g.AddEdge(parent, leaf)
			return leaf
		}
		join := g.AddNode("join", nil)
		k := rng.Intn(3) + 2
		for i := 0; i < k; i++ {
			c := g.AddNode("mid", computeTask(rng.Intn(150)+1))
			g.AddEdge(parent, c)
			end := build(c, d-1)
			g.AddEdge(end, join)
		}
		return join
	}
	build(root, depth)
	g.MustFreeze()
	return g
}

func schedByIndex(i int, o core.Overheads, seed uint64) core.Scheduler {
	return core.ByName([]string{"pdf", "ws", "ws-stealnewest", "fifo"}[i], o, seed)
}

var schedNames = []string{"pdf", "ws", "ws-stealnewest", "fifo"}

// comparePair runs the same (graph seed, scheduler, cores) cell through the
// optimized engine and the reference, then compares every observable.
func comparePair(t *testing.T, label string, mkGraph func(*xprng.PRNG, int) *dag.Graph, seed uint64, schedIdx, cores, depth int, drive func(real, ref *Engine)) {
	t.Helper()
	cfg := testConfig(cores)
	o := overheadsOf(cfg)

	real := New(cfg, mkGraph(xprng.New(seed), depth), schedByIndex(schedIdx, o, seed), nil)
	real.CaptureOrder = true
	ref := New(cfg, mkGraph(xprng.New(seed), depth), schedByIndex(schedIdx, o, seed), nil)
	ref.CaptureOrder = true

	drive(real, ref)

	rr, fr := real.Result(), ref.Result()
	if rr != fr {
		t.Fatalf("%s: results diverged\nreal %+v\nref  %+v", label, rr, fr)
	}
	if real.Now() != ref.Now() {
		t.Fatalf("%s: clocks diverged: real %d ref %d", label, real.Now(), ref.Now())
	}
	if len(real.Order) != len(ref.Order) {
		t.Fatalf("%s: completion counts diverged: real %d ref %d", label, len(real.Order), len(ref.Order))
	}
	for i := range real.Order {
		if real.Order[i] != ref.Order[i] {
			t.Fatalf("%s: completion order diverged at %d: real %v ref %v", label, i, real.Order[i], ref.Order[i])
		}
	}
	if rs, fs := hierState(real.Hierarchy(), cores), hierState(ref.Hierarchy(), cores); rs != fs {
		t.Fatalf("%s: cache state diverged\nreal:\n%s\nref:\n%s", label, rs, fs)
	}
}

// TestEngineMatchesReference drives full runs over the cross product of
// graph shapes, schedulers, core counts, and seeds.
func TestEngineMatchesReference(t *testing.T) {
	graphs := map[string]func(*xprng.PRNG, int) *dag.Graph{
		"random":   randomGraph,
		"memheavy": memHeavyGraph,
	}
	for gname, mk := range graphs {
		for schedIdx := range schedNames {
			for _, cores := range []int{1, 2, 3, 8} {
				for seed := uint64(1); seed <= 3; seed++ {
					label := fmt.Sprintf("%s/%s/cores=%d/seed=%d", gname, schedNames[schedIdx], cores, seed)
					comparePair(t, label, mk, seed, schedIdx, cores, 5, func(real, ref *Engine) {
						real.RunUntil(hardLimit)
						refRun(ref)
					})
				}
			}
		}
	}
}

// TestEngineMatchesReferenceChunked re-runs the differential with RunFor
// quanta, comparing clock and instruction counts at every quantum boundary —
// the regression class where a fused or batched event slips past the limit
// that stepwise execution would have honored.
func TestEngineMatchesReferenceChunked(t *testing.T) {
	for _, quantum := range []int64{1, 7, 137, 4099} {
		for schedIdx := range schedNames {
			label := fmt.Sprintf("%s/q=%d", schedNames[schedIdx], quantum)
			comparePair(t, label, memHeavyGraph, 11, schedIdx, 4, 4, func(real, ref *Engine) {
				for !real.Done() || !ref.Done() {
					real.RunFor(quantum)
					refRunFor(ref, quantum)
					if real.Now() != ref.Now() {
						t.Fatalf("%s: clocks diverged mid-run: real %d ref %d", label, real.Now(), ref.Now())
					}
					if real.Instructions() != ref.Instructions() {
						t.Fatalf("%s: instructions diverged at cycle %d: real %d ref %d",
							label, real.Now(), real.Instructions(), ref.Instructions())
					}
				}
			})
		}
	}
}

// TestEngineMatchesReferenceOwedPost stops runs between a memory access and
// its folded Post cycles: the access completes at or past the RunFor limit,
// so the engine owes the Post to the core's next pop while the reference
// holds it as a pending event of its own. At every quantum boundary the two
// must agree on the clock and on the whole result record (instructions and
// busy cycles included), and the test insists that boundaries with owed
// cycles actually occurred, so the path cannot go unexercised.
func TestEngineMatchesReferenceOwedPost(t *testing.T) {
	for _, quantum := range []int64{1, 5, 37} {
		for _, cores := range []int{1, 3} {
			label := fmt.Sprintf("q=%d/cores=%d", quantum, cores)
			owedStops := 0
			comparePair(t, label, memHeavyGraph, 5, 1, cores, 3, func(real, ref *Engine) {
				for !real.Done() || !ref.Done() {
					real.RunFor(quantum)
					refRunFor(ref, quantum)
					for i := range real.cores {
						if real.cores[i].owed != 0 {
							owedStops++
						}
					}
					if real.Now() != ref.Now() {
						t.Fatalf("%s: clocks diverged mid-run: real %d ref %d", label, real.Now(), ref.Now())
					}
					if rr, fr := real.Result(), ref.Result(); rr != fr {
						t.Fatalf("%s: results diverged at cycle %d\nreal %+v\nref  %+v", label, real.Now(), rr, fr)
					}
				}
			})
			if owedStops == 0 {
				t.Fatalf("%s: no quantum boundary fell between an access and its Post", label)
			}
		}
	}
}

// TestEngineMatchesReferenceSharedHierarchy is the multiprogramming shape:
// two engines time-slicing one cache hierarchy. Quantum boundaries land in
// the middle of fused runs and the wheel window, and every interleaving
// error shows up as a cache-stat or clock divergence.
func TestEngineMatchesReferenceSharedHierarchy(t *testing.T) {
	const quantum = 131
	cfg := testConfig(4)
	o := overheadsOf(cfg)

	mk := func(step func(*Engine, int64)) (func() bool, *cache.Hierarchy, *Engine, *Engine) {
		a := New(cfg, memHeavyGraph(xprng.New(21), 4), core.NewPDF(o), nil)
		b := New(cfg, randomGraph(xprng.New(22), 4), core.NewWS(o, 5), a.Hierarchy())
		tick := func() bool {
			if !a.Done() {
				step(a, quantum)
			}
			if !b.Done() {
				step(b, quantum)
			}
			return a.Done() && b.Done()
		}
		return tick, a.Hierarchy(), a, b
	}

	realTick, realHier, realA, realB := mk((*Engine).RunFor)
	refTick, refHier, refA, refB := mk(refRunFor)

	for done := false; !done; {
		done = realTick()
		if refDone := refTick(); refDone != done {
			t.Fatal("real and reference multiprogram runs finished on different ticks")
		}
		if realA.Now() != refA.Now() || realB.Now() != refB.Now() {
			t.Fatalf("clocks diverged: real A=%d B=%d, ref A=%d B=%d",
				realA.Now(), realB.Now(), refA.Now(), refB.Now())
		}
	}
	if ra, fa := realA.Result(), refA.Result(); ra != fa {
		t.Fatalf("program A diverged\nreal %+v\nref  %+v", ra, fa)
	}
	if rb, fb := realB.Result(), refB.Result(); rb != fb {
		t.Fatalf("program B diverged\nreal %+v\nref  %+v", rb, fb)
	}
	if rs, fs := hierState(realHier, cfg.Cores), hierState(refHier, cfg.Cores); rs != fs {
		t.Fatalf("shared cache state diverged\nreal:\n%s\nref:\n%s", rs, fs)
	}
}
