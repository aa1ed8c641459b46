// Package sim is the deterministic, cycle-driven CMP simulation engine.
//
// The engine executes a frozen computation DAG on N simulated in-order
// cores that share a cache.Hierarchy, dispatching ready tasks through a
// core.Scheduler. Everything runs on one goroutine in strict cycle order
// (ties broken by core id), so a given (workload, scheduler, configuration,
// seed) tuple always produces the identical cycle count, miss counts, and
// execution order — on any machine. This is how the reproduction sidesteps
// the host Go runtime entirely: the paper's "threads" are simulated tasks,
// never goroutines.
//
// Task execution uses record-then-replay (see internal/trace): at dispatch,
// the task's closure runs the real algorithm and records its reference
// stream; the engine then replays the stream action by action, charging
// cache and bus latencies. DAG edges guarantee input data is final before a
// task records, so recording at dispatch is exact.
package sim

import (
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// hardLimit aborts runs that exceed a trillion cycles — a deadlock guard;
// no experiment in the suite comes within orders of magnitude of it.
const hardLimit = int64(1) << 40

// coreState is one simulated processor. Its next-event time lives in the
// engine's dense nextAt array, not here: the event-selection scan reads one
// word per core, and packing those words into a single cache line (for ≤ 8
// cores) makes the scan all but free, where striding full coreState structs
// cost a host-cache miss per core per scan. Hot replay fields lead.
//
// owed holds the Post cycles of an access that ended at or past a RunUntil
// limit: stepwise execution would run them as their own event at the
// access's completion time, after the limit, so the core's next pop spends
// them before anything else. Instructions() and busy cycles then agree with
// stepwise execution at every RunFor boundary.
type coreState struct {
	task      *dag.Node
	actions   []trace.Action
	ip        int
	owed      uint16
	busy      int64
	taskStart int64 // dispatch cycle of the current task (timeline capture)
	rec       trace.Recorder
}

// Engine drives one program (one DAG) over a hierarchy. Multiprogramming
// experiments create several engines sharing one Hierarchy and alternate
// RunFor quanta.
type Engine struct {
	cfg   machine.Config
	g     *dag.Graph
	sched core.Scheduler
	hier  *cache.Hierarchy

	cores   []coreState
	nextAt  []int64 // per-core next event time, dense for the refill scan
	pending []int32
	done    int
	now     int64

	// Calendar wheel for event selection (see RunUntil). wheel[s] is the
	// bitmask of cores whose next event is at cycle wheelBase+s; wheelOcc
	// marks non-empty slots. Persistent across RunUntil calls so RunFor
	// quanta resume mid-window.
	wheel     [wheelSlots]uint64
	wheelOcc  uint64
	wheelBase int64

	// Premature-node tracking (depth-first fidelity).
	doneByDF     []bool
	frontier     int
	outOfOrder   int
	maxPremature int

	// Aggregate counters.
	instructions int64
	idleCycles   int64
	dispatchCyc  int64

	// CaptureOrder, when set before Run, records the completion order for
	// schedule-validity checks in tests.
	CaptureOrder bool
	Order        []dag.NodeID

	// CaptureTimeline, when set before Run, records one Span per executed
	// task — enough to reconstruct the whole schedule as a Gantt chart
	// (cmd/cmpsim -timeline emits it as CSV).
	CaptureTimeline bool
	Timeline        []Span
}

// Span is one task execution on one core.
type Span struct {
	Node  dag.NodeID
	Core  int
	Start int64 // dispatch cycle
	End   int64 // completion cycle
}

// New prepares an engine. The graph must be frozen. The hierarchy may be
// shared with other engines (multiprogramming); pass nil to have the engine
// build a private one from cfg.
func New(cfg machine.Config, g *dag.Graph, sched core.Scheduler, hier *cache.Hierarchy) *Engine {
	if !g.Frozen() {
		panic("sim: graph not frozen")
	}
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if hier == nil {
		hier = cache.New(cfg.CacheParams())
	}
	e := &Engine{
		cfg:      cfg,
		g:        g,
		sched:    sched,
		hier:     hier,
		cores:    make([]coreState, cfg.Cores),
		nextAt:   make([]int64, cfg.Cores),
		pending:  g.InDegrees(),
		doneByDF: make([]bool, g.Len()),
	}
	for i := range e.cores {
		if b, ok := recBufPool.Get().(*[]trace.Action); ok {
			e.cores[i].rec.Adopt(*b)
		}
	}
	sched.Reset(cfg.Cores, g)
	sched.Push(0, g.Root())
	return e
}

// recBufPool recycles trace.Recorder buffers across engines: a cold sweep
// builds one engine per cell, and without pooling every cell re-grows each
// core's action buffer from zero. Buffer capacity never affects simulation
// output, so pool nondeterminism is invisible.
var recBufPool sync.Pool

// Recycle returns the engine's recorder buffers to the shared pool. Call it
// once the engine is finished (after Result); the engine remains usable,
// its recorders simply re-grow from empty.
func (e *Engine) Recycle() {
	for i := range e.cores {
		b := e.cores[i].rec.Detach()
		if cap(b) > 0 {
			recBufPool.Put(&b)
		}
	}
}

// Hierarchy returns the engine's memory system.
func (e *Engine) Hierarchy() *cache.Hierarchy { return e.hier }

// Now returns the engine's current cycle.
func (e *Engine) Now() int64 { return e.now }

// Done reports whether every node has completed.
func (e *Engine) Done() bool { return e.done == e.g.Len() }

// Instructions returns dynamic instructions executed so far.
func (e *Engine) Instructions() int64 { return e.instructions }

// Run executes the whole DAG and returns the result record.
func (e *Engine) Run() metrics.Run {
	e.RunUntil(hardLimit)
	if !e.Done() {
		panic(fmt.Sprintf("sim: %d of %d nodes incomplete at hard limit — scheduler lost work",
			e.g.Len()-e.done, e.g.Len()))
	}
	r := e.Result()
	simRuns.Add(1)
	simCycles.Add(e.now)
	simInstrs.Add(e.instructions)
	e.Recycle()
	return r
}

// wheelSlots is the calendar wheel's window width in cycles. 64 lets the
// slot occupancy live in one machine word, and covers the common event
// horizon: L1 hits (+1), L2 trips (+15), idle re-polls (+50) all land back
// inside the window, so only DRAM fills and long compute runs take the
// slow (refill) path.
const wheelSlots = 64

// RunUntil advances the simulation until every node is done or the clock
// reaches limit, whichever is first.
//
// Event selection is a calendar wheel rather than a per-event scan over
// cores: slot s of the wheel holds a bitmask of the cores whose next event
// falls at cycle wheelBase+s, and a one-word occupancy mask (wheelOcc) marks
// the non-empty slots. The next event is then two TrailingZeros64 — lowest
// occupied slot, lowest core id in it — which reproduces the stepwise
// semantics exactly: the popped event is the global (time, core-id)
// lexicographic minimum, because every core beyond the window is at least
// wheelSlots cycles away (established at refill, and event times never
// decrease), and bit order within a slot IS ascending core id, the
// tie-break the engine has always used. When the window drains, one
// O(cores) scan of the dense nextAt array re-bases the wheel at the new
// minimum. The upshot: the old O(cores) selection scan — the hottest lines
// in cold-sweep profiles — runs once per drained window instead of once per
// event, and a core streaming consecutive actions (nextAt stepping +1) pops
// itself back-to-back with O(1) work, subsuming the batch-advance special
// case.
func (e *Engine) RunUntil(limit int64) {
	hier := e.hier
	nextAt := e.nextAt
	shift := hier.LineShift()
	for !e.Done() {
		if e.wheelOcc == 0 {
			// Refill: re-base the window at the earliest pending event and
			// enqueue every core within it. Cores beyond the window stay
			// out; they are reconsidered at the next refill, and cannot be
			// due before anything enqueued here.
			min := nextAt[0]
			for i := 1; i < len(nextAt); i++ {
				if nextAt[i] < min {
					min = nextAt[i]
				}
			}
			if min >= limit {
				e.now = limit
				return
			}
			e.wheelBase = min
			for i, at := range nextAt {
				if d := uint64(at - min); d < wheelSlots {
					e.wheel[d] |= 1 << uint(i)
					e.wheelOcc |= 1 << d
				}
			}
		}
		slot := bits.TrailingZeros64(e.wheelOcc)
		t := e.wheelBase + int64(slot)
		// The popped slot is the global minimum event time, so only it can
		// end the run at limit. Check before popping: the event stays
		// queued for a later RunUntil with a higher limit.
		if t >= limit {
			e.now = limit
			return
		}
		coreMask := e.wheel[slot]
		c := bits.TrailingZeros64(coreMask)
		coreMask &= coreMask - 1 // pop lowest core id
		e.wheel[slot] = coreMask
		if coreMask == 0 {
			e.wheelOcc &^= 1 << uint(slot)
		}

		e.now = t
		cs := &e.cores[c]
		completed := false
		if cs.task == nil {
			e.dispatch(c)
		} else if ip := cs.ip; ip < len(cs.actions) || cs.owed != 0 {
			// bound is the earliest possible event time of any OTHER core:
			// the wheel's next occupied slot, or past the window if none
			// (cores outside the window are ≥ wheelBase+wheelSlots by the
			// refill invariant). Current as of this pop, and stepping c
			// never moves another core's nextAt, so it stays valid across
			// the whole fused run below.
			bound := e.wheelBase + wheelSlots
			if e.wheelOcc != 0 {
				bound = e.wheelBase + int64(bits.TrailingZeros64(e.wheelOcc))
			}
			// Local copies keep the fused loop free of repeated loads
			// through cs (the compiler cannot prove AccessLine leaves
			// cs.actions and e.instructions alone).
			actions := cs.actions
			instructions := int64(0)
			var a trace.Action
			if cs.owed != 0 {
				// Cycles owed from the last access run first, as the
				// Compute event stepwise execution would pop here.
				a = trace.Action{Kind: trace.Compute, N: uint32(cs.owed)}
				cs.owed = 0
			} else {
				a = actions[ip]
				ip++
			}
			start := t
			var done int64
			for {
				if a.Kind == trace.Compute {
					done = t + int64(a.N)
					instructions += int64(a.N)
				} else {
					// Pre-split the access so the common case — a read or
					// write within one cache line — takes the inlinable
					// single-line entry point (one call per event, not two).
					write := a.Kind == trace.Store
					off := uint64(a.Addr)
					size := uint64(a.N)
					if size == 0 {
						size = 1 // Access's size<=0 clamp, preserved
					}
					first := off >> shift
					if (off+size-1)>>shift == first {
						done = hier.AccessLine(c, first, write, t)
					} else {
						done = hier.Access(c, a.Addr, int(a.N), write, t)
					}
					instructions++
					// The folded compute after the access is core-local, so
					// it fuses like a Compute action: whenever the access
					// ends before limit. Otherwise it is owed to the core's
					// next pop.
					if a.Post != 0 {
						if done < limit {
							done += int64(a.Post)
							instructions += int64(a.Post)
						} else {
							cs.owed = a.Post
						}
					}
				}
				// Fuse the next action into this pop when doing so is
				// provably order-identical to stepwise execution. The next
				// action's event time is done; it may be absorbed if it
				// would be replayed within this call anyway (done < limit)
				// and absorbing cannot reorder operations on state shared
				// with other cores:
				//   - a Compute touches only this core's clock and the
				//     instruction counter (observed only at return), so it
				//     commutes with anything and always fuses;
				//   - a memory action operates on the shared hierarchy and
				//     bus, whose internal state (LRU clock, bus queue)
				//     advances in call order, so it fuses only when every
				//     other core's next event is strictly later (done <
				//     bound) — then stepwise would have replayed it next,
				//     in exactly this order.
				if ip >= len(actions) || done >= limit {
					break
				}
				next := actions[ip]
				if next.Kind != trace.Compute && done >= bound {
					break
				}
				a = next
				ip++
				t = done
			}
			cs.ip = ip
			cs.busy += done - start
			e.instructions += instructions
			nextAt[c] = done
		} else {
			e.complete(c)
			completed = true
		}

		// Re-enqueue the core's next event if it lands inside the window
		// (event times never decrease, so the slot index cannot go
		// negative). Out-of-window events wait for a refill.
		if d := uint64(nextAt[c] - e.wheelBase); d < wheelSlots {
			e.wheel[d] |= 1 << uint(c)
			e.wheelOcc |= 1 << d
		}
		if completed && e.Done() {
			return
		}
	}
}

// RunFor advances the simulation by delta cycles from the current clock.
func (e *Engine) RunFor(delta int64) { e.RunUntil(e.now + delta) }

// dispatch asks the scheduler for work for idle core c.
func (e *Engine) dispatch(c int) {
	cs := &e.cores[c]
	n, cost := e.sched.Pop(core.CoreID(c))
	e.dispatchCyc += cost
	if n == nil {
		wait := cost
		if e.cfg.IdleRetry > wait {
			wait = e.cfg.IdleRetry
		}
		e.idleCycles += wait
		e.nextAt[c] = e.now + wait
		return
	}
	cs.task = n
	cs.taskStart = e.now
	cs.ip = 0
	cs.rec.Reset()
	if n.Run != nil {
		n.Run(&cs.rec)
	}
	cs.actions = cs.rec.Actions()
	e.nextAt[c] = e.now + cost + e.cfg.SpawnOverhead
}

// complete finishes core c's task at e.now, releasing children.
func (e *Engine) complete(c int) {
	cs := &e.cores[c]
	n := cs.task
	cs.task = nil
	cs.actions = nil
	e.nextAt[c] = e.now

	e.done++
	if e.CaptureOrder {
		e.Order = append(e.Order, n.ID)
	}
	if e.CaptureTimeline {
		e.Timeline = append(e.Timeline, Span{Node: n.ID, Core: c, Start: cs.taskStart, End: e.now})
	}

	// Premature accounting: completions ahead of the sequential frontier.
	df := int(n.DF)
	e.doneByDF[df] = true
	if df == e.frontier {
		e.frontier++
		for e.frontier < len(e.doneByDF) && e.doneByDF[e.frontier] {
			e.frontier++
			e.outOfOrder--
		}
	} else {
		e.outOfOrder++
		if e.outOfOrder > e.maxPremature {
			e.maxPremature = e.outOfOrder
		}
	}

	// Release children in REVERSE spawn order (see core.Scheduler contract:
	// LIFO policies then surface the leftmost child first).
	kids := n.Children()
	for i := len(kids) - 1; i >= 0; i-- {
		k := kids[i]
		e.pending[k.ID]--
		if e.pending[k.ID] == 0 {
			e.sched.Push(core.CoreID(c), k)
		}
	}
}

// Result assembles the metrics record for the work completed so far.
func (e *Engine) Result() metrics.Run {
	r := metrics.Run{
		Scheduler:    e.sched.Name(),
		Cores:        e.cfg.Cores,
		Config:       e.cfg.Name,
		Cycles:       e.now,
		Instructions: e.instructions,
		Tasks:        int64(e.done),
		IdleCycles:   e.idleCycles,
		DispatchCyc:  e.dispatchCyc,
		MaxPremature: e.maxPremature,
	}
	for i := range e.cores {
		r.BusyCycles += e.cores[i].busy
		s := e.hier.L1(i).Stats
		r.L1Hits += s.Hits
		r.L1Misses += s.Misses
	}
	l2 := e.hier.L2().Stats
	r.L2Hits = l2.Hits
	r.L2Misses = l2.Misses
	r.L2Writebacks = l2.Writebacks
	r.OffchipTransfers = e.hier.OffchipTransfers
	r.OffchipBytes = e.hier.OffchipBytes
	r.BusQueueCycles = e.hier.Bus().QueueCycles
	r.BusUtilization = e.hier.Bus().Utilization(e.now)
	ss := e.sched.Stats()
	r.Steals = ss.Steals
	r.StealProbes = ss.StealProbes
	r.FailedSteals = ss.FailedSteals
	return r
}
