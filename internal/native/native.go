// Package native executes the same task DAGs the simulator runs, but on
// real goroutines — a small, adoptable fork-join runtime offering both
// scheduling policies:
//
//   - WS: per-worker deques guarded by light mutexes, owner LIFO, thieves
//     taking the oldest entry of the first non-empty victim;
//   - PDF: a global priority pool ordered by 1DF number.
//
// This package exists for downstream users who want the schedulers rather
// than the simulator. It is deliberately NOT used for any measured claim in
// EXPERIMENTS.md: as the reproduction notes throughout, the host Go runtime
// multiplexes goroutines onto OS threads at its own discretion, so cache
// placement on a real machine is not attributable to the policy. The
// deterministic simulator in internal/sim is the measurement instrument;
// this is the production counterpart.
//
// Task bodies must be race-free under parallel execution of DAG-independent
// nodes (true for every workload in this repository except histogram and
// hashjoin's build phase, whose colliding updates to shared data are only
// safe because the simulator runs one task closure at a time).
package native

import (
	"fmt"
	"sync"

	"repro/internal/dag"
	"repro/internal/deque"
	"repro/internal/pq"
	"repro/internal/trace"
)

// Policy selects the scheduling discipline.
type Policy int

const (
	// WorkStealing runs each worker on its own deque, stealing when idle.
	WorkStealing Policy = iota
	// ParallelDepthFirst serves ready tasks in 1DF order from one pool.
	ParallelDepthFirst
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case WorkStealing:
		return "ws"
	case ParallelDepthFirst:
		return "pdf"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Run executes every node of the frozen graph g on `workers` goroutines
// under the given policy, honoring all dependency edges. Each worker owns a
// private trace.Recorder that is reset per task and discarded (native
// execution measures nothing; it just runs the code).
func Run(g *dag.Graph, workers int, policy Policy) error {
	if !g.Frozen() {
		return fmt.Errorf("native: graph not frozen")
	}
	if workers < 1 {
		return fmt.Errorf("native: need at least one worker, got %d", workers)
	}
	switch policy {
	case WorkStealing:
		newWSPool(workers).run(g)
	case ParallelDepthFirst:
		runPDF(g, workers)
	default:
		return fmt.Errorf("native: unknown policy %v", policy)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Shared completion plumbing

// tracker counts pending parents and completed nodes.
type tracker struct {
	pending []int32 // guarded by mu of the owning pool
	done    int
	total   int
}

func newTracker(g *dag.Graph) *tracker {
	return &tracker{pending: g.InDegrees(), total: g.Len()}
}

// ---------------------------------------------------------------------------
// PDF: one shared pool ordered by 1DF number.

func runPDF(g *dag.Graph, workers int) {
	var (
		mu    sync.Mutex
		cond  = sync.NewCond(&mu)
		heap  pq.Min[*dag.Node]
		tk    = newTracker(g)
		wg    sync.WaitGroup
		idleQ = false // set when all work is done, wakes everyone
	)
	heap.Push(int64(g.Root().DF), g.Root())

	worker := func() {
		defer wg.Done()
		var rec trace.Recorder
		for {
			mu.Lock()
			for heap.Len() == 0 && !idleQ {
				cond.Wait()
			}
			if idleQ && heap.Len() == 0 {
				mu.Unlock()
				return
			}
			n, _, _ := heap.Pop()
			mu.Unlock()

			if n.Run != nil {
				rec.Reset()
				n.Run(&rec)
			}

			mu.Lock()
			tk.done++
			kids := n.Children()
			released := 0
			for _, c := range kids {
				tk.pending[c.ID]--
				if tk.pending[c.ID] == 0 {
					heap.Push(int64(c.DF), c)
					released++
				}
			}
			if tk.done == tk.total {
				idleQ = true
				cond.Broadcast()
			} else if released > 1 {
				cond.Broadcast()
			} else if released == 1 {
				cond.Signal()
			}
			mu.Unlock()
		}
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go worker()
	}
	wg.Wait()
}

// ---------------------------------------------------------------------------
// WS: per-worker deques with mutexes; idle workers scan for victims.

type wsPool struct {
	workers int
	mu      []sync.Mutex
	deques  []deque.Deque[*dag.Node]

	// gmu guards queued/tk; pushers publish work under it so idle workers
	// sleeping on cond can never miss a wakeup.
	gmu    sync.Mutex
	cond   *sync.Cond
	tk     *tracker
	queued int // tasks currently sitting in some deque
}

func newWSPool(workers int) *wsPool {
	p := &wsPool{
		workers: workers,
		mu:      make([]sync.Mutex, workers),
		deques:  make([]deque.Deque[*dag.Node], workers),
	}
	p.cond = sync.NewCond(&p.gmu)
	return p
}

// push publishes a task to w's deque and wakes sleepers.
func (p *wsPool) push(w int, n *dag.Node) {
	p.mu[w].Lock()
	p.deques[w].PushTop(n)
	p.mu[w].Unlock()
	p.gmu.Lock()
	p.queued++
	p.gmu.Unlock()
	p.cond.Broadcast()
}

// take finds work: own deque top (LIFO) first, else steal the oldest entry
// of the first non-empty victim, scanning round-robin.
func (p *wsPool) take(w int) (*dag.Node, bool) {
	p.mu[w].Lock()
	n, ok := p.deques[w].PopTop()
	p.mu[w].Unlock()
	for i := 1; !ok && i < p.workers; i++ {
		v := (w + i) % p.workers
		p.mu[v].Lock()
		n, ok = p.deques[v].PopBottom()
		p.mu[v].Unlock()
	}
	if ok {
		p.gmu.Lock()
		p.queued--
		p.gmu.Unlock()
	}
	return n, ok
}

func (p *wsPool) run(g *dag.Graph) {
	p.tk = newTracker(g)
	p.push(0, g.Root())

	var wg sync.WaitGroup
	wg.Add(p.workers)
	for w := 0; w < p.workers; w++ {
		w := w
		go func() {
			defer wg.Done()
			var rec trace.Recorder
			for {
				n, ok := p.take(w)
				if !ok {
					// Nothing visible: sleep until a push or completion.
					// queued > 0 with a failed scan means another worker
					// grabbed the task between publish and scan — rescan.
					p.gmu.Lock()
					for p.queued == 0 && p.tk.done < p.tk.total {
						p.cond.Wait()
					}
					finished := p.tk.done == p.tk.total && p.queued == 0
					p.gmu.Unlock()
					if finished {
						return
					}
					continue
				}
				p.execute(w, n, &rec)
			}
		}()
	}
	wg.Wait()
}

func (p *wsPool) execute(w int, n *dag.Node, rec *trace.Recorder) {
	if n.Run != nil {
		rec.Reset()
		n.Run(rec)
	}
	p.gmu.Lock()
	var ready []*dag.Node
	for _, c := range n.Children() {
		p.tk.pending[c.ID]--
		if p.tk.pending[c.ID] == 0 {
			ready = append(ready, c)
		}
	}
	p.tk.done++
	finished := p.tk.done == p.tk.total
	p.gmu.Unlock()

	// Reverse order so the leftmost child sits on top of the deque,
	// matching the simulator's depth-first local order.
	for i := len(ready) - 1; i >= 0; i-- {
		p.push(w, ready[i])
	}
	if finished {
		p.cond.Broadcast()
	}
}
