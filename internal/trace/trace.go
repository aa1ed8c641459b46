// Package trace defines the instruction-level action streams that tasks
// feed to the CMP simulator.
//
// A task in this reproduction is a short segment of real computation (a run
// of merging, a block multiply, a sparse row batch). When the scheduler
// dispatches a task, the task's Go closure executes the genuine algorithm on
// genuine data while recording its memory references and compute work into a
// Recorder. The simulator then replays the recorded stream cycle-by-cycle
// through the cache hierarchy. This record-then-replay design keeps the
// simulated interleaving deterministic while preserving authentic reference
// patterns — the property the paper's constructive-cache-sharing results
// depend on.
package trace

import (
	"fmt"
	"math"

	"repro/internal/mem"
)

// Kind discriminates the three action types.
type Kind uint8

const (
	// Compute models N ALU instructions, one cycle each.
	Compute Kind = iota
	// Load models a read of Size bytes at Addr.
	Load
	// Store models a write of Size bytes at Addr.
	Store
)

// String implements fmt.Stringer for diagnostics.
func (k Kind) String() string {
	switch k {
	case Compute:
		return "compute"
	case Load:
		return "load"
	case Store:
		return "store"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Action is one simulated instruction (or, for Compute, a run of N of them).
// Memory actions carry the accessed address and size; the simulator splits
// accesses that straddle cache lines.
//
// A memory action also carries Post, the ALU cycles that run right after it.
// Recording folds the compute that follows a load or store into that access
// instead of giving it an action slot of its own, which makes the workloads'
// streams about a third shorter. Post sits in what would otherwise be the
// struct's padding, so an Action stays 16 bytes. A Compute action's Post is
// always 0.
type Action struct {
	Addr mem.Addr
	N    uint32 // Compute: cycle count; Load/Store: access size in bytes
	Kind Kind
	Post uint16 // Load/Store: compute cycles run right after the access
}

// Instructions returns how many dynamic instructions the action represents.
func (a Action) Instructions() int64 {
	if a.Kind == Compute {
		return int64(a.N)
	}
	return 1 + int64(a.Post)
}

// Recorder accumulates a task's action stream. The zero value is ready to
// use. Recorders are reused across tasks via Reset to avoid allocation in
// the simulator's hot path.
type Recorder struct {
	actions []Action
}

// Reset clears the recorder, retaining capacity.
func (r *Recorder) Reset() { r.actions = r.actions[:0] }

// Adopt hands the recorder a previously-detached buffer to record into,
// so buffer capacity can be recycled across simulation runs instead of
// re-grown from zero by each one. Contents are discarded.
func (r *Recorder) Adopt(buf []Action) { r.actions = buf[:0] }

// Detach surrenders the recorder's buffer to the caller (for pooling) and
// leaves the recorder empty but usable.
func (r *Recorder) Detach() []Action {
	b := r.actions
	r.actions = nil
	return b
}

// Actions returns the recorded stream. The slice is owned by the recorder
// and is invalidated by the next Reset.
func (r *Recorder) Actions() []Action { return r.actions }

// Compute records n ALU cycles. After a load or store they fold into its
// Post; otherwise they coalesce with a preceding Compute. Cycles that would
// overflow Post move out, together with what Post already holds, into one
// Compute action after the access, so the compute run after an access is
// always one replay event, whether it fits in Post or not.
func (r *Recorder) Compute(n int) {
	if n <= 0 {
		return
	}
	if last := len(r.actions) - 1; last >= 0 {
		a := &r.actions[last]
		if a.Kind == Compute {
			a.N += uint32(n)
			return
		}
		if sum := int(a.Post) + n; sum <= math.MaxUint16 {
			a.Post = uint16(sum)
			return
		}
		n += int(a.Post)
		a.Post = 0
	}
	r.actions = append(r.actions, Action{Kind: Compute, N: uint32(n)})
}

// Load records a read of size bytes at addr.
func (r *Recorder) Load(addr mem.Addr, size int) {
	r.actions = append(r.actions, Action{Kind: Load, Addr: addr, N: uint32(size)})
}

// Store records a write of size bytes at addr.
func (r *Recorder) Store(addr mem.Addr, size int) {
	r.actions = append(r.actions, Action{Kind: Store, Addr: addr, N: uint32(size)})
}

// Len returns the number of recorded actions.
func (r *Recorder) Len() int { return len(r.actions) }

// Instructions returns the total dynamic instruction count of the stream.
func (r *Recorder) Instructions() int64 {
	var total int64
	for _, a := range r.actions {
		total += a.Instructions()
	}
	return total
}

// Stats summarizes a recorded stream; used by workload tests to check that
// generated traces have the intended shape.
type Stats struct {
	Actions      int
	Instructions int64
	Loads        int64
	Stores       int64
	ComputeCyc   int64 // Compute actions' cycles plus every Post
}

// Summarize computes stream statistics.
func Summarize(actions []Action) Stats {
	var s Stats
	s.Actions = len(actions)
	for _, a := range actions {
		s.Instructions += a.Instructions()
		switch a.Kind {
		case Load:
			s.Loads++
		case Store:
			s.Stores++
		case Compute:
			s.ComputeCyc += int64(a.N)
		}
		s.ComputeCyc += int64(a.Post)
	}
	return s
}
