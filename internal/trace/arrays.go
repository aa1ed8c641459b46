package trace

import "repro/internal/mem"

// Int64s couples a real Go slice with its simulated base address so workload
// code can compute on live data while recording the corresponding simulated
// references. All element accesses are 8 bytes.
type Int64s struct {
	Base mem.Addr
	Data []int64
}

// NewInt64s allocates an n-element array named name in space s. The backing
// slice is tracked by the space, so Space.Freeze/Reset snapshot and restore
// its contents (the workload layer's build-once/run-many lifecycle).
func NewInt64s(s *mem.Space, name string, n int) Int64s {
	a := Int64s{Base: s.Alloc(name, uint64(n)*8, 64), Data: make([]int64, n)}
	mem.Track(s, a.Data)
	return a
}

// Addr returns the simulated address of element i.
func (a Int64s) Addr(i int) mem.Addr { return a.Base + mem.Addr(i)*8 }

// Get reads element i, recording the load.
func (a Int64s) Get(r *Recorder, i int) int64 {
	r.Load(a.Addr(i), 8)
	return a.Data[i]
}

// Set writes element i, recording the store.
func (a Int64s) Set(r *Recorder, i int, v int64) {
	r.Store(a.Addr(i), 8)
	a.Data[i] = v
}

// Add adds d to element i, recording the load and the store of a
// read-modify-write. The data is updated before anything is recorded: a
// chunked Recorder may suspend the task inside Load or Store, and a
// concurrent task incrementing the same element in between must see this
// one's update, not lose it.
func (a Int64s) Add(r *Recorder, i int, d int64) {
	a.Data[i] += d
	r.Load(a.Addr(i), 8)
	r.Store(a.Addr(i), 8)
}

// Slice returns a view of elements [lo, hi) sharing the same backing data
// and address mapping.
func (a Int64s) Slice(lo, hi int) Int64s {
	return Int64s{Base: a.Addr(lo), Data: a.Data[lo:hi]}
}

// Len returns the element count.
func (a Int64s) Len() int { return len(a.Data) }

// Float64s is the float64 analogue of Int64s.
type Float64s struct {
	Base mem.Addr
	Data []float64
}

// NewFloat64s allocates an n-element array named name in space s, tracked
// for Space.Freeze/Reset like NewInt64s.
func NewFloat64s(s *mem.Space, name string, n int) Float64s {
	a := Float64s{Base: s.Alloc(name, uint64(n)*8, 64), Data: make([]float64, n)}
	mem.Track(s, a.Data)
	return a
}

// Addr returns the simulated address of element i.
func (a Float64s) Addr(i int) mem.Addr { return a.Base + mem.Addr(i)*8 }

// Get reads element i, recording the load.
func (a Float64s) Get(r *Recorder, i int) float64 {
	r.Load(a.Addr(i), 8)
	return a.Data[i]
}

// Set writes element i, recording the store.
func (a Float64s) Set(r *Recorder, i int, v float64) {
	r.Store(a.Addr(i), 8)
	a.Data[i] = v
}

// Len returns the element count.
func (a Float64s) Len() int { return len(a.Data) }

// Int32s is the int32 analogue (4-byte elements), used for sparse matrix
// index arrays.
type Int32s struct {
	Base mem.Addr
	Data []int32
}

// NewInt32s allocates an n-element array named name in space s, tracked
// for Space.Freeze/Reset like NewInt64s.
func NewInt32s(s *mem.Space, name string, n int) Int32s {
	a := Int32s{Base: s.Alloc(name, uint64(n)*4, 64), Data: make([]int32, n)}
	mem.Track(s, a.Data)
	return a
}

// Addr returns the simulated address of element i.
func (a Int32s) Addr(i int) mem.Addr { return a.Base + mem.Addr(i)*4 }

// Get reads element i, recording the load.
func (a Int32s) Get(r *Recorder, i int) int32 {
	r.Load(a.Addr(i), 4)
	return a.Data[i]
}

// Set writes element i, recording the store.
func (a Int32s) Set(r *Recorder, i int, v int32) {
	r.Store(a.Addr(i), 4)
	a.Data[i] = v
}

// Len returns the element count.
func (a Int32s) Len() int { return len(a.Data) }
