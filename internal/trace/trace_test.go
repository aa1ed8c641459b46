package trace

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/mem"
)

func TestComputeCoalescing(t *testing.T) {
	var r Recorder
	r.Compute(3)
	r.Compute(4)
	r.Load(100, 8)
	r.Compute(1)
	r.Compute(2)
	acts := r.Actions()
	want := []Action{
		{Kind: Compute, N: 7},
		{Kind: Load, Addr: 100, N: 8, Post: 3},
	}
	if !slices.Equal(acts, want) {
		t.Fatalf("got %+v, want %+v (leading compute coalesced, trailing folded)", acts, want)
	}
}

func TestComputeWithoutMemoryStaysAction(t *testing.T) {
	var r Recorder
	r.Compute(5)
	if acts := r.Actions(); !slices.Equal(acts, []Action{{Kind: Compute, N: 5}}) {
		t.Fatalf("leading compute = %+v, want one compute action of 5", acts)
	}
}

func TestPostOverflowStartsCompute(t *testing.T) {
	var r Recorder
	r.Store(64, 8)
	r.Compute(math.MaxUint16 - 1)
	r.Compute(1) // exactly fills Post
	if acts := r.Actions(); len(acts) != 1 || acts[0].Post != math.MaxUint16 {
		t.Fatalf("Post should hold up to %d: %+v", math.MaxUint16, acts)
	}
	r.Compute(1) // would pass the limit: everything moves to a Compute action
	r.Compute(2) // which then coalesces as usual
	want := []Action{
		{Kind: Store, Addr: 64, N: 8},
		{Kind: Compute, N: math.MaxUint16 + 3},
	}
	if acts := r.Actions(); !slices.Equal(acts, want) {
		t.Fatalf("got %+v, want %+v", acts, want)
	}
}

func TestActionIs16Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Action{}); got != 16 {
		t.Fatalf("sizeof(Action) = %d, want 16", got)
	}
}

// unfolded records ops the way the recorder did before Post existed: every
// compute run is a Compute action of its own, coalesced with a preceding
// one. It is the reference the folded stream must equal in totals.
func unfolded(ops []uint16) []Action {
	var out []Action
	for i, op := range ops {
		switch n := int(op >> 2); {
		case op&3 == 0 && n > 0:
			if last := len(out) - 1; last >= 0 && out[last].Kind == Compute {
				out[last].N += uint32(n)
			} else {
				out = append(out, Action{Kind: Compute, N: uint32(n)})
			}
		case op&3 == 1:
			out = append(out, Action{Kind: Load, Addr: mem.Addr(i * 8), N: 8})
		case op&3 == 2:
			out = append(out, Action{Kind: Store, Addr: mem.Addr(i * 8), N: 8})
		}
	}
	return out
}

// expand turns a folded stream back into the unfolded form, so the two can
// be compared action for action.
func expand(acts []Action) []Action {
	var out []Action
	for _, a := range acts {
		post := a.Post
		a.Post = 0
		if last := len(out) - 1; a.Kind == Compute && last >= 0 && out[last].Kind == Compute {
			out[last].N += a.N
		} else {
			out = append(out, a)
		}
		if post != 0 {
			out = append(out, Action{Kind: Compute, N: uint32(post)})
		}
	}
	return out
}

func TestFoldedTotalsMatchUnfolded(t *testing.T) {
	// Each op is a kind in its low two bits (0 compute, 1 load, 2 store,
	// 3 nothing) and a compute size above them — up to 16383 cycles, so
	// runs of computes push Post past its limit.
	if err := quick.Check(func(ops []uint16) bool {
		var r Recorder
		for i, op := range ops {
			switch op & 3 {
			case 0:
				r.Compute(int(op >> 2))
			case 1:
				r.Load(mem.Addr(i*8), 8)
			case 2:
				r.Store(mem.Addr(i*8), 8)
			}
		}
		ref := unfolded(ops)
		got, want := Summarize(r.Actions()), Summarize(ref)
		got.Actions, want.Actions = 0, 0
		return got == want && r.Instructions() == want.Instructions &&
			slices.Equal(expand(r.Actions()), ref)
	}, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestChunkedMatchesUnbounded: a chunked Recorder's spilled chunks plus its
// final Actions concatenate to exactly the stream an unbounded Recorder
// records, at chunk sizes that put boundaries after every action, and with
// computes long enough to overflow Post across a boundary. Every spilled
// chunk is full.
func TestChunkedMatchesUnbounded(t *testing.T) {
	for _, size := range []int{1, 2, 3, 7} {
		if err := quick.Check(func(ops []uint16) bool {
			var whole Recorder
			var got []Action
			ok := true
			chunked := NewRecorder(make([]Action, size), func(c []Action) {
				ok = ok && len(c) == size
				got = append(got, c...)
			})
			for i, op := range ops {
				for _, r := range []*Recorder{&whole, &chunked} {
					switch op & 3 {
					case 0:
						r.Compute(int(op >> 2))
					case 1:
						r.Load(mem.Addr(i*8), 8)
					case 2:
						r.Store(mem.Addr(i*8), 8)
					}
				}
			}
			got = append(got, chunked.Actions()...)
			return ok && slices.Equal(got, whole.Actions())
		}, &quick.Config{MaxCount: 300}); err != nil {
			t.Fatalf("chunk size %d: %v", size, err)
		}
	}
}

func TestComputeZeroIgnored(t *testing.T) {
	var r Recorder
	r.Compute(0)
	r.Compute(-5)
	if r.Len() != 0 {
		t.Fatalf("zero/negative compute recorded: %v", r.Actions())
	}
}

func TestInstructionsCount(t *testing.T) {
	var r Recorder
	r.Compute(10)
	r.Load(0, 8)
	r.Store(8, 8)
	if got := r.Instructions(); got != 12 {
		t.Fatalf("Instructions = %d, want 12", got)
	}
}

func TestReset(t *testing.T) {
	var r Recorder
	r.Load(1, 8)
	r.Reset()
	if r.Len() != 0 {
		t.Fatal("Reset did not clear")
	}
	r.Compute(2)
	if r.Len() != 1 {
		t.Fatal("recorder unusable after Reset")
	}
}

func TestSummarize(t *testing.T) {
	var r Recorder
	r.Compute(5)
	r.Load(0, 8)
	r.Load(8, 8)
	r.Compute(2) // folded into the second load
	r.Store(16, 8)
	s := Summarize(r.Actions())
	if s.Loads != 2 || s.Stores != 1 || s.ComputeCyc != 7 || s.Instructions != 10 || s.Actions != 4 {
		t.Fatalf("bad summary: %+v", s)
	}
}

func TestInt64sRoundTrip(t *testing.T) {
	sp := mem.NewSpace(0)
	a := NewInt64s(sp, "a", 16)
	var r Recorder
	for i := 0; i < 16; i++ {
		a.Set(&r, i, int64(i*i))
	}
	for i := 0; i < 16; i++ {
		if got := a.Get(&r, i); got != int64(i*i) {
			t.Fatalf("a[%d] = %d, want %d", i, got, i*i)
		}
	}
	s := Summarize(r.Actions())
	if s.Loads != 16 || s.Stores != 16 {
		t.Fatalf("trace mismatch: %+v", s)
	}
}

// TestInt64sAdd: Add records the load and store that Get then Set would,
// and its update is already in the data whenever the recorder spills.
func TestInt64sAdd(t *testing.T) {
	sp := mem.NewSpace(0)
	a := NewInt64s(sp, "a", 4)
	a.Data[2] = 40
	var got []Action
	var seen []int64
	r := NewRecorder(make([]Action, 1), func(c []Action) {
		got = append(got, c...)
		seen = append(seen, a.Data[2])
	})
	r.Compute(1) // fills the one-action buffer: the load and store both spill
	a.Add(&r, 2, 2)
	got = append(got, r.Actions()...)

	var want Recorder
	want.Compute(1)
	a.Set(&want, 2, a.Get(&want, 2))
	if !slices.Equal(got, want.Actions()) {
		t.Fatalf("Add recorded %+v, want %+v", got, want.Actions())
	}
	if a.Data[2] != 42 || !slices.Equal(seen, []int64{42, 42}) {
		t.Fatalf("a[2] = %d, at the spills %v; want 42 throughout", a.Data[2], seen)
	}
}

func TestInt64sAddresses(t *testing.T) {
	sp := mem.NewSpace(0)
	a := NewInt64s(sp, "a", 8)
	if err := quick.Check(func(iRaw uint8) bool {
		i := int(iRaw % 8)
		return a.Addr(i) == a.Base+mem.Addr(i*8)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInt64sSlice(t *testing.T) {
	sp := mem.NewSpace(0)
	a := NewInt64s(sp, "a", 32)
	var r Recorder
	a.Set(&r, 10, 77)
	sub := a.Slice(8, 16)
	if sub.Len() != 8 {
		t.Fatalf("slice len %d", sub.Len())
	}
	if got := sub.Get(&r, 2); got != 77 {
		t.Fatalf("slice data not shared: %d", got)
	}
	if sub.Addr(2) != a.Addr(10) {
		t.Fatalf("slice addr mapping broken: %x vs %x", sub.Addr(2), a.Addr(10))
	}
}

func TestFloat64sAndInt32s(t *testing.T) {
	sp := mem.NewSpace(0)
	f := NewFloat64s(sp, "f", 4)
	x := NewInt32s(sp, "x", 4)
	var r Recorder
	f.Set(&r, 1, 3.5)
	x.Set(&r, 2, -9)
	if f.Get(&r, 1) != 3.5 || x.Get(&r, 2) != -9 {
		t.Fatal("typed array round trip failed")
	}
	if x.Addr(1)-x.Addr(0) != 4 {
		t.Fatalf("int32 stride = %d, want 4", x.Addr(1)-x.Addr(0))
	}
	if f.Addr(1)-f.Addr(0) != 8 {
		t.Fatalf("float64 stride = %d, want 8", f.Addr(1)-f.Addr(0))
	}
}

func TestKindString(t *testing.T) {
	if Compute.String() != "compute" || Load.String() != "load" || Store.String() != "store" {
		t.Fatal("Kind.String wrong")
	}
	if Kind(9).String() == "" {
		t.Fatal("unknown kind should still format")
	}
}
