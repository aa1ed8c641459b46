package workloads

import (
	"fmt"

	"repro/internal/dag"
	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/xprng"
)

// buildHashJoin constructs an in-memory equi-join, the database operator
// workload of the paper's CMU/Intel context: build a hash table over the
// inner relation R (N/4 tuples), then probe it with the outer relation S
// (N tuples), counting matches per probe block.
//
// The table uses open addressing with linear probing over a power-of-two
// slot array (~2x the build side). Probe keys are drawn from a sliding
// window over R's key range — the locality of time-correlated joins (e.g.
// orders joining recent customers). The probe phase is a Cilk-style spawn
// tree over S blocks:
//
//   - PDF co-schedules stream-adjacent probe blocks, so one window of the
//     hash table stays L2-resident;
//   - WS sends cores to distant subtrees, touching P disjoint table windows
//     that together overflow the shared L2.
//
// This is the paper's bandwidth-limited irregular class with pointer-free
// but data-dependent access patterns.
func buildHashJoin(s Spec) *Instance {
	nProbe := s.N
	nBuild := s.N / 4
	if nBuild < 16 {
		nBuild = 16
	}
	slots := 2 * nBuild
	for slots&(slots-1) != 0 {
		slots += slots & (-slots)
	}
	mask := int64(slots - 1)

	space := mem.NewSpace(mem.SpaceID(s.SpaceID))
	buildKeys := trace.NewInt64s(space, "buildkeys", nBuild)
	tableKeys := trace.NewInt64s(space, "tablekeys", slots)
	tableVals := trace.NewInt64s(space, "tablevals", slots)
	probeKeys := trace.NewInt64s(space, "probekeys", nProbe)
	// One match counter per probe leaf. spawnTree halves ranges, so when
	// nProbe/Grain is not a power of two it makes more leaves than
	// ⌈nProbe/Grain⌉; the older ⌈nProbe/Grain⌉+1 sizing stays the floor so
	// specs it already covered keep their addresses.
	blocks := splitRanges(0, nProbe, s.Grain)
	matches := trace.NewInt64s(space, "matches", max(len(blocks), (nProbe+s.Grain-1)/s.Grain+1))

	rng := xprng.New(s.Seed)
	// Build keys: unique-ish keys spread over a dense range, shuffled.
	for i := range buildKeys.Data {
		buildKeys.Data[i] = int64(i)*2 + 1 // odd keys, dense range [1, 2*nBuild)
	}
	rng.Shuffle(nBuild, func(i, j int) {
		buildKeys.Data[i], buildKeys.Data[j] = buildKeys.Data[j], buildKeys.Data[i]
	})
	// Probe keys: sliding window over the build key range; half hit, half
	// miss (even keys never match).
	window := int64(nBuild / 4)
	if window < 16 {
		window = 16
	}
	for i := range probeKeys.Data {
		center := int64(float64(i) / float64(nProbe) * float64(2*nBuild))
		k := center + rng.Int63n(window) - window/2
		if k < 0 {
			k += int64(2 * nBuild)
		}
		if k >= int64(2*nBuild) {
			k -= int64(2 * nBuild)
		}
		probeKeys.Data[i] = k
	}

	// Host reference: the same table and probe logic on plain slices.
	refTable := make([]int64, slots)
	for i := range refTable {
		refTable[i] = -1
	}
	insert := func(k, v int64) {
		h := hashKey(k) & mask
		for refTable[h] != -1 {
			h = (h + 1) & mask
		}
		refTable[h] = k
		_ = v
	}
	for _, k := range buildKeys.Data {
		insert(k, k)
	}
	lookup := func(k int64) bool {
		h := hashKey(k) & mask
		for refTable[h] != -1 {
			if refTable[h] == k {
				return true
			}
			h = (h + 1) & mask
		}
		return false
	}

	g := dag.New()
	root := g.AddNode("start", nil)

	// Build phase: spawn tree over R blocks, inserting into the shared
	// table. Concurrent build tasks probe the same slots, so by the kernel
	// contract (package doc) each task makes all its inserts on the host
	// table before it records anything; slot contents are validated
	// against the host reference afterwards. Recording then walks each
	// key's probe sequence again: the slots from the key's home to its own
	// slot were occupied when it was inserted and stay so (nothing is ever
	// removed), so the walk meets exactly the slots the insert probed, and
	// the loads and stores match an insert loop that recorded as it went.
	built := spawnTree(g, root, 0, nBuild, s.Grain, func(lo, hi int) *dag.Node {
		return g.AddNode(fmt.Sprintf("build[%d:%d]", lo, hi), func(r *trace.Recorder) {
			for _, k := range buildKeys.Data[lo:hi] {
				h := hashKey(k) & mask
				for tableKeys.Data[h] != 0 {
					h = (h + 1) & mask
				}
				tableKeys.Data[h] = k
				tableVals.Data[h] = k ^ 0x5a5a
			}
			for i := lo; i < hi; i++ {
				k := buildKeys.Get(r, i)
				h := hashKey(k) & mask
				r.Compute(4)
				for tableKeys.Get(r, int(h)) != k {
					r.Compute(1)
					h = (h + 1) & mask
				}
				r.Store(tableKeys.Addr(int(h)), 8)
				r.Store(tableVals.Addr(int(h)), 8)
			}
		})
	})
	barrier := g.AddNode("table-built", nil)
	g.AddEdge(built, barrier)

	// Probe phase: spawn tree over S blocks; per-block match counters.
	blockOf := make(map[int]int, len(blocks))
	for i, b := range blocks {
		blockOf[b.lo] = i
	}
	spawnTree(g, barrier, 0, nProbe, s.Grain, func(lo, hi int) *dag.Node {
		b := blockOf[lo]
		return g.AddNode(fmt.Sprintf("probe[%d:%d]", lo, hi), func(r *trace.Recorder) {
			var count int64
			for i := lo; i < hi; i++ {
				k := probeKeys.Get(r, i)
				h := hashKey(k) & mask
				r.Compute(4)
				for {
					tk := tableKeys.Get(r, int(h))
					r.Compute(1)
					if tk == 0 {
						break
					}
					if tk == k {
						tableVals.Get(r, int(h))
						count++
						break
					}
					h = (h + 1) & mask
				}
			}
			matches.Set(r, b, count)
		})
	})

	return &Instance{
		Spec:  s,
		Graph: freeze(g),
		Space: space,
		Verify: func() error {
			// Slot-for-slot table equivalence is not required (insert
			// order may differ from the reference); membership and the
			// total match count are.
			var total, want int64
			for i := range blocks {
				total += matches.Data[i]
			}
			for _, k := range probeKeys.Data {
				if lookup(k) {
					want++
				}
			}
			if total != want {
				return fmt.Errorf("hashjoin: %d matches, want %d", total, want)
			}
			// Every build key must be findable in the simulated table.
			for _, k := range buildKeys.Data {
				h := hashKey(k) & mask
				for {
					tk := tableKeys.Data[h]
					if tk == k {
						break
					}
					if tk == 0 {
						return fmt.Errorf("hashjoin: build key %d missing from table", k)
					}
					h = (h + 1) & mask
				}
			}
			return nil
		},
	}
}

// hashKey maps a key to its home slot. Keys here are dense integers, so
// this is the identity — the standard choice for dense domains (a
// scrambling hash would only add collisions). It also means key locality
// maps to table locality, as in radix-partitioned or cache-conscious join
// implementations; that property is what the schedulers compete over.
func hashKey(k int64) int64 { return k }
