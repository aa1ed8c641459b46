package rcache

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/workloads"
)

func testCell() (machine.Config, workloads.Spec) {
	return machine.Default(8), workloads.Spec{Name: "mergesort", N: 1 << 14, Grain: 1024, Seed: 7}
}

func testRun() metrics.Run {
	return metrics.Run{
		Workload: "mergesort", Scheduler: "pdf", Cores: 8, Config: "default-8c",
		Cycles: 123456, Instructions: 654321, Tasks: 99,
		L2Misses: 42, OffchipBytes: 2688, BusUtilization: 0.123456789012345,
	}
}

// TestKeySensitivity: every component of the cell identity must perturb the
// key (the per-field guarantees live in the machine and workloads tests;
// this covers the assembly and the scheduler/seed/quick extras).
func TestKeySensitivity(t *testing.T) {
	cfg, spec := testCell()
	base := KeyOf(cfg, spec, "pdf", 1, false)
	cfg2 := cfg
	cfg2.Cores = 16
	spec2 := spec
	spec2.N++
	variants := map[string]Key{
		"config":    KeyOf(cfg2, spec, "pdf", 1, false),
		"spec":      KeyOf(cfg, spec2, "pdf", 1, false),
		"scheduler": KeyOf(cfg, spec, "ws", 1, false),
		"seed":      KeyOf(cfg, spec, "pdf", 2, false),
		"quick":     KeyOf(cfg, spec, "pdf", 1, true),
	}
	for what, k := range variants {
		if k == base {
			t.Errorf("changing the %s does not change the key", what)
		}
	}
	if again := KeyOf(cfg, spec, "pdf", 1, false); again != base {
		t.Error("identical identity hashed to different keys")
	}
}

func TestMemoryTierAndStats(t *testing.T) {
	s := NewMemory()
	cfg, spec := testCell()
	key := KeyOf(cfg, spec, "pdf", 1, true)
	want := testRun()
	var computes atomic.Int64
	compute := func() (metrics.Run, error) { computes.Add(1); return want, nil }

	for i := 0; i < 3; i++ {
		got, err := s.Do(key, compute)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("Do returned %+v, want %+v", got, want)
		}
	}
	if computes.Load() != 1 {
		t.Fatalf("compute ran %d times, want 1", computes.Load())
	}
	st := s.Stats()
	if st.Misses != 1 || st.MemHits != 2 || st.Lookups() != 3 || st.Hits() != 2 {
		t.Fatalf("stats %+v", st)
	}
}

// TestConcurrentDo: duplicate Do calls for one key racing on a disk store
// each get the computed record, every call is accounted for, and the entry
// left on disk serves a reopened store.
func TestConcurrentDo(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	key, want := Key{1}, testRun()
	const n = 16
	var wg sync.WaitGroup
	runs := make([]metrics.Run, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runs[i], errs[i] = s.Do(key, func() (metrics.Run, error) { return want, nil })
		}()
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil || runs[i] != want {
			t.Fatalf("caller %d: run %+v err %v", i, runs[i], errs[i])
		}
	}
	if st := s.Stats(); st.Lookups() != n || st.Misses < 1 {
		t.Fatalf("stats %+v: want %d lookups, at least one miss", st, n)
	}
	s2, err := Open(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if r, err := s2.Do(key, func() (metrics.Run, error) { t.Fatal("recomputed a stored key"); return metrics.Run{}, nil }); err != nil || r != want {
		t.Fatalf("reopened store: run %+v err %v", r, err)
	}
}

// TestErrorsNotCached: a failed compute must propagate to the caller and
// leave the key recomputable.
func TestErrorsNotCached(t *testing.T) {
	s := NewMemory()
	key := Key{2}
	boom := errors.New("cell failed")
	if _, err := s.Do(key, func() (metrics.Run, error) { return metrics.Run{}, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	want := testRun()
	got, err := s.Do(key, func() (metrics.Run, error) { return want, nil })
	if err != nil || got != want {
		t.Fatalf("retry after error: run %+v err %v", got, err)
	}
}

// TestDiskPersistence: a second store opened on the same directory must
// serve the first store's results bit-exactly without recomputing.
func TestDiskPersistence(t *testing.T) {
	dir := t.TempDir()
	cfg, spec := testCell()
	key := KeyOf(cfg, spec, "ws", 9, false)
	want := testRun()

	s1, err := Open(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Do(key, func() (metrics.Run, error) { return want, nil }); err != nil {
		t.Fatal(err)
	}
	if st := s1.Stats(); st.Stores != 1 {
		t.Fatalf("stats after store %+v", st)
	}

	s2, err := Open(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.Do(key, func() (metrics.Run, error) {
		t.Fatal("recomputed a persisted cell")
		return metrics.Run{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("persisted run %+v, want %+v", got, want)
	}
	if st := s2.Stats(); st.DiskHits != 1 || st.Misses != 0 {
		t.Fatalf("warm stats %+v", st)
	}

	// And the memory tier now fronts the disk: a second lookup is a mem hit.
	if _, err := s2.Do(key, func() (metrics.Run, error) { return metrics.Run{}, errors.New("no") }); err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.MemHits != 1 {
		t.Fatalf("stats after re-lookup %+v", st)
	}
}

// TestCorruptEntriesTolerated: truncated, garbage, wrong-schema and
// wrong-key records must read as misses, be counted, and be deleted so the
// recomputed result replaces them.
func TestCorruptEntriesTolerated(t *testing.T) {
	cases := map[string]func(path string){
		"truncated": func(p string) {
			b, _ := os.ReadFile(p)
			os.WriteFile(p, b[:len(b)/2], 0o666)
		},
		"garbage": func(p string) { os.WriteFile(p, []byte("not json"), 0o666) },
		"wrong-schema": func(p string) {
			os.WriteFile(p, []byte(`{"schema":999,"key":"","run":{}}`), 0o666)
		},
		"wrong-key": func(p string) {
			os.WriteFile(p, []byte(`{"schema":1,"key":"deadbeef","run":{}}`), 0o666)
		},
	}
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			key := Key{3}
			want := testRun()
			s1, err := Open(dir, false)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s1.Do(key, func() (metrics.Run, error) { return want, nil }); err != nil {
				t.Fatal(err)
			}
			corrupt(s1.path(key))

			s2, err := Open(dir, false)
			if err != nil {
				t.Fatal(err)
			}
			got, err := s2.Do(key, func() (metrics.Run, error) { return want, nil })
			if err != nil || got != want {
				t.Fatalf("after corruption: run %+v err %v", got, err)
			}
			st := s2.Stats()
			if st.Corrupt != 1 || st.Misses != 1 || st.Stores != 1 {
				t.Fatalf("stats %+v: want corrupt=1 miss=1 store=1 (rewrite)", st)
			}
		})
	}
}

// TestReadonly: a readonly store serves hits but never writes — it does not
// even create the version directory, so it works on a read-only mount.
func TestReadonly(t *testing.T) {
	dir := t.TempDir()
	key := Key{4}
	want := testRun()

	s, err := Open(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := s.Do(key, func() (metrics.Run, error) { return want, nil }); err != nil || got != want {
		t.Fatalf("readonly miss: run %+v err %v", got, err)
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
		t.Fatalf("readonly store touched the cache directory: %v entries, err %v", len(ents), err)
	}

	// Seed the directory with a writable store; the readonly one must hit.
	w, err := Open(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Do(key, func() (metrics.Run, error) { return want, nil }); err != nil {
		t.Fatal(err)
	}
	r2, err := Open(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r2.Do(key, func() (metrics.Run, error) {
		t.Fatal("readonly store recomputed a persisted cell")
		return metrics.Run{}, nil
	})
	if err != nil || got != want {
		t.Fatalf("readonly hit: run %+v err %v", got, err)
	}
}

// TestGC: dead schema versions are pruned, the live one survives, and
// abandoned temp files in the live version are swept.
func TestGC(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	key := Key{5}
	if _, err := s.Do(key, func() (metrics.Run, error) { return testRun(), nil }); err != nil {
		t.Fatal(err)
	}
	// Fabricate dead versions — an older schema number and a same-number
	// directory with a stale metrics.Run shape hash (both unreachable by
	// any current lookup) — plus a stray temp file, an unrelated file, and
	// an unrelated directory whose name merely starts with v+digit; the
	// last three must be left alone.
	dead := filepath.Join(dir, "v0-deadbeef")
	os.MkdirAll(dead, 0o777)
	os.WriteFile(filepath.Join(dead, "a.json"), []byte("{}"), 0o666)
	os.WriteFile(filepath.Join(dead, "b.json"), []byte("{}"), 0o666)
	staleShape := filepath.Join(dir, "v1-00000000")
	os.MkdirAll(staleShape, 0o777)
	os.WriteFile(filepath.Join(staleShape, "c.json"), []byte("{}"), 0o666)
	os.WriteFile(filepath.Join(s.dir, "tmp-123"), []byte("partial"), 0o666)
	os.WriteFile(filepath.Join(dir, "README"), []byte("keep"), 0o666)
	notOurs := filepath.Join(dir, "v8")
	os.MkdirAll(notOurs, 0o777)
	os.WriteFile(filepath.Join(notOurs, "precious"), []byte("keep"), 0o666)

	versions, entries, err := GC(dir)
	if err != nil {
		t.Fatal(err)
	}
	if versions != 2 || entries != 3 {
		t.Fatalf("GC removed %d versions / %d entries, want 2 / 3", versions, entries)
	}
	if _, err := os.Stat(dead); !os.IsNotExist(err) {
		t.Fatal("dead version directory survived GC")
	}
	if _, err := os.Stat(filepath.Join(dir, "README")); err != nil {
		t.Fatal("GC removed an unrelated file")
	}
	if _, err := os.Stat(filepath.Join(notOurs, "precious")); err != nil {
		t.Fatal("GC removed a directory this package did not create")
	}
	if _, err := os.Stat(filepath.Join(s.dir, "tmp-123")); !os.IsNotExist(err) {
		t.Fatal("abandoned temp file survived GC")
	}
	if _, err := os.Stat(s.path(key)); err != nil {
		t.Fatal("live entry did not survive GC")
	}

	// GC on a directory that does not exist is a no-op, not an error.
	if v, e, err := GC(filepath.Join(dir, "missing")); err != nil || v != 0 || e != 0 {
		t.Fatalf("GC(missing) = %d, %d, %v", v, e, err)
	}
}

func TestIsSchemaDirName(t *testing.T) {
	yes := []string{"v0-deadbeef", "v1-00000000", "v12-0123abcd", LiveVersion()}
	no := []string{"v8", "v2.1", "vendor", "v1-", "v1-0000000", "v1-000000000", "v1-DEADBEEF", "v-deadbeef", "x1-deadbeef", ""}
	for _, n := range yes {
		if !isSchemaDirName(n) {
			t.Errorf("isSchemaDirName(%q) = false, want true", n)
		}
	}
	for _, n := range no {
		if isSchemaDirName(n) {
			t.Errorf("isSchemaDirName(%q) = true, want false", n)
		}
	}
}

func TestStatsString(t *testing.T) {
	st := Stats{MemHits: 3, DiskHits: 1, Misses: 0, RemoteHits: 2}
	s := st.String()
	for _, want := range []string{"lookups=6", "hits=6", "misses=0", "hit-rate=100.0%"} {
		if !strings.Contains(s, want) {
			t.Errorf("stats line %q missing %q", s, want)
		}
	}
}
