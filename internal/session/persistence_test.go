package session

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"netdecomp/internal/decomp"
	"netdecomp/internal/gen"
	"netdecomp/internal/graph"
	"netdecomp/internal/randx"
)

// fillSession runs seeds 0..seeds-1 of a small forced-complete plan
// through s and returns the plan, graph, and the partition served for each
// seed.
func fillSession(t *testing.T, s *Session, seeds int) (*decomp.Plan, []*decomp.Partition) {
	t.Helper()
	g := gen.Gnp(randx.New(11), 192, 0.05)
	pl, err := decomp.Compile("elkin-neiman", decomp.WithForceComplete())
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*decomp.Partition, seeds)
	for i := 0; i < seeds; i++ {
		p, err := s.Run(context.Background(), pl.WithSeed(uint64(i)), g)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = p
	}
	return pl, out
}

// sessionGraph rebuilds the deterministic graph fillSession decomposes.
func sessionGraph() *graph.Graph {
	return gen.Gnp(randx.New(11), 192, 0.05)
}

func TestSnapshotRoundTripProperty(t *testing.T) {
	// Random synthetic entries must survive Write → Read bit-for-bit
	// (reflect.DeepEqual on the decoded structures).
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		entries := make([]CacheEntry, rng.Intn(6)+1)
		for i := range entries {
			n := rng.Intn(40) + 2
			p := &decomp.Partition{
				Algorithm:    "synthetic",
				N:            n,
				ClusterOf:    make([]int, n),
				Colors:       rng.Intn(5) + 1,
				PhasesUsed:   rng.Intn(4),
				PhaseBudget:  rng.Intn(4) + 1,
				Complete:     rng.Intn(2) == 0,
				Mode:         decomp.StrongDiameter,
				ProperColors: true,
				CutEdges:     rng.Intn(10),
				CutFraction:  rng.Float64(),
			}
			p.Metrics.Rounds = rng.Intn(100)
			p.Metrics.Messages = rng.Int63n(1000)
			members := []int{}
			for v := 0; v < n; v++ {
				members = append(members, v)
				p.ClusterOf[v] = 0
			}
			p.Clusters = []decomp.Cluster{{Members: members, Center: rng.Intn(n), Color: rng.Intn(5)}}
			entries[i] = CacheEntry{
				Key:       Key{Graph: rng.Uint64(), Plan: rng.Uint64(), Seed: rng.Uint64()},
				Partition: p,
			}
		}
		meta := make([]byte, rng.Intn(64))
		rng.Read(meta)
		if len(meta) == 0 {
			meta = nil
		}
		var buf bytes.Buffer
		if err := WriteSnapshot(&buf, Snapshot{Entries: entries, Meta: meta}); err != nil {
			t.Fatalf("trial %d: write: %v", trial, err)
		}
		got, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("trial %d: read: %v", trial, err)
		}
		if !reflect.DeepEqual(got.Entries, entries) {
			t.Fatalf("trial %d: entries not restored equal", trial)
		}
		if !bytes.Equal(got.Meta, meta) {
			t.Fatalf("trial %d: meta not restored: got %x want %x", trial, got.Meta, meta)
		}
	}
}

func TestSnapshotRejectsCorruption(t *testing.T) {
	// Every single-byte corruption of a real snapshot must be rejected with
	// ErrCorruptSnapshot — never decoded into a served partition.
	s := New(WithWorkers(2), WithCacheSize(16))
	defer s.Close()
	fillSession(t, s, 3)
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, Snapshot{Entries: s.ExportCache()}); err != nil {
		t.Fatal(err)
	}
	clean := buf.Bytes()
	if _, err := ReadSnapshot(bytes.NewReader(clean)); err != nil {
		t.Fatalf("clean snapshot rejected: %v", err)
	}
	// Flip one byte at a spread of offsets covering magic, hash and payload.
	offsets := []int{0, 5, 8, 20, 39, 40, 41, len(clean) / 2, len(clean) - 1}
	for _, off := range offsets {
		corrupt := append([]byte(nil), clean...)
		corrupt[off] ^= 0x40
		_, err := ReadSnapshot(bytes.NewReader(corrupt))
		if err == nil {
			t.Fatalf("offset %d: corruption not detected", off)
		}
		if !errors.Is(err, ErrCorruptSnapshot) {
			t.Fatalf("offset %d: want ErrCorruptSnapshot, got %v", off, err)
		}
	}
	// Truncation at any point is also corruption.
	for _, cut := range []int{0, 4, 8, 39, 40, len(clean) - 1} {
		if _, err := ReadSnapshot(bytes.NewReader(clean[:cut])); !errors.Is(err, ErrCorruptSnapshot) {
			t.Fatalf("truncation at %d: want ErrCorruptSnapshot, got %v", cut, err)
		}
	}
}

func TestRecoverFromCorruptFileStartsCold(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.bin")
	s := New(WithWorkers(2), WithCacheSize(16))
	fillSession(t, s, 2)
	if n, err := s.SnapshotToFile(path, []byte("meta")); err != nil || n != 2 {
		t.Fatalf("snapshot: n=%d err=%v", n, err)
	}
	s.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := New(WithWorkers(2), WithCacheSize(16))
	defer s2.Close()
	meta, restored, err := s2.RecoverFromFile(path)
	if !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("want ErrCorruptSnapshot, got %v", err)
	}
	if restored != 0 || meta != nil {
		t.Fatalf("corrupt recovery must restore nothing, got restored=%d meta=%q", restored, meta)
	}
	if st := s2.Stats(); st.Cached != 0 {
		t.Fatalf("session must start cold after corrupt snapshot, cached=%d", st.Cached)
	}
	// Cold but healthy: a fresh request is a miss that executes normally.
	pl, _ := decomp.Compile("elkin-neiman", decomp.WithForceComplete())
	if _, err := s2.Run(context.Background(), pl.WithSeed(0), sessionGraph()); err != nil {
		t.Fatalf("cold run after rejected snapshot: %v", err)
	}
	st := s2.Stats()
	if st.Hits != 0 || st.Misses != 1 {
		t.Fatalf("want 0 hits / 1 miss after cold boot, got %+v", st)
	}
}

func TestRecoverMissingFileIsCleanColdStart(t *testing.T) {
	s := New(WithWorkers(1))
	defer s.Close()
	meta, n, err := s.RecoverFromFile(filepath.Join(t.TempDir(), "absent.bin"))
	if err != nil || n != 0 || meta != nil {
		t.Fatalf("missing file: meta=%q n=%d err=%v", meta, n, err)
	}
}

func TestSnapshotRestartServesIdenticalHits(t *testing.T) {
	// The acceptance-criteria shape at the session level: fill, snapshot,
	// "kill" (Close), reboot, re-request — every request is a cache hit
	// with a partition DeepEqual to the pre-restart serve.
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.bin")
	const seeds = 4

	s := New(WithWorkers(2), WithCacheSize(32))
	pl, before := fillSession(t, s, seeds)
	if n, err := s.SnapshotToFile(path, nil); err != nil || n != seeds {
		t.Fatalf("snapshot: n=%d err=%v", n, err)
	}
	s.Close()

	s2 := New(WithWorkers(2), WithCacheSize(32))
	defer s2.Close()
	if _, restored, err := s2.RecoverFromFile(path); err != nil || restored != seeds {
		t.Fatalf("recover: restored=%d err=%v", restored, err)
	}
	g := gen.Gnp(randx.New(11), 192, 0.05)
	for i := 0; i < seeds; i++ {
		p, err := s2.Run(context.Background(), pl.WithSeed(uint64(i)), g)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(p, before[i]) {
			t.Fatalf("seed %d: restored partition differs from pre-restart serve", i)
		}
	}
	st := s2.Stats()
	if st.Hits != seeds || st.Misses != 0 {
		t.Fatalf("want %d hits / 0 misses after recovery, got hits=%d misses=%d", seeds, st.Hits, st.Misses)
	}
}

// TestSeedCacheRespectsLRUBound: a snapshot larger than the cache keeps
// only its most recently used tail.
func TestSeedCacheRespectsLRUBound(t *testing.T) {
	s := New(WithWorkers(1), WithCacheSize(2))
	defer s.Close()
	p := &decomp.Partition{Algorithm: "x", N: 1, ClusterOf: []int{0},
		Clusters: []decomp.Cluster{{Members: []int{0}}}}
	entries := []CacheEntry{
		{Key: Key{Seed: 1}, Partition: p},
		{Key: Key{Seed: 2}, Partition: p},
		{Key: Key{Seed: 3}, Partition: p},
		{Key: Key{Seed: 4}, Partition: nil}, // skipped
	}
	if n := s.SeedCache(entries); n != 3 {
		t.Fatalf("want 3 seeded, got %d", n)
	}
	if st := s.Stats(); st.Cached != 2 {
		t.Fatalf("want cache bounded at 2, got %d", st.Cached)
	}
	// The most recently seeded keys survive.
	s.mu.Lock()
	_, ok2 := s.items[Key{Seed: 2}]
	_, ok3 := s.items[Key{Seed: 3}]
	_, ok1 := s.items[Key{Seed: 1}]
	s.mu.Unlock()
	if ok1 || !ok2 || !ok3 {
		t.Fatalf("want seeds {2,3} cached, got 1=%v 2=%v 3=%v", ok1, ok2, ok3)
	}
}
