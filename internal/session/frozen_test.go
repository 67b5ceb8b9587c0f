package session_test

// The frozen cache entry: the session keeps each result once, as an
// immutable decomp.Frozen, hands mutable callers fresh copies and
// read-only callers the shared value, and refuses to cache a result the
// compact form cannot hold.

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"netdecomp/internal/decomp"
	"netdecomp/internal/gen"
	"netdecomp/internal/graph"
	"netdecomp/internal/session"
)

// TestFreezeFailureCachesNothing: a result with a value outside int32
// resolves its execution with the freeze error, and nothing is cached —
// the next submission executes again.
func TestFreezeFailureCachesNothing(t *testing.T) {
	runs := 0
	s := session.New(session.WithWorkers(1), session.WithRunner(
		func(_ context.Context, _ *decomp.Plan, g graph.Interface) (*decomp.Partition, error) {
			runs++
			return &decomp.Partition{N: g.N(), Clusters: []decomp.Cluster{{Members: []int{0, math.MaxInt32 + 1}}}}, nil
		}))
	defer s.Close()
	pl, err := decomp.Compile("elkin-neiman", decomp.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	g := gen.Grid(3, 3)
	for i := 1; i <= 2; i++ {
		if p, err := s.Run(context.Background(), pl, g); err == nil || !strings.Contains(err.Error(), "outside int32") {
			t.Fatalf("run %d: got %v, %v; want the freeze error", i, p, err)
		}
		if st := s.Stats(); st.Cached != 0 || st.Misses != uint64(i) || st.Hits != 0 {
			t.Fatalf("run %d: stats %+v, want %d misses and nothing cached", i, st, i)
		}
	}
	if runs != 2 {
		t.Fatalf("runner ran %d times, want 2 (a failed freeze must not cache)", runs)
	}
	if _, ok := s.PeekFrozen(pl, g); ok {
		t.Fatal("PeekFrozen hit after a failed freeze")
	}
}

// TestPeekFrozenSharesAndCounts: PeekFrozen and Job.WaitFrozen return the
// one shared frozen entry and count hits exactly as Peek does, while Peek,
// Run and Wait materialize an independent copy per call.
func TestPeekFrozenSharesAndCounts(t *testing.T) {
	s := session.New(session.WithWorkers(1))
	defer s.Close()
	ctx := context.Background()
	pl, err := decomp.Compile("elkin-neiman", decomp.WithForceComplete(), decomp.WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	g, err := gen.Build(gen.FamilyGnp, 120, 2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := pl.Run(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.PeekFrozen(pl, g); ok {
		t.Fatal("PeekFrozen hit an empty cache")
	}
	if _, err := s.Run(ctx, pl, g); err != nil {
		t.Fatal(err)
	}
	f1, ok1 := s.PeekFrozen(pl, g)
	f2, ok2 := s.PeekFrozen(pl, g)
	j := s.Submit(ctx, pl, g)
	f3, err := j.WaitFrozen()
	if !ok1 || !ok2 || err != nil || !j.CacheHit() {
		t.Fatalf("warm reads missed: %v %v %v %v", ok1, ok2, err, j.CacheHit())
	}
	if f1 != f2 || f1 != f3 {
		t.Fatal("warm frozen reads returned different values, not the shared entry")
	}
	if st := s.Stats(); st.Hits != 3 || st.Misses != 1 {
		t.Fatalf("stats %+v, want 3 hits and 1 miss", st)
	}
	if !reflect.DeepEqual(f1.Partition(), want) {
		t.Fatal("the frozen entry materializes to something other than Plan.Run's result")
	}
	p1, _ := s.Peek(pl, g)
	p2, err := j.Wait()
	if err != nil {
		t.Fatal(err)
	}
	p1.Clusters[0].Members[0] = -1
	p1.ClusterOf[0] = -1
	if !reflect.DeepEqual(p2, want) || !reflect.DeepEqual(f1.Partition(), want) {
		t.Fatal("mutating one materialized copy reached another copy or the cache")
	}
}

// TestConcurrentWarmHitsUnderEviction is the race test of the shared
// entries: readers Peek, Run and encode PeekFrozen results of hot keys
// while a churner evicts through the LRU bound and an invalidator drops the
// hot graph's entries. Every read is either a miss that recomputes or the
// exact expected result. Run it under -race.
func TestConcurrentWarmHitsUnderEviction(t *testing.T) {
	const hot = 3
	s := session.New(session.WithWorkers(2), session.WithCacheSize(4))
	defer s.Close()
	ctx := context.Background()
	pl, err := decomp.Compile("elkin-neiman", decomp.WithForceComplete())
	if err != nil {
		t.Fatal(err)
	}
	g, err := gen.Build(gen.FamilyGnp, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	other, err := gen.Build(gen.FamilyGnp, 48, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]*decomp.Partition, hot)
	wantJSON := make([][]byte, hot)
	for k := range want {
		if want[k], err = pl.WithSeed(uint64(k)).Run(ctx, g); err != nil {
			t.Fatal(err)
		}
		if wantJSON[k], err = want[k].MarshalJSON(); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, 5) // four readers and the churner send at most once each
	done := make(chan struct{})
	reader := func(id int) {
		defer wg.Done()
		// Read until the churner has evicted a few entries as well.
		for i := 0; i < 60 || s.Stats().Evictions < 3; i++ {
			k := (id + i) % hot
			kp := pl.WithSeed(uint64(k))
			switch i % 3 {
			case 0:
				if p, ok := s.Peek(kp, g); ok && !reflect.DeepEqual(p, want[k]) {
					errs <- fmt.Errorf("reader %d: Peek of key %d returned a wrong partition", id, k)
					return
				}
			case 1:
				p, err := s.Run(ctx, kp, g)
				if err != nil || !reflect.DeepEqual(p, want[k]) {
					errs <- fmt.Errorf("reader %d: Run of key %d: %v", id, k, err)
					return
				}
				p.ClusterOf[0] = -5 // callers own their copies
			default:
				if f, ok := s.PeekFrozen(kp, g); ok && !bytes.Equal(f.AppendJSON(nil), wantJSON[k]) {
					errs <- fmt.Errorf("reader %d: encoded PeekFrozen of key %d differs", id, k)
					return
				}
			}
		}
	}
	for id := 0; id < 4; id++ {
		wg.Add(1)
		go reader(id)
	}
	var churn sync.WaitGroup
	churn.Add(2)
	go func() { // LRU eviction: fresh keys on another graph
		defer churn.Done()
		for seed := uint64(100); ; seed++ {
			select {
			case <-done:
				return
			default:
			}
			if _, err := s.Run(ctx, pl.WithSeed(seed), other); err != nil {
				errs <- err
				return
			}
		}
	}()
	go func() { // invalidation of the hot graph
		defer churn.Done()
		fp := graph.Fingerprint(g)
		for {
			select {
			case <-done:
				return
			default:
			}
			s.InvalidateGraph(fp)
			time.Sleep(20 * time.Microsecond)
		}
	}()
	wg.Wait()
	close(done)
	churn.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
