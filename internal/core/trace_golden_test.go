package core

import (
	"context"
	"hash/fnv"
	"testing"

	"netdecomp/internal/dist"
	"netdecomp/internal/gen"
	"netdecomp/internal/randx"
)

// traceDigest folds a per-round statistics stream into one FNV-1a hash,
// field by field, so a golden value pins the stream bit-exactly.
func traceDigest(rows []dist.RoundStats) uint64 {
	h := fnv.New64a()
	w := func(x int64) {
		var buf [8]byte
		v := uint64(x)
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, r := range rows {
		w(int64(r.Round))
		w(r.Messages)
		w(r.Words)
		w(int64(r.Active))
	}
	return h.Sum64()
}

// TestEngineTraceGolden pins the exact per-round traffic of one seeded
// forced-complete elkin-neiman run across every execution path: the engine
// with the sequential and the goroutine-parallel scheduler, and the
// sequential simulation streaming through Exec.Observer. The golden values
// were recorded on the pre-arena engine (per-node []Envelope mailboxes,
// dense per-round scans); the arena mailboxes and the frontier-sparse
// simulation must reproduce them bit-for-bit.
func TestEngineTraceGolden(t *testing.T) {
	const (
		wantRounds = 85
		wantMsgs   = 2064
		wantWords  = 4706
		wantMaxW   = 4
		wantDigest = uint64(0x5b1c28cf0c115161) // recorded pre-arena, pre-frontier
	)
	g := gen.GnpConnected(randx.New(17), 96, 0.05)
	o := Options{K: 4, C: 8, Seed: 99, ForceComplete: true}

	check := func(t *testing.T, path string, rows []dist.RoundStats) {
		t.Helper()
		if len(rows) != wantRounds {
			t.Fatalf("%s: %d rounds, want %d", path, len(rows), wantRounds)
		}
		var msgs, words int64
		for _, r := range rows {
			msgs += r.Messages
			words += r.Words
		}
		if msgs != wantMsgs || words != wantWords {
			t.Fatalf("%s: totals %d msgs / %d words, want %d / %d", path, msgs, words, wantMsgs, wantWords)
		}
		if d := traceDigest(rows); d != wantDigest {
			t.Fatalf("%s: trace digest %#016x, want %#016x", path, d, wantDigest)
		}
	}

	t.Run("engine-sequential", func(t *testing.T) {
		var rows []dist.RoundStats
		dec, err := RunDistributed(context.Background(), g, o,
			dist.Options{Observer: func(rs dist.RoundStats) { rows = append(rows, rs) }})
		if err != nil {
			t.Fatal(err)
		}
		m := dec.Metrics
		if m.MaxMessageWords != wantMaxW {
			t.Fatalf("maxMsgWords %d, want %d", m.MaxMessageWords, wantMaxW)
		}
		check(t, "engine-sequential", rows)
	})
	t.Run("engine-parallel", func(t *testing.T) {
		for workers := 1; workers <= 4; workers++ {
			var rows []dist.RoundStats
			_, err := RunDistributed(context.Background(), g, o, dist.Options{
				Parallel: true, Workers: workers,
				Observer: func(rs dist.RoundStats) { rows = append(rows, rs) },
			})
			if err != nil {
				t.Fatal(err)
			}
			check(t, "engine-parallel", rows)
		}
	})
	t.Run("sim-observer", func(t *testing.T) {
		var rows []dist.RoundStats
		_, err := RunWith(g, o, Exec{Observer: func(rs dist.RoundStats) { rows = append(rows, rs) }})
		if err != nil {
			t.Fatal(err)
		}
		check(t, "sim-observer", rows)
	})
}
