package core

import (
	"testing"
	"unsafe"

	"netdecomp/internal/randx"
)

// mergeRef is the top-two merge without the dominated-value reject, with
// its own tie rule: the tests' oracle. The dense phase loop folds through
// it, and TestTopTwoMergeMatchesRef holds merge to it.
func (t *topTwo) mergeRef(c int32, m float64) bool {
	switch c {
	case t.c1:
		if m > t.v1 {
			t.v1 = m
			return true
		}
		return false
	case t.c2:
		if m <= t.v2 {
			return false
		}
		t.v2 = m
		if beatsRef(t.v2, t.c2, t.v1, t.c1) {
			t.c1, t.c2 = t.c2, t.c1
			t.v1, t.v2 = t.v2, t.v1
		}
		return true
	}
	if beatsRef(m, c, t.v1, t.c1) {
		t.c2, t.v2 = t.c1, t.v1
		t.c1, t.v1 = c, m
		return true
	}
	if beatsRef(m, c, t.v2, t.c2) {
		t.c2, t.v2 = c, m
		return true
	}
	return false
}

// beatsRef reports whether candidate (c, m) outranks incumbent (ci, vi).
func beatsRef(m float64, c int32, vi float64, ci int32) bool {
	if ci == none {
		return true
	}
	return m > vi || (m == vi && c < ci)
}

// TestTopTwoMergeMatchesRef drives merge and mergeRef through the same
// random merge sequences on tie-heavy inputs: centers from a handful of
// ids, values on a half-step grid that includes 0 and repeats values
// often, so the reject's strict compare meets equality all the time. Each
// merge must report the same change and leave the same state.
func TestTopTwoMergeMatchesRef(t *testing.T) {
	rng := randx.New(61)
	for trial := 0; trial < 5000; trial++ {
		var got, want topTwo
		got.reset()
		want.reset()
		for step := 0; step < 12; step++ {
			c := int32(rng.Intn(5))
			m := float64(rng.Intn(9)) / 2
			before := got
			changed, wantChanged := got.merge(c, m), want.mergeRef(c, m)
			if changed != wantChanged || got != want {
				t.Fatalf("trial %d: merge(%d, %v) on %+v = %v -> %+v, reference %v -> %+v",
					trial, c, m, before, changed, got, wantChanged, want)
			}
		}
	}
}

// TestTopTwoIs24Bytes pins the layout every per-vertex state array of the
// simulation and every row of a repair table pays for.
func TestTopTwoIs24Bytes(t *testing.T) {
	if got := unsafe.Sizeof(topTwo{}); got != 24 {
		t.Fatalf("topTwo is %d bytes, want 24", got)
	}
}

func TestTopTwoMergeBasic(t *testing.T) {
	var s topTwo
	s.reset()
	if s.joins() {
		t.Fatal("empty state must not join")
	}
	if !s.merge(5, 3.0) {
		t.Fatal("first merge should change state")
	}
	if s.c1 != 5 || s.v1 != 3.0 {
		t.Fatalf("top slot wrong: %+v", s)
	}
	if s.second() != 0 {
		t.Fatalf("second() with one entry = %v, want 0", s.second())
	}
	// m1 - m2 = 3 > 1 → joins.
	if !s.joins() {
		t.Fatal("3 vs 0 should join")
	}
}

func TestTopTwoMergeOrderIndependent(t *testing.T) {
	// All permutations of three entries must yield the same top two.
	entries := []struct {
		c int32
		m float64
	}{{1, 5.0}, {2, 7.5}, {3, 6.25}}
	perms := [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	for _, p := range perms {
		var s topTwo
		s.reset()
		for _, i := range p {
			s.merge(entries[i].c, entries[i].m)
		}
		if s.c1 != 2 || s.v1 != 7.5 || s.c2 != 3 || s.v2 != 6.25 {
			t.Fatalf("perm %v: wrong top two: %+v", p, s)
		}
	}
}

func TestTopTwoSameCenterDedup(t *testing.T) {
	var s topTwo
	s.reset()
	s.merge(4, 9.0)
	// A worse value for the same center must not occupy the second slot.
	if s.merge(4, 8.0) {
		t.Fatal("worse same-center value reported as a change")
	}
	if s.c2 != none {
		t.Fatalf("same center occupies both slots: %+v", s)
	}
	// A better value for the same center upgrades in place.
	if !s.merge(4, 10.0) || s.v1 != 10.0 {
		t.Fatalf("same-center improvement failed: %+v", s)
	}
}

func TestTopTwoSecondSlotPromotion(t *testing.T) {
	var s topTwo
	s.reset()
	s.merge(1, 10.0)
	s.merge(2, 5.0)
	// Center 2 improves beyond center 1: slots must swap.
	s.merge(2, 12.0)
	if s.c1 != 2 || s.v1 != 12.0 || s.c2 != 1 || s.v2 != 10.0 {
		t.Fatalf("promotion failed: %+v", s)
	}
}

func TestTopTwoTieBreaksBySmallerCenter(t *testing.T) {
	var a, b topTwo
	a.reset()
	b.reset()
	a.merge(7, 4.0)
	a.merge(3, 4.0)
	b.merge(3, 4.0)
	b.merge(7, 4.0)
	if a != b {
		t.Fatalf("tie merge order-dependent: %+v vs %+v", a, b)
	}
	if a.c1 != 3 {
		t.Fatalf("tie should prefer smaller center, got %+v", a)
	}
}

func TestTopTwoJoinRuleBoundary(t *testing.T) {
	// The rule is strict: m1 - m2 > 1, not >= 1.
	var s topTwo
	s.reset()
	s.merge(1, 2.0)
	s.merge(2, 1.0)
	if s.joins() {
		t.Fatal("difference exactly 1 must not join")
	}
	s.merge(1, 2.01)
	if !s.joins() {
		t.Fatal("difference 1.01 must join")
	}
}

func TestTopTwoThirdValueIgnored(t *testing.T) {
	var s topTwo
	s.reset()
	s.merge(1, 10)
	s.merge(2, 9)
	changed := s.merge(3, 8)
	if changed {
		t.Fatal("third-ranked value should not change state")
	}
	if s.c1 != 1 || s.c2 != 2 {
		t.Fatalf("third value displaced a slot: %+v", s)
	}
}
