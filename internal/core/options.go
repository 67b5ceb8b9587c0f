// Package core implements the randomized distributed strong-diameter
// network decomposition algorithm of Elkin and Neiman (PODC 2016,
// arXiv:1602.05437), in all three parameter regimes of the paper:
//
//   - Theorem 1: a strong (2k−2, (cn)^{1/k}·ln(cn)) decomposition in
//     k·(cn)^{1/k}·ln(cn) rounds, success probability ≥ 1 − 3/c.
//   - Theorem 2: color count improved to 4k(cn)^{1/k} by a staged schedule
//     of the exponential rate β, in O(k²(cn)^{1/k}) rounds, probability
//     ≥ 1 − 5/c.
//   - Theorem 3: the high-radius regime with at most λ colors and strong
//     diameter 2(cn)^{1/λ}·ln(cn), obtained by inverting the tradeoff.
//
// The algorithm proceeds in phases. In phase t every surviving vertex v
// draws r_v ~ Exp(β) and broadcasts it ⌊r_v⌋ hops into the surviving graph
// G_t; every vertex y compares the shifted values m_i = r_{v_i} −
// d_{G_t}(y, v_i) that reached it and joins the phase's block W_t exactly
// when the largest exceeds the second largest by more than 1. The connected
// components of G_t(W_t) become clusters, all colored with the phase
// number; then W_t is removed and the next phase begins.
//
// Run executes the algorithm as a faithful round-by-round simulation (each
// round every vertex forwards only its top two shifted values — the
// CONGEST discipline of Section 2 of the paper). RunDistributed executes
// the identical node program on the internal/dist message-passing engine;
// both produce the same decomposition for the same Options.Seed.
package core

import (
	"errors"
	"fmt"
	"math"
)

// Variant selects which theorem's parameterization drives the phase
// schedule.
type Variant int

// Supported parameter regimes. Values start at 1 so the zero value is
// detectable and defaults to Theorem1.
const (
	// Theorem1 uses a single exponential rate β = ln(cn)/k for every phase
	// and a budget of ⌈(cn)^{1/k}·ln(cn)⌉ phases.
	Theorem1 Variant = iota + 1
	// Theorem2 uses the staged schedule of Section 2.1: stage i runs
	// ⌈2(cn/eⁱ)^{1/k}⌉ phases at rate βᵢ = ln(cn/eⁱ)/k, improving the
	// color bound to 4k(cn)^{1/k}.
	Theorem2
	// Theorem3 is the high-radius regime of Section 2.2: the caller fixes
	// the color budget λ and the radius parameter is derived as
	// k = ⌈(cn)^{1/λ}·ln(cn)⌉.
	Theorem3
)

// String returns the variant name.
func (v Variant) String() string {
	switch v {
	case Theorem1:
		return "theorem1"
	case Theorem2:
		return "theorem2"
	case Theorem3:
		return "theorem3"
	default:
		return fmt.Sprintf("variant(%d)", int(v))
	}
}

// ParseVariant converts a CLI name into a Variant.
func ParseVariant(s string) (Variant, error) {
	switch s {
	case "theorem1", "t1":
		return Theorem1, nil
	case "theorem2", "t2":
		return Theorem2, nil
	case "theorem3", "t3":
		return Theorem3, nil
	}
	return 0, fmt.Errorf("core: unknown variant %q", s)
}

// RadiusMode controls what happens to the rare broadcasts whose sampled
// radius exceeds the per-phase round budget k (the events E_v of Lemma 1).
type RadiusMode int

const (
	// RadiusCap is the paper's algorithm: each phase runs exactly k rounds,
	// so a broadcast with ⌊r_v⌋ > k is truncated by the round budget. The
	// analysis conditions on no such event; Lemma 1 bounds their total
	// probability by 2/c.
	RadiusCap RadiusMode = iota + 1
	// RadiusExact runs each phase for max_v ⌊r_v⌋ rounds, so no broadcast
	// is ever truncated. The decomposition is then always center-uniform
	// (Claim 3 holds unconditionally) at the price of a data-dependent
	// round count and diameter bound.
	RadiusExact
)

// String returns the mode name.
func (m RadiusMode) String() string {
	switch m {
	case RadiusCap:
		return "cap"
	case RadiusExact:
		return "exact"
	default:
		return fmt.Sprintf("radiusmode(%d)", int(m))
	}
}

// Options configures a decomposition run. The zero value is not directly
// runnable; Run applies the documented defaults first and then validates.
type Options struct {
	// Variant selects the theorem; default Theorem1.
	Variant Variant
	// K is the radius parameter of Theorems 1 and 2 (strong diameter
	// ≤ 2K−2). Default ⌈ln n⌉, which yields the headline strong
	// (O(log n), O(log n)) decomposition. Ignored by Theorem3.
	K int
	// Lambda is the color budget of Theorem 3. Required (≥ 1) when
	// Variant == Theorem3, ignored otherwise.
	Lambda int
	// C is the confidence parameter c: the failure probability is at most
	// 3/c (Theorems 1 and 3) or 5/c (Theorem 2). Default 8. Must exceed 3
	// (respectively 5).
	C float64
	// Seed drives all randomness. Runs with equal options are identical.
	Seed uint64
	// RadiusMode selects truncation semantics; default RadiusCap (the
	// paper's algorithm).
	RadiusMode RadiusMode
	// PhaseBudget overrides the theorem's phase budget when positive.
	PhaseBudget int
	// ForceComplete keeps carving extra phases (at the final β) after the
	// theorem budget until every vertex is clustered. The color count may
	// then exceed the theorem bound; the probability of needing extra
	// phases is at most 1/c. Applications that need a total partition set
	// this.
	ForceComplete bool
	// CaptureTrace records per-phase alive sets, radii and centers in
	// Decomposition.Trace for validators and experiments. Memory cost is
	// O(n · phases).
	CaptureTrace bool
}

// errInvalidOptions tags all option validation failures.
var errInvalidOptions = errors.New("core: invalid options")

// schedule is the resolved per-phase plan derived from Options.
type schedule struct {
	k      int       // rounds per phase and radius cap
	betas  []float64 // exponential rate per phase; len == phase budget
	budget int       // len(betas)
}

// Validate applies the documented defaults to o and reports why it cannot
// run on any graph, or nil. Run and Repair begin with exactly these checks
// (RunDistributed with ValidateDistributed's), so options that pass fail
// later only for a reason of the graph or the run.
func (o Options) Validate() error {
	_, err := o.withDefaults()
	return err
}

// ValidateDistributed is Validate for RunDistributed, which also refuses
// what a node program cannot do whatever the graph.
func (o Options) ValidateDistributed() error {
	o, err := o.withDefaults()
	if err != nil {
		return err
	}
	return o.nodeProgramError()
}

// withDefaults applies the defaults that do not depend on the graph and
// makes the checks that do not either; resolve derives the rest from n.
func (o Options) withDefaults() (Options, error) {
	if o.Variant == 0 {
		o.Variant = Theorem1
	}
	if o.C == 0 {
		o.C = 8
	}
	if o.RadiusMode == 0 {
		o.RadiusMode = RadiusCap
	}
	minC := 3.0
	if o.Variant == Theorem2 {
		minC = 5.0
	}
	if o.C <= minC {
		return o, fmt.Errorf("%w: C=%v must exceed %v for %v", errInvalidOptions, o.C, minC, o.Variant)
	}
	switch o.Variant {
	case Theorem1, Theorem2:
		if o.K < 0 {
			return o, fmt.Errorf("%w: K=%d must be at least 1, or 0 for the default", errInvalidOptions, o.K)
		}
	case Theorem3:
		if o.Lambda < 1 {
			return o, fmt.Errorf("%w: Theorem3 requires Lambda >= 1, got %d", errInvalidOptions, o.Lambda)
		}
	default:
		return o, fmt.Errorf("%w: unknown variant %d", errInvalidOptions, int(o.Variant))
	}
	return o, nil
}

// resolve applies defaults and computes the phase schedule for a graph on n
// vertices. It returns the effective options alongside the schedule.
func resolve(n int, o Options) (Options, schedule, error) {
	o, err := o.withDefaults()
	if err != nil {
		return o, schedule{}, err
	}
	if n == 0 {
		// Trivial: one empty schedule.
		return o, schedule{k: 1}, nil
	}
	cn := o.C * float64(n)
	lncn := math.Log(cn)
	if o.K == 0 && o.Variant != Theorem3 {
		o.K = max(1, int(math.Ceil(math.Log(float64(n)))))
	}

	var s schedule
	switch o.Variant {
	case Theorem1:
		s.k = o.K
		beta := lncn / float64(o.K)
		s.budget = int(math.Ceil(math.Pow(cn, 1/float64(o.K)) * lncn))
		if s.budget < 1 {
			s.budget = 1
		}
		s.betas = make([]float64, s.budget)
		for i := range s.betas {
			s.betas[i] = beta
		}
	case Theorem2:
		s.k = o.K
		stages := int(math.Floor(math.Log(float64(n)))) + 1
		for i := 0; i < stages; i++ {
			cnei := cn / math.Exp(float64(i))
			if cnei <= 1 {
				break
			}
			beta := math.Log(cnei) / float64(o.K)
			phases := int(math.Ceil(2 * math.Pow(cnei, 1/float64(o.K))))
			for p := 0; p < phases; p++ {
				s.betas = append(s.betas, beta)
			}
		}
		s.budget = len(s.betas)
	case Theorem3:
		s.k = int(math.Ceil(math.Pow(cn, 1/float64(o.Lambda)) * lncn))
		if s.k < 1 {
			s.k = 1
		}
		beta := lncn / float64(s.k)
		s.budget = o.Lambda
		s.betas = make([]float64, s.budget)
		for i := range s.betas {
			s.betas[i] = beta
		}
	}
	if o.PhaseBudget > 0 {
		// Truncate or extend (with the final β) to the requested budget.
		last := s.betas[len(s.betas)-1]
		for len(s.betas) < o.PhaseBudget {
			s.betas = append(s.betas, last)
		}
		s.betas = s.betas[:o.PhaseBudget]
		s.budget = o.PhaseBudget
	}
	return o, s, nil
}

// TheoremDiameterBound returns the strong-diameter bound the selected
// theorem promises for these options on an n-vertex graph (2k−2 for
// Theorems 1 and 2, with Theorem 3's derived k).
func TheoremDiameterBound(n int, o Options) (int, error) {
	_, s, err := resolve(n, o)
	if err != nil {
		return 0, err
	}
	d := 2*s.k - 2
	if d < 0 {
		d = 0
	}
	return d, nil
}

// TheoremColorBound returns the color bound promised by the selected
// theorem for an n-vertex graph: (cn)^{1/k}·ln(cn) for Theorem 1,
// 4k(cn)^{1/k} for Theorem 2, λ for Theorem 3.
func TheoremColorBound(n int, o Options) (float64, error) {
	o2, _, err := resolve(n, o)
	if err != nil {
		return 0, err
	}
	cn := o2.C * float64(n)
	switch o2.Variant {
	case Theorem1:
		return math.Pow(cn, 1/float64(o2.K)) * math.Log(cn), nil
	case Theorem2:
		return 4 * float64(o2.K) * math.Pow(cn, 1/float64(o2.K)), nil
	default:
		return float64(o2.Lambda), nil
	}
}

// TheoremRoundBound returns the round bound promised by the selected
// theorem: k·(cn)^{1/k}·ln(cn) for Theorem 1, 4k²(cn)^{1/k} for Theorem 2
// (the constant behind the paper's O(k²(cn)^{1/k})), λ·k for Theorem 3.
func TheoremRoundBound(n int, o Options) (float64, error) {
	_, s, err := resolve(n, o)
	if err != nil {
		return 0, err
	}
	return float64(s.budget) * float64(s.k), nil
}
