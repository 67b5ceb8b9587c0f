package decomp

// The JSON form of a decomposition configuration. PlanSpec is the wire
// twin of Config: zero-valued fields select each algorithm's documented
// default, exactly like the CLI flags, and the field set mirrors Config
// one-for-one so a spec compiles through WithConfig verbatim — no
// option-by-option translation to drift. Both serving layers speak it:
// netdecompd's POST /v1/plans registers one, and a pipeline spec embeds
// one per decompose stage (internal/pipeline).

import "fmt"

// PlanSpec is the JSON form of a decomposition configuration — the
// compile-time half of a decompose request.
type PlanSpec struct {
	Algorithm     string  `json:"algorithm"`
	K             int     `json:"k,omitempty"`
	Lambda        int     `json:"lambda,omitempty"`
	C             float64 `json:"c,omitempty"`
	Beta          float64 `json:"beta,omitempty"`
	Seed          uint64  `json:"seed,omitempty"`
	ForceComplete bool    `json:"forceComplete,omitempty"`
	PhaseBudget   int     `json:"phaseBudget,omitempty"`
	ExactRadius   bool    `json:"exactRadius,omitempty"`
	Engine        bool    `json:"engine,omitempty"`
}

// Compile resolves the spec into an immutable Plan.
func (sp PlanSpec) Compile() (*Plan, error) {
	if sp.Algorithm == "" {
		return nil, fmt.Errorf("plan spec: algorithm is required (known: %v)", Names())
	}
	return Compile(sp.Algorithm, WithConfig(Config{
		Seed:          sp.Seed,
		K:             sp.K,
		Lambda:        sp.Lambda,
		C:             sp.C,
		Beta:          sp.Beta,
		ForceComplete: sp.ForceComplete,
		PhaseBudget:   sp.PhaseBudget,
		ExactRadius:   sp.ExactRadius,
		Engine:        sp.Engine,
	}))
}
