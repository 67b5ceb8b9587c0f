package partition

// Stable JSON marshalling for the API surface. encoding/json on a struct
// is already order-stable, but hand-rolling the encoder here makes the
// contract explicit and independent of field reordering in the Go types:
// the serving daemon's responses and the snapshot metadata in tests are
// byte-diffable across builds. Frozen.AppendJSON is the one partition
// encoder; field order is frozen there, strings are quoted exactly as
// encoding/json quotes them, and floats are rendered with strconv's
// shortest round-trip form ('g', -1), which is deterministic across
// platforms — no exponent/precision drift.

import (
	"fmt"
	"slices"
	"strconv"
	"sync"
	"unicode/utf8"
)

// MarshalJSON renders the mode by name ("strong"/"weak"), matching the
// stable Partition document.
func (m DiameterMode) MarshalJSON() ([]byte, error) {
	return AppendJSONString(nil, m.String()), nil
}

// UnmarshalJSON accepts the names MarshalJSON emits, so clients (and the
// serving daemon's own tests) can decode the stable document back into the
// Go types.
func (m *DiameterMode) UnmarshalJSON(data []byte) error {
	s, err := strconv.Unquote(string(data))
	if err != nil {
		return fmt.Errorf("partition: diameter mode %s: %w", data, err)
	}
	switch s {
	case "strong":
		*m = StrongDiameter
	case "weak":
		*m = WeakDiameter
	default:
		return fmt.Errorf("partition: unknown diameter mode %q", s)
	}
	return nil
}

// AppendJSONString appends s as a JSON string exactly as encoding/json
// writes one: HTML-safe (<, > and & become \u003c, \u003e, \u0026), U+2028
// and U+2029 escaped, control characters escaped, and every byte of
// invalid UTF-8 replaced by \ufffd. strconv.AppendQuote is not a substitute
// — it writes Go escapes such as \x01, which are not JSON.
func AppendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// AppendJSON appends the partition document with frozen field order:
// algorithm, n, clusters[{members, center, phase, color}], clusterOf,
// colors, phasesUsed, phaseBudget, complete, mode, properColors,
// metrics{rounds, messages, words, maxMessageWords}, cutEdges,
// cutFraction. It is the one partition encoder: Partition.MarshalJSON and
// Cluster.MarshalJSON delegate to it, and the serving daemon writes it
// straight into its response buffer. The document is byte-stable for
// equal partitions across builds and platforms.
func (f *Frozen) AppendJSON(b []byte) []byte {
	b = append(b, `{"algorithm":`...)
	b = AppendJSONString(b, f.algorithm)
	b = append(b, `,"n":`...)
	b = strconv.AppendInt(b, int64(f.n), 10)
	b = append(b, `,"clusters":[`...)
	for i := range f.center {
		if i > 0 {
			b = append(b, ',')
		}
		b = f.appendCluster(b, i)
	}
	b = append(b, `],"clusterOf":`...)
	if f.clusterOf != nil || f.nAssigned == 0 {
		b = appendInt32s(b, f.clusterOf)
	} else {
		b = f.appendImpliedAssignment(b)
	}
	b = append(b, `,"colors":`...)
	b = strconv.AppendInt(b, int64(f.colors), 10)
	b = append(b, `,"phasesUsed":`...)
	b = strconv.AppendInt(b, int64(f.phasesUsed), 10)
	b = append(b, `,"phaseBudget":`...)
	b = strconv.AppendInt(b, int64(f.phaseBudget), 10)
	b = append(b, `,"complete":`...)
	b = strconv.AppendBool(b, f.complete)
	b = append(b, `,"mode":`...)
	b = AppendJSONString(b, f.mode.String())
	b = append(b, `,"properColors":`...)
	b = strconv.AppendBool(b, f.properColors)
	b = append(b, `,"metrics":{"rounds":`...)
	b = strconv.AppendInt(b, int64(f.metrics.Rounds), 10)
	b = append(b, `,"messages":`...)
	b = strconv.AppendInt(b, f.metrics.Messages, 10)
	b = append(b, `,"words":`...)
	b = strconv.AppendInt(b, f.metrics.Words, 10)
	b = append(b, `,"maxMessageWords":`...)
	b = strconv.AppendInt(b, int64(f.metrics.MaxMessageWords), 10)
	b = append(b, `},"cutEdges":`...)
	b = strconv.AppendInt(b, int64(f.cutEdges), 10)
	b = append(b, `,"cutFraction":`...)
	b = strconv.AppendFloat(b, f.cutFraction, 'g', -1, 64)
	return append(b, '}')
}

// scratch recycles the column appendImpliedAssignment rebuilds an
// assignment in, so a warm hit encodes without allocating.
var scratch = sync.Pool{New: func() any { return new([]int32) }}

// appendImpliedAssignment appends the assignment the members imply.
func (f *Frozen) appendImpliedAssignment(b []byte) []byte {
	buf := scratch.Get().(*[]int32)
	*buf = slices.Grow((*buf)[:0], f.nAssigned)[:f.nAssigned]
	assignment(f, *buf)
	b = appendInt32s(b, *buf)
	scratch.Put(buf)
	return b
}

// appendCluster appends cluster i's document.
func (f *Frozen) appendCluster(b []byte, i int) []byte {
	b = append(b, `{"members":`...)
	b = appendInt32s(b, f.members[f.offsets[i]:f.offsets[i+1]])
	b = append(b, `,"center":`...)
	b = strconv.AppendInt(b, int64(f.center[i]), 10)
	b = append(b, `,"phase":`...)
	b = strconv.AppendInt(b, int64(f.phase[i]), 10)
	b = append(b, `,"color":`...)
	b = strconv.AppendInt(b, int64(f.color[i]), 10)
	return append(b, '}')
}

// appendInt32s appends xs as a JSON array.
func appendInt32s(b []byte, xs []int32) []byte {
	b = append(b, '[')
	for i, x := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(x), 10)
	}
	return append(b, ']')
}

// MarshalJSON renders the cluster with frozen field order: members,
// center, phase, color (see Frozen.AppendJSON).
func (c Cluster) MarshalJSON() ([]byte, error) {
	f, err := (&Partition{Clusters: []Cluster{c}}).Freeze()
	if err != nil {
		return nil, err
	}
	return f.appendCluster(nil, 0), nil
}

// MarshalJSON renders the partition document of Frozen.AppendJSON. A
// partition that cannot be frozen (a value outside int32) is an error.
func (p *Partition) MarshalJSON() ([]byte, error) {
	f, err := p.Freeze()
	if err != nil {
		return nil, err
	}
	return f.AppendJSON(nil), nil
}
