package skinnymine

import (
	"encoding/json"
	"io"
	"math"
	"strconv"
	"sync"

	"skinnymine/internal/graph"
)

// PatternJSON is the serialized form of a mined pattern. Vertices 0..l
// are the canonical diameter in order; Edges reference vertex indices.
type PatternJSON struct {
	Support        int        `json:"support"`
	DiameterLength int        `json:"diameter_length"`
	Skinniness     int        `json:"skinniness"`
	Labels         []string   `json:"labels"`
	Edges          [][2]int32 `json:"edges"`
	Backbone       []string   `json:"backbone"`
}

// ToJSON converts the pattern into its serializable form.
func (p *Pattern) ToJSON() PatternJSON {
	labels := make([]string, p.Vertices())
	for v := range labels {
		labels[v] = p.VertexLabel(VertexID(v))
	}
	edges := make([][2]int32, 0, p.Edges())
	for _, e := range p.EdgeList() {
		edges = append(edges, [2]int32{int32(e[0]), int32(e[1])})
	}
	return PatternJSON{
		Support:        p.Support(),
		DiameterLength: p.DiameterLength(),
		Skinniness:     p.Skinniness(),
		Labels:         labels,
		Edges:          edges,
		Backbone:       p.Backbone(),
	}
}

// ResultJSON is the serialized form of a mining result — the wire format
// both the CLI's -json output and the serving daemon's /v1/mine
// responses use.
type ResultJSON struct {
	Patterns []PatternJSON `json:"patterns"`
	Stats    StatsJSON     `json:"stats"`
}

// StatsJSON carries the full core.Stats search counters plus the stage
// timings. Timings are wall-clock and vary run to run; every counter is
// deterministic for a given request and worker count.
type StatsJSON struct {
	DiamMineMillis    float64 `json:"diammine_ms"`
	LevelGrowMillis   float64 `json:"levelgrow_ms"`
	PathsMined        int     `json:"paths_mined"`
	ExtensionsTried   int     `json:"extensions_tried"`
	Generated         int     `json:"generated"`
	Duplicates        int     `json:"duplicates"`
	ConstraintRejects [3]int  `json:"constraint_rejects"`
	FrequencyRejects  int     `json:"frequency_rejects"`
	CheckMismatches   int     `json:"check_mismatches"`
	OutputInvalid     int     `json:"output_invalid"`
	// PushdownRejects counts candidates (Stage I join candidates and
	// seeds, Stage II patterns with their ungrown subtrees) cut by
	// Where-constraint pushdown; OutputFilterRejects counts patterns
	// dropped by the per-pattern output check.
	PushdownRejects     int `json:"pushdown_rejects"`
	OutputFilterRejects int `json:"output_filter_rejects"`
}

// ToJSON converts the result into its serializable form.
func (r *Result) ToJSON() ResultJSON {
	out := ResultJSON{
		Stats: StatsJSON{
			DiamMineMillis:      float64(r.Stats.DiamMineTime.Microseconds()) / 1000,
			LevelGrowMillis:     float64(r.Stats.LevelGrowTime.Microseconds()) / 1000,
			PathsMined:          r.Stats.PathsMined,
			ExtensionsTried:     r.Stats.ExtensionsTried,
			Generated:           r.Stats.Generated,
			Duplicates:          r.Stats.Duplicates,
			ConstraintRejects:   r.Stats.ConstraintRejects,
			FrequencyRejects:    r.Stats.FrequencyRejects,
			CheckMismatches:     r.Stats.CheckMismatches,
			OutputInvalid:       r.Stats.OutputInvalid,
			PushdownRejects:     r.Stats.PushdownRejects,
			OutputFilterRejects: r.Stats.OutputFilterRejects,
		},
	}
	for _, p := range r.Patterns {
		out.Patterns = append(out.Patterns, p.ToJSON())
	}
	return out
}

// WriteJSON serializes the result as indented JSON: the bytes a
// json.Encoder with SetIndent("", "  ") writes for ToJSON's value,
// which TestWriteJSONMatchesEncoder and FuzzWriteJSON hold it to. It
// writes them in one pass, without reflection, into pooled scratch,
// and makes one Write.
func (r *Result) WriteJSON(w io.Writer) error {
	bp := encodeScratch.Get().(*[]byte)
	b := r.appendJSON((*bp)[:0])
	_, err := w.Write(b)
	if cap(b) <= maxPooledScratch {
		*bp = b
		encodeScratch.Put(bp)
	}
	return err
}

// encodeScratch holds WriteJSON's output buffers. A buffer that grew
// past maxPooledScratch is dropped rather than kept alive by the pool.
var encodeScratch = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledScratch = 4 << 20

// appendJSON appends WriteJSON's bytes to b. The layout is the
// Encoder's: one member or element per line, two spaces per depth,
// "[]" for an empty array and null for a result without patterns.
func (r *Result) appendJSON(b []byte) []byte {
	b = append(b, "{\n  \"patterns\": "...)
	if len(r.Patterns) == 0 {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, p := range r.Patterns {
			if i > 0 {
				b = append(b, ',')
			}
			b = p.appendJSON(b)
		}
		b = append(b, "\n  ]"...)
	}
	st := &r.Stats
	b = append(b, ",\n  \"stats\": {\n    \"diammine_ms\": "...)
	b = appendFloat(b, float64(st.DiamMineTime.Microseconds())/1000)
	b = append(b, ",\n    \"levelgrow_ms\": "...)
	b = appendFloat(b, float64(st.LevelGrowTime.Microseconds())/1000)
	b = appendField(b, "paths_mined", st.PathsMined)
	b = appendField(b, "extensions_tried", st.ExtensionsTried)
	b = appendField(b, "generated", st.Generated)
	b = appendField(b, "duplicates", st.Duplicates)
	b = append(b, ",\n    \"constraint_rejects\": ["...)
	for i, n := range st.ConstraintRejects {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, "\n      "...)
		b = strconv.AppendInt(b, int64(n), 10)
	}
	b = append(b, "\n    ]"...)
	b = appendField(b, "frequency_rejects", st.FrequencyRejects)
	b = appendField(b, "check_mismatches", st.CheckMismatches)
	b = appendField(b, "output_invalid", st.OutputInvalid)
	b = appendField(b, "pushdown_rejects", st.PushdownRejects)
	b = appendField(b, "output_filter_rejects", st.OutputFilterRejects)
	return append(b, "\n  }\n}\n"...)
}

// appendJSON appends the pattern as an element of the result's
// patterns array: PatternJSON's fields at depth 3, edges in
// Graph.Edges order.
func (p *Pattern) appendJSON(b []byte) []byte {
	g := p.p.G
	b = append(b, "\n    {\n      \"support\": "...)
	b = strconv.AppendInt(b, int64(p.Support()), 10)
	b = append(b, ",\n      \"diameter_length\": "...)
	b = strconv.AppendInt(b, int64(p.DiameterLength()), 10)
	b = append(b, ",\n      \"skinniness\": "...)
	b = strconv.AppendInt(b, int64(p.Skinniness()), 10)
	b = append(b, ",\n      \"labels\": "...)
	b = p.appendLabels(b, g.N())
	b = append(b, ",\n      \"edges\": "...)
	if g.M() == 0 {
		b = append(b, "[]"...)
	} else {
		sep := byte('[')
		for u := graph.V(0); int(u) < g.N(); u++ {
			for _, w := range g.Neighbors(u) {
				if u >= w {
					continue
				}
				b = append(b, sep)
				sep = ','
				b = append(b, "\n        [\n          "...)
				b = strconv.AppendInt(b, int64(u), 10)
				b = append(b, ",\n          "...)
				b = strconv.AppendInt(b, int64(w), 10)
				b = append(b, "\n        ]"...)
			}
		}
		b = append(b, "\n      ]"...)
	}
	b = append(b, ",\n      \"backbone\": "...)
	b = p.appendLabels(b, p.DiameterLength()+1)
	return append(b, "\n    }"...)
}

// appendLabels appends the labels of vertices 0..n-1 as an array at
// depth 3.
func (p *Pattern) appendLabels(b []byte, n int) []byte {
	if n == 0 {
		return append(b, "[]"...)
	}
	b = append(b, '[')
	for v := 0; v < n; v++ {
		if v > 0 {
			b = append(b, ',')
		}
		b = append(b, "\n        "...)
		b = appendString(b, p.VertexLabel(VertexID(v)))
	}
	return append(b, "\n      ]"...)
}

// appendField appends one integer member of the stats object.
func appendField(b []byte, name string, n int) []byte {
	b = append(b, ",\n    \""...)
	b = append(b, name...)
	b = append(b, "\": "...)
	return strconv.AppendInt(b, int64(n), 10)
}

// appendString appends s as a JSON string escaped as encoding/json
// escapes it with HTML escaping on. Printable ASCII other than the
// quote, the backslash and <, > and & is copied as is; any other string
// goes through json.Marshal, which escapes control bytes, U+2028 and
// U+2029 and replaces invalid UTF-8 with U+FFFD.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendFloat appends f as encoding/json writes a float64: the
// shortest 'f' form, or the 'e' form outside [1e-6, 1e21) with a
// one-digit exponent's leading zero removed (e-07 becomes e-7).
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}
