package skinnymine

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"testing"
	"time"

	"skinnymine/internal/testutil"
)

// writeJSONReference is the encoder WriteJSON replaced, kept as its
// reference: a json.Encoder with SetIndent("", "  ") over ToJSON.
func writeJSONReference(r *Result, w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.ToJSON())
}

// checkWriteJSON fails tb unless WriteJSON and the reference encoder
// write the same bytes for res.
func checkWriteJSON(tb testing.TB, name string, res *Result) {
	tb.Helper()
	var got, want bytes.Buffer
	if err := res.WriteJSON(&got); err != nil {
		tb.Fatal(err)
	}
	if err := writeJSONReference(res, &want); err != nil {
		tb.Fatal(err)
	}
	if g, w := got.Bytes(), want.Bytes(); !bytes.Equal(g, w) {
		i := 0
		for i < len(g) && i < len(w) && g[i] == w[i] {
			i++
		}
		tb.Errorf("%s: WriteJSON differs from the reference encoder at byte %d of %d:\ngot  %q\nwant %q",
			name, i, len(w), g[max(0, i-40):min(len(g), i+40)], w[max(0, i-40):min(len(w), i+40)])
	}
}

// escapeLabels are label names that exercise every escaping rule of
// encoding/json's string encoder with HTML escaping on.
var escapeLabels = []string{
	"<a>", "x&y", `"q"`, `back\slash`, "tab\there", "ctl\x01", "héllo 日本",
	"line\u2028sep", "para\u2029sep", "bad\xffutf8",
}

// TestWriteJSONMatchesEncoder holds WriteJSON to the reflection encoder
// it replaced, byte for byte: over enumeration, maximal-only, l=1, a
// length band and an empty result on two graphs, over label names that
// need escaping, and over stats timings from zero to hours.
func TestWriteJSONMatchesEncoder(t *testing.T) {
	synthGraph := wrapRaw(8, testutil.SynthWorkload(17, 60))[0]
	escapes := NewGraph()
	for c := 0; c < 2; c++ {
		var prev VertexID
		for i, name := range escapeLabels {
			v := escapes.AddVertex(name)
			if i > 0 {
				if err := escapes.AddEdge(prev, v); err != nil {
					t.Fatal(err)
				}
			}
			prev = v
		}
	}
	for _, tc := range []struct {
		name string
		g    *Graph
		opt  Options
	}{
		{"trajectory enumeration", buildTrajectoryGraph(t), Options{Support: 2, Length: 4, Delta: 1}},
		{"trajectory maximal", buildTrajectoryGraph(t), Options{Support: 2, Length: 4, Delta: 2, MaximalOnly: true}},
		{"trajectory l=1", buildTrajectoryGraph(t), Options{Support: 2, Length: 1, Delta: 0}},
		{"trajectory band", buildTrajectoryGraph(t), Options{Support: 2, MinLength: 2, Length: 4, Delta: 2}},
		{"trajectory empty", buildTrajectoryGraph(t), Options{Support: 9, Length: 4, Delta: 1}},
		{"synth enumeration", synthGraph, Options{Support: 2, Length: 3, Delta: 1}},
		{"synth maximal", synthGraph, Options{Support: 2, Length: 4, Delta: 2, MaximalOnly: true}},
		{"synth l=1", synthGraph, Options{Support: 2, Length: 1, Delta: 0}},
		{"synth band", synthGraph, Options{Support: 2, MinLength: 2, Length: 3, Delta: 1}},
		{"synth empty", synthGraph, Options{Support: 1000, Length: 3, Delta: 1}},
		{"escaped labels", escapes, Options{Support: 2, MinLength: 1, Length: 3, Delta: 1}},
	} {
		res, err := Mine(tc.g, tc.opt)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if tc.name == "escaped labels" && len(res.Patterns) == 0 {
			t.Fatal("the escaped-label graph mined no patterns")
		}
		checkWriteJSON(t, tc.name, res)
	}

	res, err := Mine(buildTrajectoryGraph(t), Options{Support: 2, Length: 2, Delta: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []time.Duration{0, time.Microsecond, 1500 * time.Microsecond, 7*time.Hour + 3*time.Millisecond + 9*time.Microsecond} {
		res.Stats.DiamMineTime, res.Stats.LevelGrowTime = d, 2*d+time.Microsecond
		checkWriteJSON(t, "stats timing "+d.String(), res)
	}

	// Mined timings never leave [1e-6, 1e21), so the exponent form is
	// checked on appendFloat directly.
	for _, f := range []float64{0, 0.001, 1.5, 1e-6, 9.99e-7, 1e-7, 1e20, 1e21, 1.5e300, -2.5e-9, math.SmallestNonzeroFloat64} {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendFloat(nil, f); !bytes.Equal(got, want) {
			t.Errorf("appendFloat(%g) = %s, want %s", f, got, want)
		}
	}
}

// FuzzWriteJSON mines a small graph whose label names come from the
// fuzz bytes, at a decoded length and δ with decoded stats timings,
// and holds WriteJSON to the reference encoder on the result.
func FuzzWriteJSON(f *testing.F) {
	f.Add([]byte("\x03\x02<&\x03a\"b\x01\xff\x05\x00\x01\x02\x00\x01\x06\x00\x01\x01\x02\x02\x03\x03\x04\x00\x01\x02\x00\x00\x00\x10\x03"))
	f.Add([]byte("\x02\x03\xe2\x80\xa8\x01\\\x07\x00\x01\x00\x01\x00\x01\x00\x08\x00\x01\x01\x02\x02\x03\x03\x04\x04\x05\x05\x06\x00\x06\x02\x01\xff\xff\xff\xff\x0f"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := byteReader(data)
		names := make([]string, 1+r.next(3))
		for i := range names {
			name := make([]byte, r.next(5))
			for j := range name {
				name[j] = byte(r.next(256))
			}
			names[i] = string(name)
		}
		g := NewGraph()
		n := 1 + r.next(8)
		for v := 0; v < n; v++ {
			g.AddVertex(names[r.next(len(names))])
		}
		for e := r.next(13); e > 0; e-- {
			_ = g.AddEdge(VertexID(r.next(n)), VertexID(r.next(n))) // loops and duplicates are dropped
		}
		opt := Options{Support: 1, Length: 1 + r.next(3), Delta: r.next(4) - 1}
		res, err := Mine(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		duration := func() time.Duration {
			us := uint64(r.next(256))<<24 | uint64(r.next(256))<<16 | uint64(r.next(256))<<8 | uint64(r.next(256))
			return time.Duration(us<<r.next(16)) * time.Microsecond
		}
		res.Stats.DiamMineTime, res.Stats.LevelGrowTime = duration(), duration()
		checkWriteJSON(t, "fuzz", res)
	})
}

func TestWriteJSONRoundtrip(t *testing.T) {
	g := buildTrajectoryGraph(t)
	res, err := Mine(g, Options{Support: 2, Length: 4, Delta: 1, MaximalOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed ResultJSON
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(parsed.Patterns) != len(res.Patterns) {
		t.Fatalf("pattern count %d, want %d", len(parsed.Patterns), len(res.Patterns))
	}
	for i, pj := range parsed.Patterns {
		p := res.Patterns[i]
		if pj.Support != p.Support() || pj.DiameterLength != p.DiameterLength() {
			t.Error("pattern metadata mismatch")
		}
		if len(pj.Labels) != p.Vertices() || len(pj.Edges) != p.Edges() {
			t.Error("pattern structure mismatch")
		}
		if len(pj.Backbone) != pj.DiameterLength+1 {
			t.Error("backbone length mismatch")
		}
	}
	if parsed.Stats.PathsMined == 0 {
		t.Error("stats missing")
	}
}

// TestStatsJSONCarriesAllCounters checks the wire form exposes every
// core.Stats search counter under stable field names.
func TestStatsJSONCarriesAllCounters(t *testing.T) {
	g := buildTrajectoryGraph(t)
	res, err := Mine(g, Options{Support: 2, Length: 4, Delta: 1})
	if err != nil {
		t.Fatal(err)
	}
	out := res.ToJSON()
	if out.Stats.PathsMined != res.Stats.PathsMined ||
		out.Stats.ExtensionsTried != res.Stats.ExtensionsTried ||
		out.Stats.Generated != res.Stats.Generated ||
		out.Stats.Duplicates != res.Stats.Duplicates ||
		out.Stats.ConstraintRejects != res.Stats.ConstraintRejects ||
		out.Stats.FrequencyRejects != res.Stats.FrequencyRejects ||
		out.Stats.CheckMismatches != res.Stats.CheckMismatches ||
		out.Stats.OutputInvalid != res.Stats.OutputInvalid {
		t.Errorf("StatsJSON %+v does not mirror core.Stats %+v", out.Stats, res.Stats)
	}
	if out.Stats.ExtensionsTried == 0 {
		t.Error("mining should have tried extensions")
	}

	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Stats map[string]json.RawMessage `json:"stats"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"diammine_ms", "levelgrow_ms", "paths_mined", "extensions_tried",
		"generated", "duplicates", "constraint_rejects", "frequency_rejects",
		"check_mismatches", "output_invalid",
	} {
		if _, ok := doc.Stats[key]; !ok {
			t.Errorf("stats JSON is missing field %q", key)
		}
	}
}

func TestPatternToJSONLabels(t *testing.T) {
	g := NewGraph()
	a := g.AddVertex("alpha")
	b := g.AddVertex("beta")
	c := g.AddVertex("gamma")
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(g.AddEdge(a, b))
	must(g.AddEdge(b, c))
	res, err := Mine(g, Options{Support: 1, Length: 2, Delta: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Patterns) != 1 {
		t.Fatalf("got %d patterns", len(res.Patterns))
	}
	pj := res.Patterns[0].ToJSON()
	if pj.Labels[0] != "alpha" && pj.Labels[0] != "gamma" {
		t.Errorf("backbone head label %q", pj.Labels[0])
	}
}
