package lint

import (
	"fmt"
	"regexp"
	"strings"
	"testing"
)

// fixtureTests pairs each analyzer with its seeded-violation package.
// Every fixture contains at least one line that must fire (marked
// `// want`), the corrected form of the same shape (unmarked, must
// stay silent), and a justified //lint:allow exception.
var fixtureTests = []struct {
	analyzer *Analyzer
	dir      string
}{
	{MapIter, "mapiter"},
	{TrustedAlloc, "trustedalloc"},
	{CtxFlow, "ctxflow"},
	{AtomicField, "atomicfield"},
	{HotAlloc, "hotalloc"},
}

func TestFixtures(t *testing.T) {
	for _, tt := range fixtureTests {
		t.Run(tt.dir, func(t *testing.T) {
			pkgs, err := Load(".", "./testdata/src/"+tt.dir)
			if err != nil {
				t.Fatalf("loading fixture: %v", err)
			}
			diags := Run(pkgs, []*Analyzer{tt.analyzer}, false)
			checkExpectations(t, pkgs, diags)
		})
	}
}

// wantRe matches one expectation comment: // want `re` `re2` ...
var wantRe = regexp.MustCompile("//\\s*want\\s+((?:`[^`]*`\\s*)+)")

var wantTokenRe = regexp.MustCompile("`([^`]*)`")

type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

func collectWants(t *testing.T, pkgs []*Package) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantRe.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					for _, tok := range wantTokenRe.FindAllStringSubmatch(m[1], -1) {
						re, err := regexp.Compile(tok[1])
						if err != nil {
							t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, tok[1], err)
						}
						wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re})
					}
				}
			}
		}
	}
	return wants
}

func checkExpectations(t *testing.T, pkgs []*Package, diags []Diagnostic) {
	t.Helper()
	wants := collectWants(t, pkgs)
	for _, d := range diags {
		found := false
		for _, w := range wants {
			if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected a diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

// TestAllowDirectiveValidation pins the escape-hatch contract: a
// directive without a reason, or naming an unknown analyzer, is itself
// a finding — so an exception can never silently rot.
func TestAllowDirectiveValidation(t *testing.T) {
	pkgs, err := Load(".", "./testdata/src/allowbad")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	diags := Run(pkgs, nil, false)
	var msgs []string
	for _, d := range diags {
		if d.Analyzer != "allow" {
			t.Errorf("unexpected analyzer %q in %s", d.Analyzer, d)
		}
		msgs = append(msgs, d.Message)
	}
	if len(msgs) != 2 {
		t.Fatalf("got %d allow diagnostics %v, want 2", len(msgs), msgs)
	}
	joined := strings.Join(msgs, "\n")
	for _, want := range []string{"needs an analyzer name and a reason", "unknown analyzer"} {
		if !strings.Contains(joined, want) {
			t.Errorf("allow diagnostics %q missing %q", joined, want)
		}
	}
}

// TestReasonlessAllowDoesNotSuppress pins that a reasonless directive
// never hides the underlying finding.
func TestReasonlessAllowDoesNotSuppress(t *testing.T) {
	pkgs, err := Load(".", "./testdata/src/allowbad")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	diags := Run(pkgs, []*Analyzer{CtxFlow}, false)
	found := false
	for _, d := range diags {
		if d.Analyzer == CtxFlow.Name && strings.Contains(d.Message, "mints a fresh root") {
			found = true
		}
	}
	if !found {
		t.Errorf("reasonless //lint:allow suppressed the ctxflow finding; diagnostics: %v", diags)
	}
}

// TestGating pins the package scoping: a gated analyzer sees only the
// packages whose invariant it encodes.
func TestGating(t *testing.T) {
	for _, tt := range []struct {
		pkg  string
		want []string
	}{
		{"skinnymine/internal/core", []string{"mapiter", "ctxflow", "atomicfield", "hotalloc"}},
		{"skinnymine/internal/indexio", []string{"trustedalloc", "atomicfield"}},
		{"skinnymine/internal/server", []string{"ctxflow", "atomicfield"}},
		{"skinnymine/internal/shard", []string{"mapiter", "ctxflow", "atomicfield"}},
		{"skinnymine/internal/graph", []string{"atomicfield"}},
	} {
		var got []string
		for _, a := range Analyzers() {
			if a.AppliesTo(tt.pkg) {
				got = append(got, a.Name)
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(tt.want) {
			t.Errorf("%s: gated analyzers = %v, want %v", tt.pkg, got, tt.want)
		}
	}
}

// TestSuiteCleanOnTree runs the gated suite over the whole module —
// the same invocation CI gates on — and requires zero findings, so the
// tree can never drift lint-dirty between CI runs.
func TestSuiteCleanOnTree(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module; skipped in -short")
	}
	pkgs, err := Load("../..", "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	diags := Run(pkgs, Analyzers(), true)
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
