package analysis_test

import (
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"vax780/internal/analysis"
	"vax780/internal/analysis/analysistest"
)

func TestUWRef(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.UWRef, "uwref")
}

func TestPaperConst(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.PaperConst, "paperconst")
}

func TestProbeSafe(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.ProbeSafe, "probesafe")
}

func TestDeterminism(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.Determinism, "determinism")
}

func TestStateComplete(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.StateComplete, "statecomplete")
}

func TestTypedErr(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.TypedErr, "typederr")
}

func TestExhaustive(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.Exhaustive, "exhaustive")
}

func TestUWFlow(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.UWFlow, "uwflow")
}

func TestUWDead(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.UWDead, "uwdead")
}

func TestHotPath(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.HotPath, "hotpath")
}

func TestHotBox(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.HotBox, "hotbox")
}

// TestHotClean proves both hot-path analyzers stay silent on a stepping
// loop that dispatches through a handler table and an interface probe but
// never allocates or boxes on a reachable path.
func TestHotClean(t *testing.T) {
	for _, a := range []*analysis.Analyzer{analysis.HotPath, analysis.HotBox} {
		analysistest.Run(t, "testdata", a, "hotclean")
	}
}

func TestGoLeak(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.GoLeak, "goleak")
}

func TestChanProt(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.ChanProt, "chanprot")
}

func TestCtxFlow(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.CtxFlow, "ctxflow")
}

func TestOneWriter(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.OneWriter, "onewriter")
}

// TestConcClean proves all four concflow analyzers stay silent on a
// miniature farm that honors every contract: the worker exits when the
// jobs channel closes, the channel has one closing owner, and the merge
// happens across the Wait barrier.
func TestConcClean(t *testing.T) {
	for _, a := range []*analysis.Analyzer{
		analysis.GoLeak, analysis.ChanProt, analysis.CtxFlow, analysis.OneWriter,
	} {
		analysistest.Run(t, "testdata", a, "concclean")
	}
}

// TestSuiteSize pins the suite's advertised size: growing it without
// updating the docs (README, Makefile) should fail loudly here.
func TestSuiteSize(t *testing.T) {
	if got := len(analysis.All()); got != 16 {
		t.Fatalf("analysis.All() reports %d analyzers, want 16", got)
	}
}

// TestUWValue exercises the type-based callee approximation: class
// violations whose words only reach the count sites through a handler
// table of a named function type, landing inside the registered function
// and the registered closure.
func TestUWValue(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.UWFlow, "uwvalue")
}

// TestUWValueClean proves the dynamic-dispatch machinery does not invent
// findings (uwflow silent on a clean table) and that uwdead sees words
// counted only through function values.
func TestUWValueClean(t *testing.T) {
	for _, a := range []*analysis.Analyzer{analysis.UWFlow, analysis.UWDead} {
		analysistest.Run(t, "testdata", a, "uwvalueclean")
	}
}

// TestUWClean proves the two µflow analyzers stay silent on a fixture
// that counts every class on its proper channel and reaches every word.
func TestUWClean(t *testing.T) {
	for _, a := range []*analysis.Analyzer{analysis.UWFlow, analysis.UWDead} {
		analysistest.Run(t, "testdata", a, "uwclean")
	}
}

// trailFact carries the provenance trail of a function for the synthetic
// fact-propagation analyzer below.
type trailFact struct{ Trail string }

func (*trailFact) AFact() {}

// TestFactPropagation proves the engine's fact plumbing end to end: a
// synthetic analyzer marks facts/a.Source, and the mark must cross two
// import hops (a → b → c, analyzed in dependency order) with the trail
// growing at each step. This is the mechanism the determinism analyzer's
// purity propagation rides on.
func TestFactPropagation(t *testing.T) {
	propagate := &analysis.Analyzer{
		Name: "propagate",
		Doc:  "test-only: chains a trail fact through the static call graph",
		Run: func(pass *analysis.Pass) error {
			pkgName := pass.Pkg.Types.Name()
			for _, fd := range analysis.PackageFuncs(pass.Pkg) {
				if strings.HasPrefix(fd.Obj.Name(), "Source") {
					pass.ExportObjectFact(fd.Obj, &trailFact{Trail: pkgName})
					continue
				}
				for _, callee := range analysis.Callees(pass.Pkg.Info, fd.Decl.Body) {
					var f trailFact
					if !pass.ImportObjectFact(callee, &f) {
						continue
					}
					trail := f.Trail + "." + pkgName
					pass.ExportObjectFact(fd.Obj, &trailFact{Trail: trail})
					if callee.Pkg() != pass.Pkg.Types {
						pass.Reportf(fd.Decl.Name.Pos(), "fact trail %s", trail)
					}
					break
				}
			}
			return nil
		},
	}
	analysistest.Run(t, "testdata", propagate, "facts/c")
}

// TestAllowValidation checks that //vaxlint:allow notes missing a
// justification or naming an unknown analyzer are themselves findings and
// suppress nothing. Asserted directly rather than via want comments: a
// want clause cannot share a line with the allow comment under test (the
// line comment swallows it).
func TestAllowValidation(t *testing.T) {
	pkgs, err := analysis.LoadTestdataPackages("testdata/src", "allowbad")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.Run([]*analysis.Analyzer{analysis.Determinism}, pkgs)
	if err != nil {
		t.Fatal(err)
	}
	wants := []struct {
		analyzer string
		rx       string
	}{
		{"allow", `lacks a justification`},
		{"allow", `unknown analyzer "nosuchanalyzer"`},
		// Neither note is valid, so both map ranges still taint their roots.
		{"determinism", `Run must be deterministic .*ranges over a map`},
		{"determinism", `RunCtx must be deterministic .*ranges over a map`},
	}
	for _, w := range wants {
		rx := regexp.MustCompile(w.rx)
		found := false
		for _, d := range diags {
			if d.Analyzer == w.analyzer && rx.MatchString(d.Message) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("missing [%s] diagnostic matching %q in:\n%s", w.analyzer, w.rx, diagDump(diags))
		}
	}
	if len(diags) != len(wants) {
		t.Errorf("got %d diagnostics, want %d:\n%s", len(diags), len(wants), diagDump(diags))
	}
}

// TestCollectAllows pins the audit listing behind `vaxlint -allows`: one
// entry per //vaxlint:allow note in the load, sorted by file then line,
// carrying the analyzer names and the justification text.
func TestCollectAllows(t *testing.T) {
	pkgs, err := analysis.LoadTestdataPackages("testdata/src", "hotpath")
	if err != nil {
		t.Fatal(err)
	}
	entries := analysis.CollectAllows(pkgs)
	if len(entries) != 2 {
		t.Fatalf("got %d allow entries, want 2: %+v", len(entries), entries)
	}
	if !sort.SliceIsSorted(entries, func(i, j int) bool {
		if entries[i].Pos.Filename != entries[j].Pos.Filename {
			return entries[i].Pos.Filename < entries[j].Pos.Filename
		}
		return entries[i].Pos.Line < entries[j].Pos.Line
	}) {
		t.Errorf("entries not sorted by file then line: %+v", entries)
	}
	for i, wantPrefix := range []string{"bounded:", "cold:"} {
		e := entries[i]
		if len(e.Analyzers) != 1 || e.Analyzers[0] != "hotpath" {
			t.Errorf("entry %d analyzers = %v, want [hotpath]", i, e.Analyzers)
		}
		if !strings.HasPrefix(e.Reason, wantPrefix) {
			t.Errorf("entry %d reason %q, want prefix %q", i, e.Reason, wantPrefix)
		}
	}
}

func diagDump(diags []analysis.Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		b.WriteString("  " + d.String() + "\n")
	}
	return b.String()
}

// BenchmarkAnalyzers measures the suite's own cost: one module load,
// then one sub-benchmark per analyzer over the whole tree, reporting its
// findings count next to ns/op — a count that quietly drops to zero is
// as much a regression signal as a runtime that doubles. Run with
// `go test -run '^$' -bench BenchmarkAnalyzers -benchtime 1x ./internal/analysis`.
func BenchmarkAnalyzers(b *testing.B) {
	pkgs, err := analysis.LoadModule(filepath.Join("..", ".."), []string{"./..."})
	if err != nil {
		b.Fatal(err)
	}
	for _, a := range analysis.All() {
		b.Run(a.Name, func(b *testing.B) {
			n := 0
			for i := 0; i < b.N; i++ {
				diags, err := analysis.Run([]*analysis.Analyzer{a}, pkgs)
				if err != nil {
					b.Fatal(err)
				}
				n = 0
				for _, d := range diags {
					if d.Analyzer == a.Name {
						n++
					}
				}
			}
			b.ReportMetric(float64(n), "findings")
		})
	}
}
